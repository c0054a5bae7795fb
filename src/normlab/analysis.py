"""Theorem-level auditors over sampled evidence.

Everything here records seed and sample count, evaluates a sampled
maximum (or defect), and leaves the pass/fail judgement to the caller:
an audit report states what was observed, the test suites assert the
bounds.  Sampling uses complex-Gaussian coordinates normalized to the
unit sphere of the relevant norm, with per-index generators for
reproducibility.  The audits draw and evaluate their samples in stacked
batches (sampling.index_batches) through the kernels' pairs methods; the
results, down to the worst pair of a tie, are those of a loop over the
indices with the single-pair functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatchError, RUnknownError, ZeroMapError
from .orthogonality import RHO_INF, check_tol, construct_pairs, relation_residuals
from .sampling import gaussian_draws, index_batches, unit_draws
from .spaces import NormSpec, _modulus, dual_segment_constant, format_cvector, norm

UNIVERSAL_4_OVER_PI = "4_over_pi"
DUAL_CONSTANT = "dual_constant"
CONJECTURE_ONE = "conjecture_one"

BOUNDS = (UNIVERSAL_4_OVER_PI, DUAL_CONSTANT, CONJECTURE_ONE)


def _check_dim(spec: NormSpec, dim: int) -> None:
    if spec.dim != int(dim):
        raise DimensionMismatchError(
            f"requested dim {dim} does not match spec dim {spec.dim}")


def _first_max(values: np.ndarray, best: float) -> int | None:
    """The index of the first maximum of values if it beats best, else None."""
    i = int(np.argmax(values))
    return i if values[i] > best else None


def _check_samples(samples: int) -> None:
    # an audit over no samples would report its start value as evidence
    if int(samples) < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


@dataclass(frozen=True)
class SymmetryReport:
    """Sampled symmetry defects of rho_inf.

    raw_defect is max |rho_inf(x,y) - rho_inf(y,x)| over unit pairs;
    conj_defect replaces the second term by its conjugate.  In a genuine
    complex inner-product space rho_inf is the inner product, which is
    conjugate-symmetric rather than symmetric, so the two readings
    differ; both are reported.  The parallelogram-law defect is an
    independent inner-product-space cross-check.
    """

    raw_defect: float
    conj_defect: float
    parallelogram_defect: float
    worst_pair: tuple[np.ndarray, np.ndarray] = field(repr=False)
    samples: int
    seed: int


def symmetry_defect(spec: NormSpec, dim: int, samples: int,
                    seed: int) -> SymmetryReport:
    _check_dim(spec, dim)
    _check_samples(samples)
    k = spec.kernel
    raw = conj = para = -1.0
    worst = None
    for batch in index_batches(int(samples)):
        x, y = unit_draws(spec, seed, (0,), batch)
        f = k.rho_inf_pairs(x, y)
        g = k.rho_inf_pairs(y, x)
        d_raw = _modulus(f - g)
        i = _first_max(d_raw, raw)
        if i is not None:
            raw = float(d_raw[i])
            worst = (x[i].copy(), y[i].copy())
        conj = max(conj, float(_modulus(f - g.conj()).max()))
        sq = [np.float_power(k.norm(z), 2) for z in (x + y, x - y, x, y)]
        para = max(para, float(np.abs(sq[0] + sq[1] - 2.0 * sq[2]
                                      - 2.0 * sq[3]).max()))
    return SymmetryReport(raw, conj, para, worst, int(samples), int(seed))


@dataclass(frozen=True)
class AuditReport:
    """Sampled maximum of |rho_inf(x,y)| / (|x| |y|) against a bound.

    max_ratio <= bound_used is the claim under audit whenever the
    corresponding theorem applies; it is recorded here, asserted by the
    test suites.
    """

    max_ratio: float
    bound_used: float
    bound: str
    samples: int
    seed: int
    worst_pair: tuple[np.ndarray, np.ndarray] = field(repr=False)


def cs_bound_audit(spec: NormSpec, dim: int, samples: int, seed: int,
                   bound: str) -> AuditReport:
    """Audit a Cauchy-Schwarz-type bound for rho_inf on random unit pairs.

    bound selects the ceiling: the universal 4/pi, the dual-segment
    constant 1 + 2 R(X*) (errors when R(X*) is unknown for the family),
    or the conjectured constant 1.
    """
    _check_dim(spec, dim)
    _check_samples(samples)
    if bound == UNIVERSAL_4_OVER_PI:
        bound_used = 4.0 / np.pi
    elif bound == DUAL_CONSTANT:
        r = dual_segment_constant(spec).r_dual
        if r is None:
            raise RUnknownError(
                f"R(X*) unknown for family {spec.family!r}; use the 4/pi bound")
        bound_used = 1.0 + 2.0 * r
    elif bound == CONJECTURE_ONE:
        bound_used = 1.0
    else:
        raise ValueError(f"unknown bound {bound!r}")

    max_ratio = -1.0
    worst = None
    for batch in index_batches(int(samples)):
        x, y = unit_draws(spec, seed, (1,), batch)
        ratio = _modulus(spec.kernel.rho_inf_pairs(x, y))
        i = _first_max(ratio, max_ratio)
        if i is not None:
            max_ratio = float(ratio[i])
            worst = (x[i].copy(), y[i].copy())
    return AuditReport(max_ratio, float(bound_used), bound, int(samples),
                       int(seed), worst)


@dataclass(frozen=True)
class EquivalenceReport:
    """Sampled two-norm comparison of rho_inf.

    empirical_c is the observed maximum of
    |rho_inf_1(x,y) - rho_inf_2(x,y)| / min(|x|_1 |y|_1, |x|_2 |y|_2);
    ceiling is the predicted R (1 + max(M^2, 1/m^2)) from empirically
    estimated frame constants m, M between the two norms, or None when
    R(X*) is unknown for either family.
    """

    empirical_c: float
    ceiling: float | None
    m_est: float
    big_m_est: float
    samples: int
    seed: int
    worst_pair: tuple[np.ndarray, np.ndarray] = field(repr=False)


def norm_equivalence_constant(spec1: NormSpec, spec2: NormSpec, dim: int,
                              samples: int, seed: int) -> EquivalenceReport:
    _check_dim(spec1, dim)
    _check_dim(spec2, dim)
    _check_samples(samples)
    max_c = -1.0
    worst = None
    m_est = np.inf
    big_m_est = 0.0
    for batch in index_batches(int(samples)):
        x, y = gaussian_draws(dim, seed, (2,), batch)
        n1x, n1y = spec1.kernel.norm(x), spec1.kernel.norm(y)
        n2x, n2y = spec2.kernel.norm(x), spec2.kernel.norm(y)
        live = np.minimum(np.minimum(n1x, n1y), np.minimum(n2x, n2y)) >= 1e-12
        if not live.any():
            continue
        x, y = x[live], y[live]
        n1x, n1y, n2x, n2y = n1x[live], n1y[live], n2x[live], n2y[live]
        ratios = np.concatenate((n2x / n1x, n2y / n1y))
        m_est = min(m_est, float(ratios.min()))
        big_m_est = max(big_m_est, float(ratios.max()))
        v1 = spec1.kernel.rho_inf_pairs(x, y)
        v2 = spec2.kernel.rho_inf_pairs(x, y)
        c = _modulus(v1 - v2) / np.minimum(n1x * n1y, n2x * n2y)
        i = _first_max(c, max_c)
        if i is not None:
            max_c = float(c[i])
            worst = (x[i].copy(), y[i].copy())
    r1 = dual_segment_constant(spec1).r_dual
    r2 = dual_segment_constant(spec2).r_dual
    ceiling = None
    if r1 is not None and r2 is not None:
        big_r = 1.0 + 2.0 * max(r1, r2)
        ceiling = big_r * (1.0 + max(big_m_est**2, 1.0 / m_est**2))
    return EquivalenceReport(max_c, ceiling, float(m_est), float(big_m_est),
                             int(samples), int(seed), worst)


# --- linear maps -------------------------------------------------------------


@dataclass(frozen=True)
class MapWitness:
    """An orthogonal domain pair whose images are not orthogonal."""

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    domain_residual: float
    image_residual: float

    def to_record(self) -> dict:
        return {
            "x": format_cvector(self.x),
            "y": format_cvector(self.y),
            "domain_residual": self.domain_residual,
            "image_residual": self.image_residual,
        }


@dataclass(frozen=True)
class MapAnalysis:
    """Audit of a linear map against the preservation equivalences.

    preserves means no sampled orthogonal pair had non-orthogonal images;
    isometry_defect is max over sampled unit x of ||Tx| - est|; the scale
    identity defect is max |rho_inf(Tx,Ty) - est^2 rho_inf(x,y)| over
    unit pairs.
    """

    operator_norm_est: float
    isometry_defect: float
    preserves: bool
    scale_identity_defect: float
    witnesses: list[MapWitness]
    samples: int
    seed: int
    tol: float


def _check_map(spec_dom: NormSpec, spec_cod: NormSpec, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim != 2 or t.shape != (spec_cod.dim, spec_dom.dim):
        raise DimensionMismatchError(
            f"matrix shape {t.shape} does not map dim {spec_dom.dim} "
            f"to dim {spec_cod.dim}")
    if not np.all(np.isfinite(t)):
        raise ValueError("matrix entries must be finite")
    if np.abs(t).max() == 0.0:
        raise ZeroMapError("the zero map has no operator norm direction")
    return t


def _nelder_mead(f, start, edges, xatol: float, maxfev: int = 2000):
    """Nelder-Mead over a complex vector, for the operator-norm ascent.

    The initial simplex is start and start + e for each edge e, one edge
    per real dimension.  Standard reflection/expansion/inside-contraction/
    shrink coefficients; the run stops once every vertex lies within xatol
    of the best one (largest coordinate modulus) or after maxfev
    evaluations.  A function-value criterion is deliberately absent: at
    the kinked maxima of norm ratios the value spread never collapses.
    Returns the best (value, vertex).
    """
    value = itemgetter(0)
    n = len(edges)
    simplex = [(f(p), p) for p in [start] + [start + e for e in edges]]
    fev = n + 1
    while fev < maxfev:
        simplex.sort(key=value)  # stable: ties keep their order
        f_best, best = simplex[0]
        f_worst, worst = simplex[n]
        if max([np.abs(p - best).max() for _, p in simplex[1:]]) <= xatol:
            break
        centroid = sum([p for _, p in simplex[1:n]], best) / n
        refl = centroid + (centroid - worst)
        f_refl = f(refl)
        fev += 1
        if f_best <= f_refl < simplex[n - 1][0]:
            simplex[n] = (f_refl, refl)
        elif f_refl < f_best:
            exp = centroid + 2.0 * (centroid - worst)
            f_exp = f(exp)
            fev += 1
            simplex[n] = (f_exp, exp) if f_exp < f_refl else (f_refl, refl)
        else:
            contr = centroid + 0.5 * (worst - centroid)
            f_contr = f(contr)
            fev += 1
            if f_contr < f_worst:
                simplex[n] = (f_contr, contr)
            else:  # shrink toward the best vertex
                for i in range(1, n + 1):
                    p = best + 0.5 * (simplex[i][1] - best)
                    simplex[i] = (f(p), p)
                fev += n
    return min(simplex, key=value)


def operator_norm_estimate(spec_dom: NormSpec, spec_cod: NormSpec, t,
                           samples: int = 200,
                           seed: int = 42) -> tuple[float, np.ndarray]:
    """Estimate |T| = sup |Tx| / |x| by sampling plus local ascent.

    Candidates are the basis vectors and seeded unit-sphere samples; the
    best one seeds a Nelder-Mead ascent of the scale-invariant ratio over
    C^d, whose initial edges step 5% along each nonzero real and
    imaginary coordinate (2.5e-4 along a zero one).  Returns (estimate,
    attaining unit vector).
    """
    t = _check_map(spec_dom, spec_cod, t)
    d = spec_dom.dim

    def ratio(x: np.ndarray) -> float:
        nx = norm(spec_dom, x)
        if nx < 1e-12:
            return 0.0
        return norm(spec_cod, t @ x) / nx

    (drawn,) = unit_draws(spec_dom, seed, (3,), range(int(samples)), count=1)
    candidates = [*np.eye(d, dtype=np.complex128), *drawn]
    values = [ratio(c) for c in candidates]
    k = int(np.argmax(values))
    best, best_vec = values[k], candidates[k]

    coords = np.concatenate([best_vec.real, best_vec.imag])
    steps = np.where(coords != 0.0, 0.05 * coords, 2.5e-4)
    edges = steps[:, None] * np.concatenate([np.eye(d), 1j * np.eye(d)])
    neg_max, vec = _nelder_mead(lambda x: -ratio(x), best_vec, edges,
                                xatol=1e-9, maxfev=8000)
    if -neg_max > best:
        best, best_vec = -neg_max, vec
    return float(best), best_vec / norm(spec_dom, best_vec)


def map_preservation_analysis(spec_dom: NormSpec, spec_cod: NormSpec, t,
                              samples: int = 200, seed: int = 42,
                              tol: float = 1e-6) -> MapAnalysis:
    """Audit a linear map for preservation of rho_inf-orthogonality.

    The equivalences under audit: preservation, |Tx| = |T| |x| for all x,
    and rho_inf(Tx, Ty) = |T|^2 rho_inf(x, y).  Orthogonal domain pairs
    are generated through the decomposition scalar; a pair whose images
    fail orthogonality at tol becomes a witness.
    """
    t = _check_map(spec_dom, spec_cod, t)
    _check_samples(samples)
    check_tol(tol)
    est, _ = operator_norm_estimate(spec_dom, spec_cod, t, samples, seed)

    def image(xs):
        # t @ x row by row, as for a single vector
        return np.matmul(t, xs[:, :, None])[:, :, 0]

    iso_defect = scale_defect = 0.0
    witnesses: list[MapWitness] = []
    for batch in index_batches(int(samples)):
        (x,) = unit_draws(spec_dom, seed, (4,), batch, count=1)
        iso_defect = max(iso_defect, float(
            np.abs(spec_cod.kernel.norm(image(x)) - est).max()))

        x, y = unit_draws(spec_dom, seed, (5,), batch)
        lhs = spec_cod.kernel.rho_inf_pairs(image(x), image(y))
        rhs = est**2 * spec_dom.kernel.rho_inf_pairs(x, y)
        scale_defect = max(scale_defect, float(_modulus(lhs - rhs).max()))

        x, y = gaussian_draws(spec_dom.dim, seed, (6,), batch)
        nx = spec_dom.kernel.norm(x)
        live = nx >= 1e-8
        x, b = construct_pairs(spec_dom, RHO_INF, x[live], y[live], nx[live])
        res_a = relation_residuals(spec_dom, RHO_INF, x, b)
        ok = np.flatnonzero(res_a <= tol)
        res_b = relation_residuals(spec_cod, RHO_INF, image(x[ok]), image(b[ok]))
        witnesses += [MapWitness(x[j].copy(), b[j].copy(), float(res_a[j]), float(r))
                      for j, r in zip(ok, res_b) if not r <= tol]

    return MapAnalysis(est, float(iso_defect), not witnesses,
                       float(scale_defect), witnesses, int(samples),
                       int(seed), float(tol))
