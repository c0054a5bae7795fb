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

import numpy as np

from .errors import DimensionMismatchError, RUnknownError, ZeroMapError
from .orthogonality import RHO_INF, check_tol, construct_pairs, relation_residuals
from .sampling import (
    BOUNDS_KEY,
    EQUIVALENCE_KEY,
    MAP_CONSTRUCT_KEY,
    MAP_PAIR_KEY,
    MAP_POINT_KEY,
    OPERATOR_NORM_KEY,
    SYMMETRY_KEY,
    gaussian_draws,
    index_batches,
    unit_draws,
)
from .spaces import NormSpec, _modulus, _row_apply, dual_segment_constant, format_cvector

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
        x, y = unit_draws(spec, seed, SYMMETRY_KEY, batch)
        # both orders in one call; no row depends on the rows stacked with it
        f, g = k.rho_inf_pairs(np.concatenate((x, y)),
                               np.concatenate((y, x))).reshape(2, -1)
        d_raw = _modulus(f - g)
        i = _first_max(d_raw, raw)
        if i is not None:
            raw = float(d_raw[i])
            worst = (x[i].copy(), y[i].copy())
        conj = max(conj, float(_modulus(f - g.conj()).max()))
        sq = np.float_power(k.norm(np.concatenate((x + y, x - y, x, y))),
                            2).reshape(4, -1)
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
        x, y = unit_draws(spec, seed, BOUNDS_KEY, batch)
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
        x, y = gaussian_draws(dim, seed, EQUIVALENCE_KEY, batch)
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
    unit pairs.  operator_norm_exact says whether est is |T| up to
    rounding: always where operator_norm_formula has a closed form
    (from an abs-sum domain, lp1 or wl1, into any codomain, from any
    domain into a max-modulus codomain, lp inf or poly, where a poly
    domain's dual solve settled on the maximizing row, and between pd
    and lp2), and between two norms of one exponent p (smooth
    lp into smooth lp) where the estimate reaches the Riesz-Thorin bound,
    as on scalar multiples of monomial maps (operator_norm_estimate).
    Elsewhere est is an iterated lower estimate.
    """

    operator_norm_est: float
    operator_norm_exact: bool
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


# the operator-norm ascent runs on this many of the best candidates, for at
# most this many steps; a row stops earlier once its ratio stops rising
ASCENT_ROWS = 4
ASCENT_STEPS = 100

# an estimate within this relative distance of the Riesz-Thorin bound is
# |T| up to rounding; over 12,240 lp isometries, their multiples by 3.7 and
# diag(1, 2) (p from 1.1 to 7, dims 1-6) the best basis ratio lay at most
# 1.08 eps from the bound
NORM_BOUND_RTOL = 4.0 * float(np.finfo(np.float64).eps)


def _ratios(spec_dom: NormSpec, spec_cod: NormSpec, t: np.ndarray,
            xs: np.ndarray) -> np.ndarray:
    """|T x|_cod / |x|_dom for each row x of xs (no zero rows)."""
    return spec_cod.kernel.norm(_row_apply(xs, t.T)) / spec_dom.kernel.norm(xs)


def operator_norm_formula(spec_dom: NormSpec, spec_cod: NormSpec, t: np.ndarray):
    """The closed form of |T| = sup |T x|_cod / |x|_dom for a (cod dim, dom
    dim) matrix T: (|T|, a vector x of unit norm with |T x| = |T|, up to
    rounding, and whether the value is exact), or None where none is known.

    * An abs-sum domain (lp1, wl1), into any codomain: its unit ball is
      the hull of the e^{it} e_k / w_k, so |T| = max_k |T e_k|_cod / w_k.
    * A max-modulus codomain (lp inf, poly), from any domain: |T| = max_j
      dual_dom(f_j T), and x is the dual point of the maximizing row.  From
      a poly domain both come from one solve (Kernel.dual), exact where the
      maximizing row settled, which certifies its duality gap; elsewhere
      the value is a lower bound.
    * Euclidean to Euclidean (pd and lp2, p = 2 on both sides): the
      spectral norm of A_cod T A_dom^-1.
    """
    dom, cod = spec_dom.kernel, spec_cod.kernel
    if dom.p == 1.0:
        xs = dom.m_inv.T  # row k is e_k / w_k
        values, settled = cod.norm(xs @ t.T), None
    elif np.isinf(cod.p):
        xs, values, settled = dom.dual(cod.m @ t)  # row j of cod.m @ t is f_j T
    elif dom.p == cod.p == 2.0:
        _, s, vh = np.linalg.svd(cod.m @ t @ dom.m_inv)
        return float(s[0]), dom.m_inv @ vh[0].conj(), True
    else:
        return None
    k = int(np.argmax(values))
    return float(values[k]), xs[k], settled is None or bool(settled[k])


def _certified_floor(spec_dom, spec_cod, t) -> float:
    """The least ratio |T x| / |x| that is |T| up to rounding:
    NORM_BOUND_RTOL below the Riesz-Thorin bound where both norms share an
    exponent p and the domain's has M^-1, else inf.

    There |T| = |A|_{p->p} for A = M_cod T M_dom^-1, and Riesz-Thorin
    interpolation between p = 1 and p = inf bounds it by
    |A|_1^{1/p} |A|_inf^{1-1/p}, the largest column and row abs sums.
    """
    dom, cod = spec_dom.kernel, spec_cod.kernel
    if dom.p != cod.p or dom.m_inv is None:
        return np.inf
    a = np.abs(cod.m @ t @ dom.m_inv)
    bound = a.sum(axis=0).max() ** (1.0 / dom.p) * a.sum(axis=1).max() ** (1.0 - 1.0 / dom.p)
    return float(bound) * (1.0 - NORM_BOUND_RTOL)


def _power_ascent(spec_dom, spec_cod, t, xs, ratios, reach):
    """Boyd's power step x <- J*_dom(J_cod(T x) T) on each row, until the
    row's ratio reaches reach.

    With h = J_cod(T x) and g = h T, |T x'| >= Re(h T x') = dual_dom(g) >=
    |g x| = |T x| for x' = J*_dom(g), so the ratio never falls; it stops
    rising at a stationary point of the ratio (Boyd, LAA 9, 1974; Higham,
    Numer. Math. 62, 1992).
    """
    dom, cod = spec_dom.kernel, spec_cod.kernel
    # J_cod(0) = 0 leads nowhere, and a row at the bound is done
    live = np.flatnonzero((ratios > 0) & (ratios < reach))
    for _ in range(ASCENT_STEPS):
        if not live.size:
            break
        new, _, _ = dom.dual(_row_apply(cod.norming(_row_apply(xs[live], t.T)), t))
        r = _ratios(spec_dom, spec_cod, t, new)
        up = r > ratios[live]
        live = live[up]
        xs[live], ratios[live] = new[up], r[up]
        live = live[ratios[live] < reach]
    return xs


def operator_norm_estimate(spec_dom: NormSpec, spec_cod: NormSpec, t,
                           samples: int = 200,
                           seed: int = 42) -> tuple[float, np.ndarray]:
    """|T| = sup |Tx| / |x|: exact where operator_norm_formula has a
    closed form, else estimated by sampling plus a local ascent.

    Where both norms share an exponent p and the domain's has M^-1
    (smooth lp into smooth lp of the same p), the Riesz-Thorin bound
    U = |A|_1^{1/p} |A|_inf^{1-1/p} of A = M_cod T M_dom^-1 caps |T|.  The
    basis vectors are scored first, and if the best of them lies within
    NORM_BOUND_RTOL of U it is |T|, as on every scalar multiple of a
    monomial map: it is returned with no draws and no ascent.  Otherwise
    the candidates are the basis vectors and seeded unit-sphere samples,
    scored in one stacked pass.  The best ASCENT_ROWS of them run Boyd's
    power iteration as one stack, each row until its ratio stops rising or
    comes within NORM_BOUND_RTOL of U; on a polyhedral domain the dual map
    of each step is the kernel's dual solver.  The estimate is the
    best ratio reached; samples and seed matter only there.  Returns
    (estimate, attaining unit vector).
    """
    return _operator_norm(spec_dom, spec_cod, _check_map(spec_dom, spec_cod, t),
                          samples, seed)[:2]


def _operator_norm(spec_dom, spec_cod, t, samples, seed):
    """operator_norm_estimate of a checked map, and whether the estimate is
    |T| up to rounding (MapAnalysis.operator_norm_exact)."""
    closed = operator_norm_formula(spec_dom, spec_cod, t)
    if closed is not None:
        best, x, exact = closed
    else:
        reach = _certified_floor(spec_dom, spec_cod, t)
        xs = np.eye(spec_dom.dim, dtype=np.complex128)
        ratios = _ratios(spec_dom, spec_cod, t, xs)
        if ratios.max() < reach:
            (drawn,) = unit_draws(spec_dom, seed, OPERATOR_NORM_KEY, range(int(samples)),
                                  count=1)
            xs = np.concatenate((xs, drawn))
            ratios = np.concatenate((ratios, _ratios(spec_dom, spec_cod, t, drawn)))
            top = np.argsort(-ratios, kind="stable")[:ASCENT_ROWS]
            xs = _power_ascent(spec_dom, spec_cod, t, xs[top], ratios[top], reach)
            ratios = _ratios(spec_dom, spec_cod, t, xs)
        k = int(np.argmax(ratios))
        best, x = float(ratios[k]), xs[k]
        exact = best >= reach
    return best, x / spec_dom.kernel.norm(x), exact


def map_preservation_analysis(spec_dom: NormSpec, spec_cod: NormSpec, t,
                              samples: int = 200, seed: int = 42,
                              tol: float = 1e-6) -> MapAnalysis:
    """Audit a linear map for preservation of rho_inf-orthogonality.

    The equivalences under audit: preservation, |Tx| = |T| |x| for all x,
    and rho_inf(Tx, Ty) = |T|^2 rho_inf(x, y).  Orthogonal domain pairs
    are generated through the decomposition scalar; a pair whose images
    fail orthogonality at tol becomes a witness.
    """
    (ma,) = _map_analyses(spec_dom, spec_cod, [t], samples, seed, tol)
    return ma


def _image(t: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """t @ z for each row z of zs, as for a single vector."""
    return np.matmul(t, zs[:, :, None])[:, :, 0]


def _map_analyses(spec_dom: NormSpec, spec_cod: NormSpec, maps, samples: int,
                  seed: int, tol: float) -> list[MapAnalysis]:
    """map_preservation_analysis of each map, in one pass over the domain
    samples: every batch draws its samples, evaluates their domain rho_inf
    and constructs and judges the orthogonal pairs once for all the maps,
    and judges the images under every map as one stack, the rows of map 0
    first: one codomain norm, one rho_inf and one residual call per batch.
    No row depends on the rows stacked with it, so each map's results and
    its witnesses, in index order, are those of a pass of its own."""
    maps = [_check_map(spec_dom, spec_cod, t) for t in maps]
    _check_samples(samples)
    check_tol(tol)
    ests, _, exact = zip(*(_operator_norm(spec_dom, spec_cod, t, samples, seed)
                           for t in maps))
    iso_defects = [0.0] * len(maps)
    scale_defects = [0.0] * len(maps)
    witnesses: list[list[MapWitness]] = [[] for _ in maps]
    cod = spec_cod.kernel

    def images(zs):
        return np.concatenate([_image(t, zs) for t in maps])

    for batch in index_batches(int(samples)):
        (xi,) = unit_draws(spec_dom, seed, MAP_POINT_KEY, batch, count=1)
        xs, ys = unit_draws(spec_dom, seed, MAP_PAIR_KEY, batch)
        rho_dom = spec_dom.kernel.rho_inf_pairs(xs, ys)
        x, y = gaussian_draws(spec_dom.dim, seed, MAP_CONSTRUCT_KEY, batch)
        nx = spec_dom.kernel.norm(x)
        live = nx >= 1e-8
        x, b = construct_pairs(spec_dom, RHO_INF, x[live], y[live], nx[live])
        res_a = relation_residuals(spec_dom, RHO_INF, x, b)
        ok = np.flatnonzero(res_a <= tol)
        norms = cod.norm(images(xi)).reshape(len(maps), -1)
        lhs = cod.rho_inf_pairs(images(xs), images(ys)).reshape(len(maps), -1)
        res_b = relation_residuals(spec_cod, RHO_INF, images(x[ok]),
                                   images(b[ok])).reshape(len(maps), -1)
        for m, est in enumerate(ests):
            iso_defects[m] = max(iso_defects[m], float(np.abs(norms[m] - est).max()))
            scale_defects[m] = max(scale_defects[m],
                                   float(_modulus(lhs[m] - est**2 * rho_dom).max()))
            witnesses[m] += [MapWitness(x[j].copy(), b[j].copy(), float(res_a[j]),
                                        float(r))
                             for j, r in zip(ok, res_b[m]) if not r <= tol]
    return [MapAnalysis(est, is_exact, float(iso), not found, float(scale), found,
                        int(samples), int(seed), float(tol))
            for est, is_exact, iso, scale, found
            in zip(ests, exact, iso_defects, scale_defects, witnesses)]
