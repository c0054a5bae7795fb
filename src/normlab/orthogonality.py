"""Orthogonality relations induced by the norm-derivative functionals.

Four relations are decided numerically:

* ``rho_inf``:  rho_inf(x, y) = 0
* ``rho_plus``: rho_plus(x, y) = 0
* ``bj``:       Birkhoff-James, |x| <= |x + xi y| for all complex xi
* ``semi``:     [y, x] = 0 for the unique semi-inner product of a smooth
  norm (refused on non-smooth families, where the s.i.p. is not unique)

All residuals are normalized by |x| |y| so that one scale-free tolerance
applies; the zero-vector cases are orthogonal by convention with residual
zero.  relation_compare samples pairs satisfying one relation by direct
construction and reports the ones violating another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .derivatives import FunctionalValue, rho_plus
from .errors import DimensionMismatchError, NotSmoothError, ZeroBaseError
from .rho_infinity import rho_inf
from .sampling import complex_gaussian, rng_for
from .spaces import (
    NormSpec,
    check_dim,
    format_cvector,
    is_smooth_family,
    norm,
    norm_rows,
    vector,
)

RHO_INF = "rho_inf"
RHO_PLUS = "rho_plus"
BIRKHOFF_JAMES = "bj"
SEMI = "semi"

RELATIONS = (RHO_INF, RHO_PLUS, BIRKHOFF_JAMES, SEMI)

DEFAULT_TOL = 1e-6  # one order above the worst-case functional error
EPS_FLOOR = 1e-300  # guards division in the zero-vector case

# Birkhoff-James minimizer: coarse polar grid, then simplex refinement
BJ_GRID_ANGLES = 64
BJ_GRID_MODULI = np.logspace(-6.0, 6.0, 25)
BJ_REFINE_DIAMETER = 1e-10


@dataclass(frozen=True)
class OrthoVerdict:
    """A boolean orthogonality decision with its residual and tolerance.

    orthogonal is exactly (residual <= tol).  converged=False marks a
    verdict built on a nonconverged functional value: treat it as
    unknown rather than as a definite answer.
    """

    orthogonal: bool
    residual: float
    tol: float
    relation: str
    converged: bool = True


def _relative(spec: NormSpec, fn, x, y, tol: float,
              relation: str) -> OrthoVerdict:
    """Verdict from the functional on unit-normalized inputs.

    All relations are invariant under nonzero scalings, so evaluating on
    x/|x|, y/|y| makes the residual |value|/(|x| |y|) directly and keeps
    extreme scales away from overflow.  Zero vectors are orthogonal to
    everything with residual zero.
    """
    x = vector(x)
    y = vector(y)
    nx = norm(spec, x)
    ny = norm(spec, y)
    if nx == 0.0 or ny == 0.0:
        return OrthoVerdict(True, 0.0, tol, relation, True)
    value = fn(spec, x / nx, y / ny)
    residual = abs(value.value)  # the |x| |y| denominator is exactly 1 here
    return OrthoVerdict(residual <= tol, residual, tol, relation,
                        value.converged)


def perp_rho_inf(spec: NormSpec, x, y, tol: float = DEFAULT_TOL) -> OrthoVerdict:
    return _relative(spec, rho_inf, x, y, tol, RHO_INF)


def perp_rho_plus(spec: NormSpec, x, y, tol: float = DEFAULT_TOL) -> OrthoVerdict:
    return _relative(spec, rho_plus, x, y, tol, RHO_PLUS)


def semi_inner(spec: NormSpec, u, v) -> FunctionalValue:
    """The unique semi-inner product [u, v] of a smooth norm.

    [u, v] = |v| F_v(u) built from the support functional
    F_v = f_v + i f_{iv} with f_v(u) = rho_plus(v, u)/|v|; by the phase
    rule rho_plus(iv, u) = rho_plus(v, -iu), so no norm of iv is needed.
    """
    if not is_smooth_family(spec):
        raise NotSmoothError(
            f"{spec.family!r} is not a smooth family; the semi-inner product "
            "is not unique and normlab refuses to pick one silently")
    u = vector(u)
    v = vector(v)
    if norm(spec, v) == 0.0:
        raise ZeroBaseError("semi-inner product requires a nonzero base point")
    a = rho_plus(spec, v, u)
    b = rho_plus(spec, v, -1j * u)
    return FunctionalValue(complex(a.value.real, b.value.real),
                           a.abs_error + b.abs_error,
                           a.path, a.converged and b.converged)


def perp_semi(spec: NormSpec, x, y, tol: float = DEFAULT_TOL) -> OrthoVerdict:
    """Semi-orthogonality x perp_s y, i.e. [y, x] = 0.

    Requires a nonzero base point x; y = 0 is orthogonal trivially.
    """
    x = vector(x)
    y = vector(y)
    nx = norm(spec, x)
    ny = norm(spec, y)
    if nx == 0.0:
        raise ZeroBaseError("perp_semi requires x != 0")
    if ny == 0.0:
        if not is_smooth_family(spec):
            raise NotSmoothError(f"{spec.family!r} is not a smooth family")
        return OrthoVerdict(True, 0.0, tol, SEMI, True)
    value = semi_inner(spec, y / ny, x / nx)
    return OrthoVerdict(abs(value.value) <= tol, abs(value.value), tol, SEMI,
                        value.converged)


def _nelder_mead(f, start, edges, xatol: float, maxfev: int = 2000):
    """Nelder-Mead over a complex scalar or a complex vector.

    The initial simplex is start and start + e for each edge e, one edge
    per real dimension: (s, 1j s) on the complex plane.  Standard
    reflection/expansion/inside-contraction/shrink coefficients; the run
    stops once every vertex lies within xatol of the best one (largest
    coordinate modulus) or after maxfev evaluations.  A function-value
    criterion is deliberately absent: at the kinked minima of non-smooth
    norms the value spread never collapses.  Returns the best
    (value, vertex).
    """
    # plain abs on scalars: np.abs(d).max() there slows the Birkhoff-James
    # minimizer by about a third
    size = abs if np.ndim(start) == 0 else (lambda d: np.abs(d).max())
    value = itemgetter(0)
    n = len(edges)
    simplex = [(f(p), p) for p in [start] + [start + e for e in edges]]
    fev = n + 1
    while fev < maxfev:
        simplex.sort(key=value)  # stable: ties keep their order
        f_best, best = simplex[0]
        f_worst, worst = simplex[n]
        if max([size(p - best) for _, p in simplex[1:]]) <= xatol:
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


def birkhoff_minimize(spec: NormSpec, x, y) -> tuple[float, complex]:
    """min over complex xi of |x + xi y|, with the minimizing xi.

    Two stages: a polar grid (64 angles x log-spaced moduli, plus xi = 0)
    to localize, then simplex refinement to 1e-10 diameter.  The grid
    stage guards the simplex against stalling on the kinks of a
    non-smooth norm.
    """
    x = vector(x)
    y = vector(y)
    check_dim(spec, x)
    check_dim(spec, y)
    nx = norm(spec, x)
    ny = norm(spec, y)
    if nx == 0.0 or ny == 0.0:
        return nx, 0j
    xu = x / nx
    yu = y / ny

    angles = np.exp(2j * np.pi * np.arange(BJ_GRID_ANGLES) / BJ_GRID_ANGLES)
    zs = np.concatenate([[0j], (BJ_GRID_MODULI[:, None] * angles[None, :]).ravel()])
    vals = norm_rows(spec, xu[None, :] + zs[:, None] * yu[None, :])
    k = int(np.argmin(vals))
    grid_val = float(vals[k])
    z0 = zs[k]

    # the kernel's norm on single vectors skips norm_rows' dimension check
    kernel_norm = spec.kernel.norm
    step = max(0.25 * abs(z0), 1e-3)
    best_val, best_z = _nelder_mead(lambda z: float(kernel_norm(xu + z * yu)),
                                    z0, (step, 1j * step), BJ_REFINE_DIAMETER)
    if grid_val < best_val:
        best_val, best_z = grid_val, z0
    m_star = nx * best_val
    xi_star = best_z * nx / ny
    return m_star, xi_star


def perp_birkhoff_james(spec: NormSpec, x, y,
                        tol: float = DEFAULT_TOL) -> OrthoVerdict:
    """x perp_B y iff xi = 0 already minimizes |x + xi y|.

    The residual is the relative drop (|x| - min)/|x|, clamped at zero:
    every evaluated point only over-estimates the true minimum, so a
    residual below tol certifies the verdict at that tolerance.
    """
    x = vector(x)
    y = vector(y)
    nx = norm(spec, x)
    ny = norm(spec, y)
    if nx == 0.0 or ny == 0.0:
        return OrthoVerdict(True, 0.0, tol, BIRKHOFF_JAMES, True)
    m_star, _ = birkhoff_minimize(spec, x, y)
    residual = max(0.0, (nx - m_star)) / max(nx, EPS_FLOOR)
    return OrthoVerdict(residual <= tol, residual, tol, BIRKHOFF_JAMES, True)


def decomposition_alpha(spec: NormSpec, x, y) -> complex:
    """The scalar alpha with x perp_{rho_inf} (alpha x + y).

    alpha = -conj(rho_inf(x, y)) / |x|^2; follows from the translation
    rule rho_inf(x, a x + y) = conj(a) |x|^2 + rho_inf(x, y).
    """
    x = vector(x)
    y = vector(y)
    nx = norm(spec, x)
    if nx == 0.0:
        raise ZeroBaseError("decomposition requires x != 0")
    v = rho_inf(spec, x, y)
    return -complex(v.value).conjugate() / nx**2


_VERDICTS = {
    RHO_INF: perp_rho_inf,
    RHO_PLUS: perp_rho_plus,
    BIRKHOFF_JAMES: perp_birkhoff_james,
    SEMI: perp_semi,
}


def perp(spec: NormSpec, relation: str, x, y,
         tol: float = DEFAULT_TOL) -> OrthoVerdict:
    """Dispatch to the named relation's verdict function."""
    if relation not in _VERDICTS:
        raise ValueError(f"unknown relation {relation!r}")
    return _VERDICTS[relation](spec, x, y, tol)


@dataclass(frozen=True)
class SamplerConfig:
    dim: int
    samples: int
    seed: int = 42
    tol: float = DEFAULT_TOL
    max_witnesses: int | None = None


@dataclass(frozen=True)
class Witness:
    """A pair orthogonal under relation_a but not under relation_b."""

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    relation_a: str
    relation_b: str
    residual_a: float
    residual_b: float
    seed: int
    index: int

    def to_record(self) -> dict:
        return {
            "relation_a": self.relation_a,
            "relation_b": self.relation_b,
            "x": format_cvector(self.x),
            "y": format_cvector(self.y),
            "residual_a": self.residual_a,
            "residual_b": self.residual_b,
            "seed": self.seed,
            "index": self.index,
        }


def _construct_pair(spec: NormSpec, relation: str, x: np.ndarray,
                    y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn a random pair into one satisfying the relation.

    rho_plus uses the real translation shift, rho_inf the decomposition
    scalar, semi the first-slot linearity of the s.i.p., and bj moves x
    to the minimizer of |x + xi y| (the minimizer is then orthogonal to
    the direction it was minimized along).
    """
    nx2 = norm(spec, x) ** 2
    if relation == RHO_PLUS:
        s = -rho_plus(spec, x, y).value.real / nx2
        return x, s * x + y
    if relation == RHO_INF:
        return x, decomposition_alpha(spec, x, y) * x + y
    if relation == SEMI:
        c = complex(semi_inner(spec, y, x).value) / nx2
        return x, y - c * x
    if relation == BIRKHOFF_JAMES:
        _, xi = birkhoff_minimize(spec, x, y)
        return x + xi * y, y
    raise ValueError(f"unknown relation {relation!r}")


def relation_compare(spec: NormSpec, relation_a: str, relation_b: str,
                     config: SamplerConfig) -> list[Witness]:
    """Search for pairs orthogonal under relation_a but not relation_b.

    Pairs are constructed per sample (see _construct_pair), re-verified
    under relation_a, and tested against relation_b.  An empty list means
    no witness was found, not a proof of inclusion.  Nonconverged
    verdicts on either side are skipped rather than counted.
    """
    if spec.dim != config.dim:
        raise DimensionMismatchError(
            f"config dim {config.dim} does not match spec dim {spec.dim}")
    witnesses: list[Witness] = []
    for index in range(config.samples):
        rng = rng_for(config.seed, index)
        x = complex_gaussian(rng, spec.dim)
        y = complex_gaussian(rng, spec.dim)
        if norm(spec, x) < 1e-8 or norm(spec, y) < 1e-8:
            continue
        a, b = _construct_pair(spec, relation_a, x, y)
        va = perp(spec, relation_a, a, b, config.tol)
        if not (va.orthogonal and va.converged):
            continue  # construction failed numerically; reject the sample
        vb = perp(spec, relation_b, a, b, config.tol)
        if vb.converged and not vb.orthogonal:
            witnesses.append(Witness(a, b, relation_a, relation_b,
                                     va.residual, vb.residual,
                                     config.seed, index))
            if (config.max_witnesses is not None
                    and len(witnesses) >= config.max_witnesses):
                break
    return witnesses
