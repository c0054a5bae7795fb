"""Orthogonality relations induced by the norm-derivative functionals.

Four relations are decided numerically:

* ``rho_inf``:  rho_inf(x, y) = 0
* ``rho_plus``: rho_plus(x, y) = 0
* ``bj``:       Birkhoff-James, |x| <= |x + xi y| for all complex xi,
  decided by min over t of rho_plus(x, e^{it} y) >= 0
* ``semi``:     [y, x] = 0 for the unique semi-inner product of a smooth
  norm (refused on non-smooth families, where the s.i.p. is not unique)

All residuals are normalized by |x| |y| so that one scale-free tolerance
applies; the zero-vector cases are orthogonal by convention with residual
zero.  relation_compare samples pairs satisfying one relation by direct
construction and reports the ones violating another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .derivatives import CLOSED_FORM, FunctionalValue, rho_plus
from .errors import DimensionMismatchError, NotSmoothError, ZeroBaseError
from .rho_infinity import rho_inf
from .sampling import complex_gaussian, rng_for
from .spaces import (
    NormSpec,
    check_dim,
    format_cvector,
    is_smooth_family,
    norm,
    vector,
)

RHO_INF = "rho_inf"
RHO_PLUS = "rho_plus"
BIRKHOFF_JAMES = "bj"
SEMI = "semi"

RELATIONS = (RHO_INF, RHO_PLUS, BIRKHOFF_JAMES, SEMI)

DEFAULT_TOL = 1e-6  # one order above the worst-case functional error

# a coordinate of a Birkhoff-James minimizer x + xi y at most this fraction
# of |x_k| + |xi y_k| is a cancellation, i.e. an exact zero lost to rounding
BJ_CANCEL_RTOL = 1e-13


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


def birkhoff_minimize(spec: NormSpec, x, y) -> tuple[float, complex]:
    """min over complex xi of |x + xi y|, with the minimizing xi.

    The spec's kernel finds xi on the unit-normalized pair: the orthogonal
    projection for pd, the weighted 1-center of the points -f_j x / f_j y
    for max-modulus norms, a data point -x_k/y_k where the criterion holds
    for weighted l1, and otherwise (smooth lp, interior l1 minima) damped
    Newton on sum_k w_k |x_k + xi y_k|^p.
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
    z = spec.kernel.bj_argmin(xu, yu)
    return nx * float(spec.kernel.norm(xu + z * yu)), z * nx / ny


def _bj_defect(spec: NormSpec, x, y) -> FunctionalValue:
    """How far rho_plus(x, e^{it} y) dips below zero over t."""
    return FunctionalValue(complex(max(0.0, -spec.kernel.bj_slope(x, y))),
                           0.0, CLOSED_FORM)


def perp_birkhoff_james(spec: NormSpec, x, y,
                        tol: float = DEFAULT_TOL) -> OrthoVerdict:
    """x perp_B y iff min over t of rho_plus(x, e^{it} y) >= 0.

    By convexity of s -> |x + s e^{it} y| (James 1947), xi = 0 minimizes
    |x + xi y| iff no one-sided slope from it is negative.  The residual
    is max(0, -min_t rho_plus(x, e^{it} y)) / (|x| |y|), first order in
    the distance from orthogonality like the other relations' residuals,
    and each kernel gives the minimum in closed form.
    """
    return _relative(spec, _bj_defect, x, y, tol, BIRKHOFF_JAMES)


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
    the direction it was minimized along).  A weighted l1 minimizer often
    has exact zeros, where its criterion is decided, so coordinates that
    cancel to rounding are set to 0.
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
        a = x + xi * y
        a[np.abs(a) <= BJ_CANCEL_RTOL * (np.abs(x) + np.abs(xi * y))] = 0
        return a, y
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
