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
construction and reports the ones violating another; it evaluates the
samples in stacked batches through the kernels' pairs methods, with the
same numbers as the single-pair functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .derivatives import CLOSED_FORM, FunctionalValue, rho_plus
from .errors import DimensionMismatchError, NotSmoothError, ZeroBaseError
from .rho_infinity import rho_inf
from .sampling import gaussian_draws, index_batches
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


def check_tol(tol: float) -> None:
    """Reject a verdict tolerance that is not a finite number >= 0.

    Against NaN or a negative tol no pair is orthogonal, and against inf
    every pair is, so an audit would report no witness either way.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


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

    Requires a nonzero base point x and a smooth norm; y = 0 is
    orthogonal trivially.
    """
    if norm(spec, vector(x)) == 0.0:
        raise ZeroBaseError("perp_semi requires x != 0")
    _check_smooth(spec)
    return _relative(spec, lambda s, xu, yu: semi_inner(s, yu, xu), x, y,
                     tol, SEMI)


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
    slope = spec.kernel.bj_slope_pairs(x[None], y[None]).item()
    return FunctionalValue(complex(max(0.0, -slope)), 0.0, CLOSED_FORM)


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


def construct_pairs(spec: NormSpec, relation: str, xs: np.ndarray,
                    ys: np.ndarray, nx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn random pairs, the rows of xs and ys, both nonzero, into pairs
    satisfying the relation; nx holds the norms of the rows of xs.

    rho_plus uses the real translation shift, rho_inf the decomposition
    scalar, semi the first-slot linearity of the s.i.p., and bj moves x
    to the minimizer of |x + xi y| (the minimizer is then orthogonal to
    the direction it was minimized along), found pair by pair.  A weighted
    l1 minimizer often has exact zeros, where its criterion is decided, so
    coordinates that cancel to rounding are set to 0.  The scalars are
    divided as Python divides a complex by a float, part by part; numpy
    would multiply by the reciprocal.
    """
    k = spec.kernel
    nx2 = np.float_power(nx, 2)  # as the float nx ** 2, which ** on arrays is not
    if relation == RHO_PLUS:
        s = -k.rho_plus_pairs(xs, ys) / nx2
        return xs, s[:, None] * xs + ys
    if relation == RHO_INF:
        v = k.rho_inf_pairs(xs, ys)
        alpha = np.empty_like(v)  # decomposition_alpha, -conj(v) / |x|^2
        alpha.real, alpha.imag = -v.real / nx2, v.imag / nx2
        return xs, alpha[:, None] * xs + ys
    if relation == SEMI:
        _check_smooth(spec)
        c = np.empty(len(xs), dtype=np.complex128)  # semi_inner(y, x) / |x|^2
        c.real = k.rho_plus_pairs(xs, ys) / nx2
        c.imag = k.rho_plus_pairs(xs, -1j * ys) / nx2
        return xs, ys - c[:, None] * xs
    if relation == BIRKHOFF_JAMES:
        # birkhoff_minimize's xi, in its Python arithmetic
        ny = k.norm(ys)
        xi = np.array([complex(k.bj_argmin(xu, yu)) * float(n1) / float(n2)
                       for xu, yu, n1, n2 in zip(xs / nx[:, None], ys / ny[:, None],
                                                 nx, ny)], dtype=np.complex128)
        shift = xi[:, None] * ys
        a = xs + shift
        a[np.abs(a) <= BJ_CANCEL_RTOL * (np.abs(xs) + np.abs(shift))] = 0
        return a, ys
    raise ValueError(f"unknown relation {relation!r}")


def _check_smooth(spec: NormSpec) -> None:
    if not is_smooth_family(spec):
        raise NotSmoothError(f"{spec.family!r} is not a smooth family")


def _finite(xs: np.ndarray) -> np.ndarray:
    """The stacked form of vector's check."""
    if not np.all(np.isfinite(xs)):
        raise ValueError("vector components must be finite (no NaN/Inf)")
    return xs


def _unit_pairs(spec: NormSpec, xs: np.ndarray, ys: np.ndarray):
    """x/|x| and y/|y| row by row, as _relative normalizes one pair after
    vector's check, and which rows have x = 0 and which y = 0."""
    check_dim(spec, xs)
    check_dim(spec, ys)
    nx = spec.kernel.norm(_finite(xs))
    ny = spec.kernel.norm(_finite(ys))
    return (xs / np.where(nx == 0.0, 1.0, nx)[:, None],
            ys / np.where(ny == 0.0, 1.0, ny)[:, None], nx == 0.0, ny == 0.0)


def _residuals(spec: NormSpec, relation: str, xu: np.ndarray, yu: np.ndarray,
               x_zero: np.ndarray, y_zero: np.ndarray) -> np.ndarray:
    """relation_residuals on the rows _unit_pairs gives."""
    if relation == SEMI and x_zero.any():
        raise ZeroBaseError("perp_semi requires x != 0")
    k = spec.kernel
    if relation == RHO_INF:
        v = k.rho_inf_pairs(xu, yu)
        r = np.hypot(v.real, v.imag)  # abs of a Python complex; np.abs is not
    elif relation == RHO_PLUS:
        r = np.abs(k.rho_plus_pairs(xu, yu))
    elif relation == BIRKHOFF_JAMES:
        s = -k.bj_slope_pairs(xu, yu)
        r = np.where(s > 0.0, s, 0.0)  # max(0.0, s)
    elif relation == SEMI:
        _check_smooth(spec)
        r = np.hypot(k.rho_plus_pairs(xu, yu), k.rho_plus_pairs(xu, -1j * yu))
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return np.where(x_zero | y_zero, 0.0, r)


def relation_residuals(spec: NormSpec, relation: str, xs: np.ndarray,
                       ys: np.ndarray) -> np.ndarray:
    """The residual of perp(spec, relation, x, y) for each row pair.

    Like _relative, it evaluates the relation on x/|x|, y/|y|, gives
    pairs with a zero vector residual zero, and refuses a zero base point
    for semi; every kernel evaluates in closed form, so every verdict is
    converged.  The residuals equal perp's bit for bit.
    """
    return _residuals(spec, relation, *_unit_pairs(spec, xs, ys))


def relation_compare(spec: NormSpec, relation_a: str, relation_b: str,
                     config: SamplerConfig) -> list[Witness]:
    """Search for pairs orthogonal under relation_a but not relation_b.

    Pairs are constructed per sample (see construct_pairs), re-verified
    under relation_a, and tested against relation_b.  An empty list means
    no witness was found, not a proof of inclusion.  Samples are evaluated
    in batches (see index_batches), doubling in size when max_witnesses
    is set; the result is that of evaluating index after index.
    """
    if spec.dim != config.dim:
        raise DimensionMismatchError(
            f"config dim {config.dim} does not match spec dim {spec.dim}")
    if config.samples < 1:
        raise ValueError(f"samples must be >= 1, got {config.samples}")
    check_tol(config.tol)
    if config.max_witnesses is not None and config.max_witnesses < 1:
        raise ValueError(
            f"max_witnesses must be >= 1, got {config.max_witnesses}")
    for relation in (relation_a, relation_b):
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
    tol = config.tol
    limit = config.max_witnesses
    witnesses: list[Witness] = []
    for batch in index_batches(config.samples, doubling=limit is not None):
        xs, ys = gaussian_draws(spec.dim, config.seed, (), batch)
        nx = spec.kernel.norm(xs)
        ny = spec.kernel.norm(ys)
        live = (nx >= 1e-8) & (ny >= 1e-8)
        a, b = construct_pairs(spec, relation_a, xs[live], ys[live], nx[live])
        units = _unit_pairs(spec, a, b)  # both verdicts judge the same pairs
        res_a = _residuals(spec, relation_a, *units)
        # a pair that fails relation_a after construction is rejected
        ok = np.flatnonzero(res_a <= tol)
        res_b = _residuals(spec, relation_b, *(u[ok] for u in units))
        index = np.asarray(batch)[live]
        for j, r in zip(ok, res_b):
            if r <= tol:
                continue
            witnesses.append(Witness(a[j].copy(), b[j].copy(), relation_a,
                                     relation_b, float(res_a[j]), float(r),
                                     config.seed, int(index[j])))
            if limit is not None and len(witnesses) >= limit:
                return witnesses
    return witnesses
