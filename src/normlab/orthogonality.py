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
zero.  Each residual, the decomposition scalar and the semi-inner parts
are written once, on stacked pairs; the verdicts, decomposition_alpha and
semi_inner are one-row calls.  relation_compare constructs pairs that
satisfy one relation and reports those violating another, by batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .derivatives import CLOSED_FORM, FunctionalValue
from .errors import DimensionMismatchError, NotSmoothError, ZeroBaseError
from .sampling import PAIRS_KEY, gaussian_draws, index_batches
from .spaces import (
    _TINY,
    NormSpec,
    _power_of_two_scaled,
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

    orthogonal is exactly (residual <= tol).  Every relation is decided
    in closed form, so converged is always True; it stays for callers
    that treat a nonconverged verdict as unknown.
    """

    orthogonal: bool
    residual: float
    tol: float
    relation: str
    converged: bool = True


def _verdict(spec: NormSpec, relation: str, x, y, tol: float) -> OrthoVerdict:
    """relation_residuals on the one row pair (x, y), as a verdict."""
    check_tol(tol)
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    y = np.asarray(y, dtype=np.complex128).reshape(1, -1)
    residual = float(relation_residuals(spec, relation, x, y)[0])
    return OrthoVerdict(residual <= tol, residual, tol, relation)


def perp(spec: NormSpec, relation: str, x, y,
         tol: float = DEFAULT_TOL) -> OrthoVerdict:
    """The named relation's verdict on the pair (x, y)."""
    return _verdict(spec, relation, x, y, tol)


def perp_rho_inf(spec: NormSpec, x, y, tol: float = DEFAULT_TOL) -> OrthoVerdict:
    return _verdict(spec, RHO_INF, x, y, tol)


def perp_rho_plus(spec: NormSpec, x, y, tol: float = DEFAULT_TOL) -> OrthoVerdict:
    return _verdict(spec, RHO_PLUS, x, y, tol)


def perp_semi(spec: NormSpec, x, y, tol: float = DEFAULT_TOL) -> OrthoVerdict:
    """Semi-orthogonality x perp_s y, i.e. [y, x] = 0.

    Requires a nonzero base point x and a smooth norm; y = 0 is
    orthogonal trivially.
    """
    return _verdict(spec, SEMI, x, y, tol)


def perp_birkhoff_james(spec: NormSpec, x, y,
                        tol: float = DEFAULT_TOL) -> OrthoVerdict:
    """x perp_B y iff min over t of rho_plus(x, e^{it} y) >= 0.

    By convexity of s -> |x + s e^{it} y| (James 1947), xi = 0 minimizes
    |x + xi y| iff no one-sided slope from it is negative.  The residual
    is max(0, -min_t rho_plus(x, e^{it} y)) / (|x| |y|), first order in
    the distance from orthogonality like the other relations' residuals,
    and each kernel gives the minimum in closed form.
    """
    return _verdict(spec, BIRKHOFF_JAMES, x, y, tol)


def _check_smooth(spec: NormSpec) -> None:
    if not is_smooth_family(spec):
        raise NotSmoothError(
            f"{spec.family!r} is not a smooth family; the semi-inner product "
            "is not unique and normlab refuses to pick one silently")


def _semi_parts(spec: NormSpec, xs: np.ndarray, ys: np.ndarray):
    """The real and imaginary parts of [y, x], row by row.

    [y, x] = |x| F_x(y) for the support functional F_x = f_x + i f_{ix}
    with f_x(y) = rho_plus(x, y)/|x|; by the phase rule
    rho_plus(ix, y) = rho_plus(x, -iy), so no norm of ix is needed.
    """
    _check_smooth(spec)
    k = spec.kernel
    return k.rho_plus_pairs(xs, ys), k.rho_plus_pairs(xs, -1j * ys)


def semi_inner(spec: NormSpec, u, v) -> FunctionalValue:
    """The unique semi-inner product [u, v] of a smooth norm."""
    _check_smooth(spec)
    u = vector(u)
    v = vector(v)
    check_dim(spec, u)
    if norm(spec, v) == 0.0:
        raise ZeroBaseError("semi-inner product requires a nonzero base point")
    re, im = _semi_parts(spec, v[None], u[None])
    return FunctionalValue(complex(re[0], im[0]), 0.0, CLOSED_FORM)


def _alpha(spec: NormSpec, xs: np.ndarray, ys: np.ndarray,
           nx2: np.ndarray) -> np.ndarray:
    """-conj(rho_inf(x, y)) / |x|^2 row by row, nx2 holding the |x|^2.

    The parts are divided one by one, as Python divides a complex by a
    float; numpy would multiply by the reciprocal.
    """
    v = spec.kernel.rho_inf_pairs(xs, ys)
    alpha = np.empty_like(v)
    alpha.real, alpha.imag = -v.real / nx2, v.imag / nx2
    return alpha


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
    check_dim(spec, y)
    return complex(_alpha(spec, x[None], y[None], nx**2)[0])


def birkhoff_minimize(spec: NormSpec, x, y) -> tuple[float, complex]:
    """min over complex xi of |x + xi y|, with the minimizing xi.

    A one-row call of the kernel's bj_argmin_pairs on the unit pair: the
    orthogonal projection for pd, the dual norm of (1, 0) on the rows (f_j
    x, f_j y) for max-modulus norms, a data point -x_k/y_k where the
    criterion holds for weighted l1, and otherwise (smooth lp, interior l1
    minima) damped Newton on sum_k w_k |x_k + xi y_k|^p.
    """
    x, y = vector(x), vector(y)
    nx, ny = norm(spec, x), norm(spec, y)
    xi = complex(_bj_argmin(spec, x[None], y[None], nx)[0]) if nx and ny else 0j
    return norm(spec, x + xi * y), xi


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
    the direction it was minimized along), birkhoff_minimize's xi from one
    stacked bj_argmin_pairs call.  A weighted l1 minimizer often has exact
    zeros, where its criterion is decided, so coordinates that cancel to
    rounding are set to 0.  The scalars are divided as Python divides a
    complex by a float, part by part; numpy would multiply by the
    reciprocal.
    """
    k = spec.kernel
    nx2 = np.float_power(nx, 2)  # as the float nx ** 2, which ** on arrays is not
    if relation == RHO_PLUS:
        s = -k.rho_plus_pairs(xs, ys) / nx2
        return xs, s[:, None] * xs + ys
    if relation == RHO_INF:
        return xs, _alpha(spec, xs, ys, nx2)[:, None] * xs + ys
    if relation == SEMI:
        re, im = _semi_parts(spec, xs, ys)
        c = np.empty(len(xs), dtype=np.complex128)  # [y, x] / |x|^2
        c.real, c.imag = re / nx2, im / nx2
        return xs, ys - c[:, None] * xs
    if relation == BIRKHOFF_JAMES:
        shift = _bj_argmin(spec, xs, ys, nx)[:, None] * ys
        a = xs + shift
        a[np.abs(a) <= BJ_CANCEL_RTOL * (np.abs(xs) + np.abs(shift))] = 0
        return a, ys
    raise ValueError(f"unknown relation {relation!r}")


def _bj_argmin(spec: NormSpec, xs: np.ndarray, ys: np.ndarray, nx) -> np.ndarray:
    """birkhoff_minimize's xi for each pair of nonzero rows, nx the norms
    of xs: the kernel's minimizer on the unit pair of _unit_pairs, times
    |x| / |y| part by part."""
    xu, yu, _, _ = _unit_pairs(spec, xs, ys)
    z, ny = spec.kernel.bj_argmin_pairs(xu, yu), spec.kernel.norm(ys)
    xi = np.empty_like(z)
    xi.real, xi.imag = z.real * nx / ny, z.imag * nx / ny
    return xi


def _unit_pairs(spec: NormSpec, xs: np.ndarray, ys: np.ndarray):
    """x/|x| and y/|y| row by row, after vector's finiteness check, and
    which rows have x = 0 and which y = 0.  numpy divides x by |x| as x
    times 1/|x|, which reads 0 or overflows unless |x| and 1/|x| are both
    normal; the rows are then scaled by powers of two first, which changes
    no bit of x/|x| on the rows where they are."""
    check_dim(spec, xs)
    check_dim(spec, ys)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("vector components must be finite (no NaN/Inf)")
    for scaled in (False, True):
        with np.errstate(over="ignore", invalid="ignore"):
            nx, ny = spec.kernel.norm(xs), spec.kernel.norm(ys)
        x_zero, y_zero = nx == 0.0, ny == 0.0
        dx, dy = nx + x_zero, ny + y_zero  # exactly the norms, or 1 on zero rows
        # all normal, with normal reciprocals (a NaN fails both tests)
        if scaled or (np.minimum(dx, dy).min(initial=1.0) >= _TINY
                      and np.maximum(dx, dy).max(initial=1.0) * _TINY <= 1.0):
            return xs / dx[:, None], ys / dy[:, None], x_zero, y_zero
        (xs, _), (ys, _) = _power_of_two_scaled(xs), _power_of_two_scaled(ys)


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
        r = np.hypot(*_semi_parts(spec, xu, yu))
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return np.where(x_zero | y_zero, 0.0, r)


def relation_residuals(spec: NormSpec, relation: str, xs: np.ndarray,
                       ys: np.ndarray) -> np.ndarray:
    """The residual of the relation for each row pair, i.e. its functional
    divided by |x| |y|.

    The relation is evaluated on x/|x|, y/|y|, which makes the residual
    the functional's modulus directly and keeps extreme scales away from
    overflow.  Pairs with a zero vector have residual zero, and a zero
    base point is refused for semi.  perp and the perp_* are one-row
    calls of this, and relation_compare judges its batches with it.
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
        xs, ys = gaussian_draws(spec.dim, config.seed, PAIRS_KEY, batch)
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
