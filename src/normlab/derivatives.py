"""One-sided norm derivatives and the functionals built from them.

The right derivative is the one-sided limit

    rho_plus(x, y) = lim_{t -> 0+} (|x + t y|^2 - |x|^2) / (2 t)
                   = |x| lim_{t -> 0+} (|x + t y| - |x|) / t,

which exists for every norm by convexity.  The left derivative, the
Milicic mean, the lambda blend and its odd-root generalization are all
derived from it.

Every family's closed form (its kernel's rho_plus_rows) is the default
path.  The convexity-exploiting numeric limit on a fixed step schedule
stays as an independent oracle behind force_path=NUMERIC_LIMIT.  Its
difference quotient is evaluated in extended precision when the platform
provides it, because |x + t y| - |x| loses roughly eps/t to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# all three path names stay importable from here, next to FunctionalValue.path
from .spaces import (
    CLOSED_FORM,
    NUMERIC_LIMIT,
    QUADRATURE,
    NormSpec,
    check_dim,
    norm_rows,
    vector,
)

# step schedule t_j = 0.1 * 4^-j; quartic shrinking balances cancellation
# (~eps/t) against truncation (~t); the last step stays above ~5e-9
STEPS = 0.1 * 4.0 ** -np.arange(13)
GAP_TOL = 1e-9  # early-stop criterion on successive quotient gaps
NONCONVERGED_GAP = 1e-6  # final gap above this flags the value as unsettled

_XDTYPE = np.clongdouble if np.finfo(np.longdouble).eps < 1e-18 else np.complex128
_XEPS = float(np.finfo(_XDTYPE).eps)


@dataclass(frozen=True)
class FunctionalValue:
    """A computed functional value with an error estimate.

    ``value`` has zero imaginary part for the real-valued functionals
    (rho_plus, rho_minus, rho, rho_lambda, rho_lambda_upsilon).
    ``converged`` is False when the defining limit did not settle below
    the flagging threshold; the value is then still the best estimate.
    """

    value: complex
    abs_error: float
    path: str
    converged: bool = True

    @property
    def real(self) -> float:
        return self.value.real


def _quotient_table(spec: NormSpec, x_unit: np.ndarray,
                    y_units: np.ndarray) -> np.ndarray:
    """(|x + t_j y| - |x|) / t_j for every step t_j (rows) and every row y
    of y_units (columns), evaluated in extended precision."""
    xs = x_unit.astype(_XDTYPE)
    ys = y_units.astype(_XDTYPE)
    base = norm_rows(spec, xs[None, :])[0]
    m = ys.shape[0]
    ts = STEPS.astype(np.finfo(_XDTYPE).dtype)
    # one flattened (steps x rows) norm evaluation instead of a step loop
    shifted = xs[None, None, :] + ts[:, None, None] * ys[None, :, :]
    norms = norm_rows(spec, shifted.reshape(STEPS.size * m, -1))
    return (norms.reshape(STEPS.size, m) - base) / ts[:, None]


def _limit_quotients(spec: NormSpec, x_unit: np.ndarray, y_units: np.ndarray):
    """Difference quotients of the norm along each row of y_units.

    Both x_unit and every row of y_units must already have unit norm.
    Returns (values, abs_errors, converged) per row, as float64 arrays.
    The quotient g(t) is nondecreasing in t by convexity, so the step
    values decrease monotonically onto rho_plus; a row stops early at the
    first gap below GAP_TOL, otherwise the smallest observed value is the
    best estimate (every quotient lies above the limit).
    """
    m = y_units.shape[0]
    g64 = np.asarray(_quotient_table(spec, x_unit, y_units), dtype=float)
    gaps = np.abs(np.diff(g64, axis=0))
    hit = gaps < GAP_TOL
    stopped = hit.any(axis=0)
    first = np.argmax(hit, axis=0)
    rows = np.arange(m)
    min_idx = np.argmin(g64, axis=0)

    vals = np.where(stopped, g64[first + 1, rows], g64[min_idx, rows])
    t_used = np.where(stopped, STEPS[first + 1], STEPS[min_idx])
    trunc = np.where(stopped, gaps[first, rows], gaps[-1])
    cancel_floor = 4.0 * _XEPS / t_used
    errs = trunc + cancel_floor
    conv = stopped | (gaps[-1] <= NONCONVERGED_GAP)
    return vals, errs, conv


def rho_plus_rows(spec: NormSpec, x, ys, *, force_path: str | None = None):
    """rho_plus(x, y) for every row y of ys.

    Returns (values, abs_errors, converged, path).  This is the shared
    engine behind the scalar functional, the roots-of-unity sums and the
    quadrature: a batch of directions costs one pass over the step
    schedule instead of one per direction.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    ys = np.atleast_2d(np.asarray(ys, dtype=np.complex128))
    check_dim(spec, x)
    check_dim(spec, ys)
    m = ys.shape[0]

    path = CLOSED_FORM if force_path is None else force_path
    if path == CLOSED_FORM:
        return (spec.kernel.rho_plus_rows(x, ys), np.zeros(m),
                np.ones(m, dtype=bool), CLOSED_FORM)

    if path != NUMERIC_LIMIT:
        raise ValueError(f"unknown path {path!r}")

    nx = float(norm_rows(spec, x[None, :])[0])
    nys = np.asarray(norm_rows(spec, ys), dtype=float)
    vals = np.zeros(m)
    errs = np.zeros(m)
    conv = np.ones(m, dtype=bool)
    if nx == 0.0:
        # rho_plus(0, y) = lim |t y|^2 / (2 t) = 0 directly from the definition
        return vals, errs, conv, NUMERIC_LIMIT
    live = nys > 0.0
    if live.any():
        # scale to unit norms, rescale after: rho_plus is positively
        # homogeneous in each slot
        yu = ys[live] / nys[live][:, None]
        v, e, c = _limit_quotients(spec, x / nx, yu)
        scale = nx * nys[live]
        vals[live] = v * scale
        errs[live] = e * scale
        conv[live] = c
    return vals, errs, conv, NUMERIC_LIMIT


def rho_plus(spec: NormSpec, x, y, *, force_path: str | None = None) -> FunctionalValue:
    """Right norm derivative rho_plus(x, y)."""
    vals, errs, conv, path = rho_plus_rows(spec, x, vector(y)[None, :],
                                           force_path=force_path)
    return FunctionalValue(complex(vals[0], 0.0), float(errs[0]), path, bool(conv[0]))


def limit_quotient_table(spec: NormSpec, x, y) -> np.ndarray:
    """The quotient sequence g(t_j) the numeric limit evaluates, on
    unit-normalized inputs.  Diagnostic: convexity makes it nonincreasing
    along the (decreasing) step schedule, up to rounding noise.
    """
    x = vector(x)
    y = vector(y)
    nx = float(norm_rows(spec, x[None, :])[0])
    ny = float(norm_rows(spec, y[None, :])[0])
    if nx == 0.0 or ny == 0.0:
        return np.zeros(STEPS.size)
    g = _quotient_table(spec, x / nx, (y / ny)[None, :])
    return np.asarray(g[:, 0], dtype=float)


# rounding allowance for monotonicity checks of the quotient table: the
# cancellation noise of one quotient evaluation at the smallest step
QUOTIENT_NOISE = 50.0 * _XEPS / float(STEPS[-1])


def rho_minus(spec: NormSpec, x, y, *, force_path: str | None = None) -> FunctionalValue:
    """Left norm derivative, via the exact identity rho_minus(x,y) = -rho_plus(x,-y)."""
    v = rho_plus(spec, x, -vector(y), force_path=force_path)
    return FunctionalValue(complex(-v.value.real, 0.0), v.abs_error, v.path, v.converged)


def _plus_minus(spec: NormSpec, x, y, force_path: str | None):
    """rho_plus(x, y), rho_minus(x, y) = -rho_plus(x, -y) and their two
    abs_errors from one engine pass over the rows y and -y, with their
    joint convergence and the path."""
    y = vector(y)
    vals, errs, conv, path = rho_plus_rows(spec, x, np.stack([y, -y]),
                                           force_path=force_path)
    return float(vals[0]), -float(vals[1]), errs, bool(conv.all()), path


def rho_milicic(spec: NormSpec, x, y, *, force_path: str | None = None) -> FunctionalValue:
    """Mean of the two one-sided derivatives."""
    p, m, errs, conv, path = _plus_minus(spec, x, y, force_path)
    return FunctionalValue(complex((p + m) / 2.0, 0.0), float(errs.sum()),
                           path, conv)


def rho_lambda(spec: NormSpec, x, y, lam: float, *,
               force_path: str | None = None) -> FunctionalValue:
    """Convex blend lam * rho_minus + (1 - lam) * rho_plus, lam in [0, 1]."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    p, m, errs, conv, path = _plus_minus(spec, x, y, force_path)
    return FunctionalValue(complex(lam * m + (1.0 - lam) * p, 0.0),
                           float(lam * errs[1] + (1.0 - lam) * errs[0]),
                           path, conv)


def rho_lambda_upsilon(spec: NormSpec, x, y, lam: float, k: int, *,
                       force_path: str | None = None) -> FunctionalValue:
    """Odd-root generalization of rho_lambda with upsilon = 1/(2k - 1).

    Powers of negative reals are taken as real odd roots (upsilon has odd
    denominator) and the complementary exponent 1 - upsilon has an even
    numerator, so a^upsilon b^(1-upsilon) = sign(a) |a|^upsilon |b|^(1-upsilon)
    is real for any signs of a and b.  At k = 1 the exponents collapse and
    the value equals rho_lambda exactly.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    a, b, errs, conv, path = _plus_minus(spec, x, y, force_path)
    ups = 1.0 / (2 * k - 1)
    term1 = np.sign(b) * abs(b) ** ups * abs(a) ** (1.0 - ups)
    term2 = np.sign(a) * abs(a) ** ups * abs(b) ** (1.0 - ups)
    return FunctionalValue(complex(lam * term1 + (1.0 - lam) * term2, 0.0),
                           float(errs.sum()), path, conv)
