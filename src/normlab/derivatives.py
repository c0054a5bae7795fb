"""One-sided norm derivatives and the functionals built from them.

The right derivative is the one-sided limit

    rho_plus(x, y) = lim_{t -> 0+} (|x + t y|^2 - |x|^2) / (2 t)
                   = |x| lim_{t -> 0+} (|x + t y| - |x|) / t,

which exists for every norm by convexity.  The left derivative, the
Milicic mean, the lambda blend and its odd-root generalization are all
derived from it.

Every family's closed form (its kernel's rho_plus_pairs) is the default
path.  The convexity-exploiting numeric limit on a fixed step schedule
stays as an independent oracle behind force_path=NUMERIC_LIMIT.  It
differences norms and uses no derivative formula.  Differencing two
float64 norms would lose about eps/t to cancellation, so each difference
|x + t y| - |x| comes from the kernel's norm_steps, which takes it from
|x_k + t y_k|^2 - |x_k|^2 = 2t Re(conj(x_k) y_k) + t^2 |y_k|^2 and keeps
about eps of absolute error in the quotient at every step, in float64 on
every platform.
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

# step schedule t_j = 0.1 * 4^-j, down to about 6e-9; the truncation error
# of a quotient shrinks like t, while norm_steps keeps its rounding at
# about eps at every step
STEPS = 0.1 * 4.0 ** -np.arange(13)
GAP_TOL = 1e-9  # early-stop criterion on successive quotient gaps
NONCONVERGED_GAP = 1e-6  # final gap above this flags the value as unsettled

# the rounding of one difference quotient on unit x and y: against an
# extended-precision difference of norms, over every family in dims 1-4 and
# lp1.1, lp1.5 and lp7 with zero and 1e-200 coordinates, 3000 pairs each,
# norm_steps / t stayed within 3.7 eps beyond the reference's own rounding
QUOTIENT_ROUNDING = 8.0 * float(np.finfo(float).eps)


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


def _quotient_table(spec: NormSpec, x_units: np.ndarray,
                    y_units: np.ndarray) -> np.ndarray:
    """(|x + t_j y| - |x|) / t_j for every step t_j, every row x of x_units
    (n, d) and every direction y of that row in y_units (n, m, d), as a
    (steps, n, m) table, each within QUOTIENT_ROUNDING of the exact quotient
    of unit x and y (the kernel's norm_steps)."""
    steps = spec.kernel.norm_steps(x_units[:, None, :], y_units, STEPS)
    return steps / STEPS[:, None, None]


def _limit_quotients(spec: NormSpec, x_units: np.ndarray, y_units: np.ndarray):
    """Difference quotients of the norm at each row x of x_units (n, d)
    along each of its directions in y_units (n, m, d).

    Every x and every direction must already have unit norm.  Returns
    (values, abs_errors, converged), each an (n, m) float64 array.  The
    quotient g(t) is nondecreasing in t by convexity, so the step values
    decrease monotonically onto rho_plus; a direction stops early at the
    first gap below GAP_TOL, otherwise the smallest observed value is the
    best estimate (every quotient lies above the limit).
    """
    n, m = y_units.shape[:2]
    table = _quotient_table(spec, x_units, y_units)
    g64 = table.reshape(STEPS.size, n * m)
    gaps = np.abs(np.diff(g64, axis=0))
    hit = gaps < GAP_TOL
    stopped = hit.any(axis=0)
    first = np.argmax(hit, axis=0)
    cols = np.arange(n * m)
    min_idx = np.argmin(g64, axis=0)

    vals = np.where(stopped, g64[first + 1, cols], g64[min_idx, cols])
    trunc = np.where(stopped, gaps[first, cols], gaps[-1])
    errs = trunc + QUOTIENT_ROUNDING
    conv = stopped | (gaps[-1] <= NONCONVERGED_GAP)
    return vals.reshape(n, m), errs.reshape(n, m), conv.reshape(n, m)


def rho_plus_directions(spec: NormSpec, xs, ys, *,
                        force_path: str | None = None):
    """rho_plus(x_i, y) for each row x_i of xs (n, d) and each direction y
    of ys[i], where ys is (n, m, d).

    Returns (values, abs_errors, converged, path), the first three (n, m)
    arrays.  This is the shared engine behind the scalar functional, the
    roots-of-unity sums and the quadrature: rho_plus_rows is its one-row
    call.  The closed form is the kernel's rho_plus_pairs with each x
    broadcast against its directions: each x's side is computed once, and
    every entry has the bits of rho_plus(x, y) for that pair alone.  The
    numeric limit takes every pair in one pass over the step schedule.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    check_dim(spec, xs)
    check_dim(spec, ys)
    n, m, d = ys.shape

    path = CLOSED_FORM if force_path is None else force_path
    if path == CLOSED_FORM:
        vals = spec.kernel.rho_plus_pairs(xs[:, None, :], ys)
        return (vals, np.zeros((n, m)),
                ~np.zeros((n, m), dtype=bool), CLOSED_FORM)

    if path != NUMERIC_LIMIT:
        raise ValueError(f"unknown path {path!r}")

    nx = np.asarray(norm_rows(spec, xs), dtype=float)
    ny = np.asarray(norm_rows(spec, ys.reshape(n * m, d)), dtype=float).reshape(n, m)
    # rho_plus(0, y) = lim |t y|^2 / (2 t) = 0 directly from the definition,
    # and rho_plus(x, 0) = 0; such pairs are evaluated on a unit divisor and
    # set to 0 after
    live = (nx > 0.0)[:, None] & (ny > 0.0)
    nx = np.where(nx > 0.0, nx, 1.0)
    ny = np.where(live, ny, 1.0)
    # scale to unit norms, rescale after: rho_plus is positively homogeneous
    # in each slot
    v, e, c = _limit_quotients(spec, xs / nx[:, None], ys / ny[:, :, None])
    scale = nx[:, None] * ny
    return (np.where(live, v * scale, 0.0), np.where(live, e * scale, 0.0),
            c | ~live, NUMERIC_LIMIT)


def rho_plus_rows(spec: NormSpec, x, ys, *, force_path: str | None = None):
    """rho_plus(x, y) for every row y of ys: the one-row call of
    rho_plus_directions.  Returns (values, abs_errors, converged, path),
    the first three of length len(ys)."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    ys = np.atleast_2d(np.asarray(ys, dtype=np.complex128))
    vals, errs, conv, path = rho_plus_directions(spec, x[None], ys[None],
                                                 force_path=force_path)
    return vals[0], errs[0], conv[0], path


def rho_plus(spec: NormSpec, x, y, *, force_path: str | None = None) -> FunctionalValue:
    """Right norm derivative rho_plus(x, y)."""
    vals, errs, conv, path = rho_plus_rows(spec, x, vector(y)[None, :],
                                           force_path=force_path)
    return FunctionalValue(complex(vals[0], 0.0), float(errs[0]), path, bool(conv[0]))


def limit_quotient_tables(spec: NormSpec, xs, ys) -> np.ndarray:
    """The quotient sequence g(t_j) the numeric limit evaluates for each
    row pair of xs and ys (n, d), on unit-normalized inputs, as an
    (n, steps) array; a pair with x = 0 or y = 0 gets zeros.  Diagnostic:
    convexity makes each sequence nonincreasing along the (decreasing)
    step schedule, up to rounding noise.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    nx = np.asarray(norm_rows(spec, xs), dtype=float)
    ny = np.asarray(norm_rows(spec, ys), dtype=float)
    # a pair with x = 0 or y = 0 is evaluated on unit divisors, then zeroed
    live = (nx > 0.0) & (ny > 0.0)
    g = _quotient_table(spec, xs / np.where(live, nx, 1.0)[:, None],
                        (ys / np.where(live, ny, 1.0)[:, None])[:, None, :])
    return np.where(live[:, None], g[:, :, 0].T, 0.0)


def limit_quotient_table(spec: NormSpec, x, y) -> np.ndarray:
    """limit_quotient_tables on the one pair (x, y)."""
    return limit_quotient_tables(spec, vector(x)[None], vector(y)[None])[0]


# rounding allowance for monotonicity checks of the quotient table: the
# rounding of two quotient evaluations, the same at every step
QUOTIENT_NOISE = 2.0 * QUOTIENT_ROUNDING


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
