"""Complex normed spaces on C^d: vectors, norm families, dual geometry.

Four norm families are supported:

* ``lp``   -- the p-norms, 1 <= p <= inf
* ``wl1``  -- weighted l1 norms with strictly positive weights
* ``pd``   -- norms induced by a Hermitian positive-definite Gram matrix
* ``poly`` -- polyhedral norms max_j |f_j(x)| over a separating family of
  complex covectors

Each is |M x|_p for an exponent p and a matrix M: lp is M = I, weighted
l1 p = 1 with M = diag(w), pd p = 2 with M the Cholesky factor A of G =
A^H A, and polyhedral p = inf with the functionals as the rows of M.
Since |x + t y| = |M x + t M y|_p, every functional of the norm is the
p-norm's on (M x, M y).  One core per exponent class (p = 1, p = 2, other
1 < p < inf, p = inf), picked by p in _core, gives the norm, its duality
map, the closed forms of rho_plus, rho_inf and the Birkhoff-James
criterion, a minimizer of |z + xi w| over xi, and the differences
|z + t w| - |z| of the numeric limit without cancellation.  Each spec's
Kernel is one object: p, M and M^-1, its core composed with M in _kernel,
and the dual map and dual norm, from M^-1 and the conjugate core, or for
a polyhedral M from one _polyhedral_dual solve.  A factory only validates
its parameters and gives M and the isometry, and no other module branches
on the family to compute a functional.

Every spec is immutable after construction and all functions here are pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError, SpecParseError

LP = "lp"
WEIGHTED_L1 = "wl1"
PD_INNER = "pd"
POLYHEDRAL = "poly"

FAMILIES = (LP, WEIGHTED_L1, PD_INNER, POLYHEDRAL)

# construction-time validation tolerance (PD eigenvalue check, rank check)
VALIDATION_TOL = 1e-10

# A(x), the functionals a max-modulus norm treats as attaining the maximum:
# |f_j x| >= (1 - TIE_RTOL) N(x).  This is far above the rounding of
# |f_j x| (a few ulps, also for ties built by 3x3 solves) and far below the
# gap between the two largest |f_j x| of any Gaussian draw.  Within it the
# one-sided limit sees both functionals at every step a numeric limit can
# resolve, so the near-tie is treated as a tie.
TIE_RTOL = 1e-12

# cap on each of the two Newton loops of the Birkhoff-James minimizer where
# the norm is smooth at the minimum (damped descent, then gradient polish);
# from the starts the kernels give, both stop after a few dozen steps
BJ_NEWTON_STEPS = 100

# computation paths of rho_plus and rho_inf
CLOSED_FORM = "closed_form"
NUMERIC_LIMIT = "numeric_limit"
QUADRATURE = "quadrature"


def vector(data) -> np.ndarray:
    """Validate and return a finite complex coordinate vector.

    Accepts any 1-D array-like; returns a read-only complex128 array.
    """
    arr = np.array(data, dtype=np.complex128, copy=True).reshape(-1)
    if arr.size < 1:
        raise ValueError("vector must have dimension >= 1")
    if not np.isfinite(arr).all():
        raise ValueError("vector components must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def _conjugate(p: float) -> float:
    """q with 1/p + 1/q = 1."""
    return np.inf if p == 1.0 else 1.0 if np.isinf(p) else p / (p - 1.0)


@dataclass(frozen=True)
class Core:
    """The p-norm on coordinates z, for one exponent class (see _core):
    the functions of Kernel at M = I.  norming(zs) is, row by row, J_p: the
    functional h with h . z = sum_k h_k z_k = |z|_p and |h|_q = 1 (q the
    conjugate exponent; 0 on zero rows), the gradient of the norm or, at a
    kink, one subgradient."""

    norm: Callable[[np.ndarray], np.ndarray]
    norming: Callable[[np.ndarray], np.ndarray]
    rho_plus_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rho_inf_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bj_slope_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bj_argmin: Callable[[np.ndarray, np.ndarray], complex]
    norm_steps: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Kernel:
    """One norm |M x|_p, bound to a spec's parameters: p, M (each family's
    is in the module docstring) and M^-1 (None for a polyhedral M, which
    has more rows than columns), the core of p composed with M by _kernel,
    and the dual geometry.  A functional g acts by g . x = sum_k g_k x_k,
    and q is the conjugate exponent of p.

    Since |x + t y| = |M x + t M y|_p, every function is the core's on the
    rows (M x, M y).  norm(xs) is the norm over the last axis of xs, for
    any leading shape.  norm_steps(xs, ys, ts) is |x + t y| - |x| for each
    t of the 1-D ts and each row pair of xs and ys, whose leading axes
    broadcast, as an array of shape ts.shape + that leading shape, taken
    without differencing two norms, so it keeps full float64 precision as
    t -> 0 (see _power_steps and _modulus_steps); the numeric limit
    divides it by t.  The three closed forms take stacked (n, d) pairs,
    row i of xs with row i of ys; rho_plus_pairs also broadcasts over
    leading axes, so xs of shape (n, 1, d) against ys of (n, m, d) gives
    an (n, m) array and computes each x's side (M x, and its gradient,
    support or active set) once.  rho_plus_pairs is the right derivative,
    rho_inf_pairs the angular average and bj_slope_pairs min over t of
    rho_plus(x, e^{it} y), which is >= 0 iff x is Birkhoff-James
    orthogonal to y (James 1947: t -> |x + t e^{is} y| is convex, so x
    minimizes along every complex direction iff no one-sided slope is
    negative).  They are the default path of every functional, and a
    single pair is a one-row call.  bj_argmin(x, y), for x and y of unit
    norm, is a complex xi minimizing |x + xi y|.  norming(xs) is the
    duality map J, J_p(M x) M: a functional h with h . x = |x| and dual
    norm 1 (0 on zero rows).  dual(gs) is the dual map J* with the dual
    norm: unit points x with g . x = sup over |x| <= 1 of |g . x|, M^-1
    J_q(g M^-1), and that sup, |g M^-1|_q; for a polyhedral M, whose dual
    norm is an l1 minimization with no closed form, both come from one
    _polyhedral_dual solve, to a certified duality gap.  Each row's value,
    of every function here, does not depend on the rows stacked with it,
    bit for bit.

    isometry(rng) is a linear map that preserves the norm, drawn from rng:
    coordinate phases for every family, then a coordinate permutation for
    lp, none for weighted l1 (it would have to permute the weights), the
    conjugate of a unitary into the Gram geometry for pd, and only a global
    phase for polyhedral norms.  smooth (in every dimension: 1 < p < inf)
    and r_dual, R(X*), follow from p and M^-1: R(X*) is 0 when smooth, 2
    for p = 1 or inf with an invertible M (the dual is l_inf or l_1 up to
    isometry), None when unknown (polyhedral).
    """

    p: float
    m: np.ndarray
    m_inv: np.ndarray | None
    norm: Callable[[np.ndarray], np.ndarray]
    rho_plus_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rho_inf_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bj_slope_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bj_argmin: Callable[[np.ndarray, np.ndarray], complex]
    norming: Callable[[np.ndarray], np.ndarray]
    norm_steps: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    isometry: Callable[[np.random.Generator], np.ndarray]

    @property
    def smooth(self) -> bool:
        return 1.0 < self.p < np.inf

    @property
    def r_dual(self) -> float | None:
        return 0.0 if self.smooth else None if self.m_inv is None else 2.0

    def dual(self, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.m_inv is None:
            return _polyhedral_dual(self.m, gs)
        core = _core(_conjugate(self.p))
        hs = _row_apply(gs, self.m_inv)
        return _row_apply(core.norming(hs), self.m_inv.T), core.norm(hs)


# Each row of a stacked evaluation must not depend on the rows stacked with
# it.  numpy computes a stacked (n, d) @ (d, m) product with other BLAS
# kernels than (1, d) @ (d, m), so products go row by row as stacks of
# (1, d) matrices, which numpy hands to BLAS one row at a time.


def _row_apply(xs: np.ndarray, mt: np.ndarray) -> np.ndarray:
    """xs @ mt over the last axis of xs, each row as its own (1, d) @ (d, m)
    product; a 1-D xs gives the same bits as xs @ mt."""
    return (xs[..., None, :] @ mt)[..., 0, :]


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as Python's abs of a complex gives it; np.abs differs in the
    last bit on about a third of the values."""
    return np.hypot(z.real, z.imag)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a_k b_k for each row pair, as one (1, d) @ (d, 1) product per
    row; the leading axes of a and b broadcast."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# --- norm steps: |z + t w| - |z| without cancellation -----------------------
#
# With a_k = |z_k| and r_k = |z_k + t w_k|, delta_k = r_k^2 - a_k^2 =
# 2t Re(conj(z_k) w_k) + t^2 |w_k|^2 is the sum of two terms that are small
# with t, not the difference of two that are not.  The cores take every
# difference of moduli, powers and norms from it, so a step keeps about
# eps t |w| of absolute error where differencing two norms loses eps |z|.


def _step_frame(zs: np.ndarray, ws: np.ndarray, ts: np.ndarray):
    """The arguments of a norm_steps call laid out coordinate first: z and w
    as contiguous (d, 1, ...) arrays and t as (1, k, 1, ...), so that
    elementwise results are (d, k, ...) and reduce over their first axis
    into the (k, ...) steps.  Each row pair is scaled by the power of two
    2^-e that brings the largest |z_k| and t |w_k| into [1/2, 1) (short of
    the subnormal range), so no square or power leaves the float range;
    the steps scale back by 2^e.  Returns (z, w, t, e) with e of the
    steps' leading shape."""
    a = np.abs(zs).max(axis=-1)
    b = np.abs(ws).max(axis=-1) * np.abs(ts).max()
    e = np.maximum(np.frexp(np.maximum(a, b))[1], -1021)
    s = np.ldexp(1.0, -e)[..., None]
    axes = (e.ndim, *range(e.ndim))
    z = np.ascontiguousarray((zs * s).transpose(axes))[:, None]
    w = np.ascontiguousarray((ws * s).transpose(axes))[:, None]
    return z, w, ts.reshape(1, -1, *(1,) * e.ndim), e


def _square_rise(z: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """delta_k = |z_k + t w_k|^2 - |z_k|^2 from its two terms."""
    c = 2.0 * (z.real * w.real + z.imag * w.imag)
    return t * (c + t * (w.real * w.real + w.imag * w.imag))


def _modulus_steps(zs, ws, ts, reduce):
    """reduce(rise, z, a), scaled back, for each t and row pair: the steps
    of the abs-sum and max-modulus norms.  rise is r_k - a_k = delta_k /
    (r_k + a_k) (0 where both moduli are 0), on the frame of _step_frame,
    and z and a are the scaled z_k and a_k."""
    z, w, t, e = _step_frame(zs, ws, ts)
    a = np.abs(z)
    den = np.abs(z + t * w) + a
    rise = _square_rise(z, w, t) / (den + (den == 0))
    return np.ldexp(reduce(rise, z, a), e)


def _modulus_gaps(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a_k - N over the first axis, N = max_k a_k, as (a_k^2 - N^2) / (a_k +
    N) with the squares exact to about eps^2 N^2: a_k - N read off the
    rounded moduli would carry half an ulp of N, which a step at a near
    tie of a max-modulus norm, of size t |w|, cannot absorb."""
    hi, lo = _square_modulus(z)
    hi_n = hi.max(axis=0)
    # with the largest lo among the largest hi, hi_n + lo_n is N^2
    lo_n = np.where(hi == hi_n, lo, -np.inf).max(axis=0)
    den = a + a.max(axis=0)
    # hi - hi_n is exact where the two are within a factor of 2; 0 on z = 0
    return ((hi - hi_n) + (lo - lo_n)) / (den + (den == 0))


def _square_modulus(z: np.ndarray):
    """|z|^2 as an unevaluated sum hi + lo, without a fused multiply-add:
    Dekker's exact squares of the two parts and Knuth's exact sum of the
    two, for |z| well inside the float range."""
    parts = np.stack((z.real, z.imag))
    sq = parts * parts
    # Dekker: parts split into halves of 26 bits, whose products are exact
    c = 134217729.0 * parts  # 2^27 + 1
    h = c - (c - parts)
    low = parts - h
    sq_err = ((h * h - sq) + 2.0 * h * low) + low * low
    xx, yy = sq
    hi = xx + yy
    b = hi - xx
    return hi, ((xx - (hi - b)) + (yy - b)) + (sq_err[0] + sq_err[1])


def _power_steps(zs, ws, ts, p: float):
    """N(z + t w) - N(z) for the p-norm, 1 < p < inf, for each t and row
    pair, from

        r_k^p - a_k^p = a_k^p expm1((p/2) log1p(delta_k / a_k^2)),
        N(z + t w) - N(z) = N expm1(log1p(D / N^p) / p),

    with D the sum of the first over k.  Each is taken where its ratio,
    delta_k / a_k^2 or D / N^p, lies in [-3/4, 3]; elsewhere the two
    powers, or the two norms, differ by at least a factor 4^(1/p), and
    their direct difference loses no more than about 10 ulps.  A ratio is
    read off a reciprocal that is 0 on a base below _STEP_TINY (such as a
    zero coordinate, or a zero z), whose term is then taken directly.
    """
    z, w, t, e = _step_frame(zs, ws, ts)
    a = np.abs(z)
    ap = a**p
    q, direct = _bounded_ratio(_square_rise(z, w, t), a * a)
    terms = ap * np.expm1((0.5 * p) * np.log1p(q))
    if direct.any():
        terms = np.where(direct, np.abs(z + t * w) ** p - ap, terms)
    # an array also for a single pair: ** of a numpy scalar takes libm's
    # pow, which may differ in the last bit from the array's
    base = ap.sum(axis=0)
    big = base ** (1.0 / p)
    q, direct = _bounded_ratio(terms.sum(axis=0), base)
    steps = big * np.expm1(np.log1p(q) / p)
    if direct.any():
        at = np.nonzero(direct)
        zk = np.moveaxis(z[:, 0], 0, -1)[at[1:]]
        wk = np.moveaxis(w[:, 0], 0, -1)[at[1:]]
        steps[at] = _power_norm(zk + ts[at[0], None] * wk, p) - _power_norm(zk, p)
    return np.ldexp(steps, e)


# bases below this take their step directly: on the scaled rows of
# _step_frame the ratios stay below 3 / _STEP_TINY, far from overflow
_STEP_TINY = 2.0 ** -1000


def _bounded_ratio(rise: np.ndarray, base: np.ndarray):
    """rise / base, clipped to [-3/4, 3], and the mask where it was not in
    that range or base < _STEP_TINY: there the caller takes the step
    directly."""
    small = base < _STEP_TINY
    q = rise * (1.0 / np.where(small, 1.0, base) * ~small)
    clipped = np.minimum(np.maximum(q, -0.75), 3.0)
    return clipped, (clipped != q) | small


def _phases(rng: np.random.Generator, dim: int) -> np.ndarray:
    """dim uniform unit phases: the first draws of every isometry."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))


def _permuted_phases(dim: int):
    """The isometry of a norm symmetric under coordinate phases and
    permutations (lp): random phases, then a random permutation."""
    def isometry(rng):
        phases = _phases(rng, dim)
        return np.diag(phases)[:, rng.permutation(dim)]
    return isometry


# --- the four cores; _core picks one by the exponent ------------------------


@cache
def _core(p: float) -> Core:
    """The core of the p-norm: the one place where the exponent picks the
    closed forms.  The cores are shared by every spec of that p."""
    if p == 1.0:
        return _abs_sum_core()
    if p == 2.0:
        return _euclidean_core()
    if np.isinf(p):
        return _max_modulus_core()
    return _power_core(p)


def _kernel(p: float, m, m_inv, isometry) -> Kernel:
    """The norm |M x|_p: the core of p composed with M, the one place where
    M meets the core.  M is skipped where it equals the identity, so those
    kernels bind the core's own functions, except in norming, whose
    products with M set the signs of its zeros.  A real diagonal M acts as
    the elementwise product with its diagonal, which gives the values of
    the row-by-row product; only a zero may keep its sign -0 where the
    product's sum of zeros gives +0, and no function reads that sign."""
    p, m = float(p), _frozen(m)
    m_inv = None if m_inv is None else _frozen(m_inv)
    core, mt = _core(p), m.T

    if np.array_equal(m, np.eye(len(m))):
        def norming(xs):
            return _row_apply(core.norming(_row_apply(xs, mt)), m)

        return Kernel(p, m, m_inv, core.norm, core.rho_plus_pairs, core.rho_inf_pairs,
                      core.bj_slope_pairs, core.bj_argmin, norming, core.norm_steps,
                      isometry)

    # image(xs) is M x and pull(hs) is h M, row by row
    diag = np.diag(m).real
    if np.array_equal(m, np.diag(diag)):
        def image(xs):
            return xs * diag

        pull = image
    else:
        def image(xs):
            return _row_apply(xs, mt)

        def pull(hs):
            return _row_apply(hs, m)

    def on_images(f):
        return lambda xs, ys: f(image(xs), image(ys))

    return Kernel(p, m, m_inv, lambda xs: core.norm(image(xs)),
                  on_images(core.rho_plus_pairs), on_images(core.rho_inf_pairs),
                  on_images(core.bj_slope_pairs), on_images(core.bj_argmin),
                  lambda xs: pull(core.norming(image(xs))),
                  lambda xs, ys, ts: core.norm_steps(image(xs), image(ys), ts), isometry)


def _abs_sum_core() -> Core:
    """sum_k |z_k|, p = 1."""

    def norm(zs):
        return np.abs(zs).sum(axis=-1)

    def parts(zs):
        """Row by row: N(z), the support of z and conj(z_k)/|z_k| on it (0
        off it)."""
        az = np.abs(zs)
        support = az > 0
        coef = np.where(support, zs.conj() / np.where(support, az, 1.0), 0)
        return az.sum(axis=-1), support, coef

    # rho_plus(z,w) = |z| ( sum_{z_k != 0} Re(conj(z_k) w_k)/|z_k|
    #                       + sum_{z_k == 0} |w_k| )
    def rho_plus_pairs(zs, ws):
        nz, support, coef = parts(zs)
        off = np.where(support, 0.0, np.abs(ws)).sum(axis=-1)
        return nz * (_row_dot(ws, coef).real + off)

    def rho_inf_pairs(zs, ws):
        # |z|_1 * sum over the support of z of z_k conj(w_k) / |z_k|
        az = np.abs(zs)
        support = az > 0
        terms = zs * ws.conj() / np.where(support, az, 1.0)
        return az.sum(axis=-1) * np.where(support, terms, 0).sum(axis=-1)

    def bj_slope_pairs(zs, ws):
        # w -> e^{it} w turns the support term of rho_plus, of modulus
        # |rho_inf|, while the off-support term N(z) sum |w_k| stays
        az = np.abs(zs)
        off = np.where(az > 0, 0.0, np.abs(ws)).sum(axis=-1)
        v = rho_inf_pairs(zs, ws)
        return az.sum(axis=-1) * off - np.hypot(v.real, v.imag)

    def bj_argmin(z, w):
        # |z + xi w| = sum_k |w_k| |xi - c_k| + const, c_k = -z_k/w_k: a
        # weighted Fermat-Weber problem, minimized at a data point c_k
        # exactly when the criterion holds there with z_k + c_k w_k = 0
        live = np.flatnonzero(w)
        cs = -z[live] / w[live]
        points = z + cs[:, None] * w
        points[np.arange(live.size), live] = 0
        vals = norm(points)
        k = int(np.argmin(vals))
        zk, wk = points[k][None], w[None]
        if bj_slope_pairs(zk, wk).item() >= -TIE_RTOL * vals[k]:
            return complex(cs[k])
        # the minimizer is interior, where the norm is smooth; start just
        # off the kink at c_k, downhill: there the other terms have the
        # gradient rho_inf(z', w)/|z'|, and it outweighs the k-th term
        g = rho_inf_pairs(zk, wk).item()
        start = cs[k] - 1e-8 * (1.0 + abs(cs[k])) * g / abs(g)
        return _power_sum_argmin(z, w, 1.0, start)

    def norm_steps(zs, ws, ts):
        return _modulus_steps(zs, ws, ts, lambda rise, z, a: rise.sum(axis=0))

    return Core(norm, lambda zs: parts(zs)[2], rho_plus_pairs, rho_inf_pairs,
                bj_slope_pairs, bj_argmin, norm_steps)


def _max_modulus_core() -> Core:
    """max_k |z_k|, p = inf.

    With A(z) the active coordinates (see TIE_RTOL) and u_k the phase of
    z_k, rho_plus(z, w) = N(z) max_{k in A(z)} Re(conj(u_k) w_k).  Along
    w -> e^{it} w the integrand of rho_inf is the upper envelope of the
    sinusoids Re(c_k e^{it}), c_k = conj(u_k) w_k, and integrates exactly.
    N(z) times the envelope's minimum, which is -dist(0, conv{c_k}) when 0
    lies outside the hull, is the Birkhoff-James slope.

    rho_plus_pairs is one max over the stacked rows, with the inactive
    coordinates masked out.  rho_inf_pairs and bj_slope_pairs loop over
    the rows: the envelope has a different number of pieces on every row.
    """

    def norm(zs):
        return np.abs(zs).max(axis=-1)

    def norming(zs):
        # the first largest coordinate alone
        a = np.abs(zs)
        sgn = zs.conj() / np.where(a > 0, a, 1.0)
        first = np.argmax(a, axis=-1)[..., None]
        return np.where(np.arange(a.shape[-1]) == first, sgn, 0)

    def active(zs, ws):
        """Row by row: N(z) as an (n, 1) column, the mask of A(z) and
        c_k = conj(u_k) w_k."""
        mod = np.abs(zs)
        nz = mod.max(axis=-1, keepdims=True)
        # a zero z_k gets the phase 0, so at z = 0 every closed form is 0
        c = zs.conj() / (mod + (mod == 0)) * ws
        return nz, mod >= nz * (1.0 - TIE_RTOL), c

    def rho_plus_pairs(zs, ws):
        nz, act, c = active(zs, ws)
        return nz[..., 0] * np.where(act, c.real, -np.inf).max(axis=-1)

    def rho_inf_pairs(zs, ws):
        nz, act, c = active(zs, ws)
        out = np.empty(len(nz), dtype=np.complex128)
        for i in range(len(nz)):
            out[i] = nz[i, 0] * _envelope_integral(c[i][act[i]]) / np.pi
        return out

    def bj_slope_pairs(zs, ws):
        nz, act, c = active(zs, ws)
        out = np.empty(len(nz))
        for i in range(len(nz)):
            out[i] = nz[i, 0] * _envelope_min(c[i][act[i]])
        return out

    def bj_argmin(z, w):
        live = w != 0  # z_k + xi w_k does not move with xi elsewhere
        cs = _one_center_candidates(-z[live] / w[live], np.abs(w[live]))
        return complex(cs[np.argmin(np.abs(z + cs[:, None] * w).max(axis=1))])

    def norm_steps(zs, ws, ts):
        # the largest of (a_k - N) + (r_k - a_k) over k
        return _modulus_steps(
            zs, ws, ts, lambda rise, z, a: (rise + _modulus_gaps(z, a)).max(axis=0))

    return Core(norm, norming, rho_plus_pairs, rho_inf_pairs, bj_slope_pairs, bj_argmin,
                norm_steps)


def _one_center_candidates(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Every point that can minimize max_j r_j |xi - z_j| over complex xi.

    The minimizer of this weighted 1-center problem is fixed by at most
    three of the points: it is a z_j, the point (r_j z_j + r_k z_k)/(r_j +
    r_k) of a segment where two weighted distances agree, or a point where
    three agree, on two Apollonius circles.  For the triple (i, j, k), with
    d = z - z_i and xi = z_i + e, s_i |e|^2 = s_j |e - d_j|^2 (s = r^2) is
    linear in e and q = |e|^2; solving both for e gives e = P - q C, and
    q = |P - q C|^2 is a quadratic in q.  Candidates that do not exist
    (collinear points) come out non-finite and are dropped.
    """
    iu, ju = np.triu_indices(z.size, 1)
    pairs = (r[iu] * z[iu] + r[ju] * z[ju]) / (r[iu] + r[ju])
    tri = np.array(list(combinations(range(z.size), 3)), dtype=int).reshape(-1, 3)
    s = r * r
    i, j, k = tri.T
    dj = z[j] - z[i]
    dk = z[k] - z[i]
    cj = s[i] / s[j] - 1.0
    ck = s[i] / s[k] - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # e = i (r_k d_j - r_j d_k) / (2 Im(conj(d_j) d_k)) solves
        # 2 Re(conj(d) e) = r_d for the right-hand sides r_j, r_k
        den = 2.0 * (dj.conj() * dk).imag
        p = 1j * (np.abs(dk) ** 2 * dj - np.abs(dj) ** 2 * dk) / den
        c = 1j * (ck * dj - cj * dk) / den
        cc = np.abs(c) ** 2
        half_b = (p.conj() * c).real + 0.5
        root = np.sqrt(np.maximum(half_b**2 - cc * np.abs(p) ** 2, 0.0))
        big = half_b + np.copysign(root, half_b)  # no cancellation
        qs = np.concatenate((big / cc, np.abs(p) ** 2 / big))
        triples = np.tile(z[i] + p, 2) - qs * np.tile(c, 2)
    zs = np.concatenate((z, pairs, triples))
    return zs[np.isfinite(zs)]


def _envelope_integral(c: np.ndarray) -> complex:
    """Integral over [0, 2 pi] of e^{it} max_j Re(c_j e^{it}) dt, exactly.

    Re(c_j e^{it}) and Re(c_k e^{it}) cross where Re((c_j - c_k) e^{it})
    = 0, at t = pi/2 - arg(c_j - c_k) and pi apart, which the ordered pair
    (k, j) gives.  Between consecutive crossings one sinusoid is on top,
    and over [a, b] e^{it} Re(c e^{it}) integrates to
    conj(c) (b - a)/2 + c (e^{2ib} - e^{2ia})/(4i).  With one active
    functional the integral is pi conj(c).
    """
    if c.size == 1:
        return np.pi * c[0].conjugate()
    # repeated cuts only add pieces of length 0, which integrate to 0
    cuts = np.sort(np.concatenate(([0.0, 2.0 * np.pi], _crossings(c))))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    top = c[np.argmax((np.exp(1j * mids)[:, None] * c).real, axis=1)]
    return (0.5 * (top.conj() @ np.diff(cuts))
            + (top @ np.diff(np.exp(2j * cuts))) / 4j)


def _envelope_min(c: np.ndarray) -> float:
    """min over t of max_j Re(c_j e^{it}).  On each piece of the envelope
    one sinusoid is on top, so the minimum is at a trough pi - arg(c_j) or
    at a crossing."""
    t = np.concatenate((np.pi - np.angle(c), _crossings(c)))
    return (np.exp(1j * t)[:, None] * c).real.max(axis=1).min()


def _crossings(c: np.ndarray) -> np.ndarray:
    """The angles in [0, 2 pi) where two of the sinusoids Re(c_j e^{it})
    cross: t = pi/2 - arg(c_j - c_k), pi apart for the pair (k, j)."""
    d = (c[:, None] - c[None, :]).ravel()
    return (0.5 * np.pi - np.angle(d[d != 0])) % (2.0 * np.pi)


# --- the polyhedral dual -----------------------------------------------------

# the barrier method multiplies t by DUAL_BARRIER_MU at each Newton step up
# to DUAL_BARRIER_T times its first t (a duality gap of about m / DUAL_BARRIER_T
# of the value, for m functionals); DUAL_STEPS caps each Newton loop.  Over
# 20,000 functionals on each of eight polyhedral norms (dims 1-4, 3-10
# functionals; a tenth with a zero coordinate, a tenth real) every value was
# certified to 1e-12; on 4,000 per norm the barrier took at most 27 steps
# and the KKT loop 7.  Stopping at 1e4 left 1 of 80,000 uncertified
DUAL_BARRIER_T = 1e5
DUAL_BARRIER_MU = 5.0
DUAL_STEPS = 60
# the KKT equations are settled once no residual exceeds DUAL_KKT_RTOL (c
# scaled to a largest entry of 1), which also marks multipliers negative (of
# their sum) and functionals violated; DUAL_KKT_SHIFT (of the multipliers'
# sum) keeps the KKT matrix invertible on a face of maximizers
DUAL_KKT_RTOL = 1e-14
DUAL_KKT_SHIFT = 1e-10


def _polyhedral_dual(f: np.ndarray, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row of gs, the dual map and dual norm of max_k |f_k x| (f_k
    the rows of f): a unit x maximizing Re(g x), and Re(g x) (0 on zero rows).

    With u = (Re x, Im x), f_k x has the parts B_k u and Re(g x) = c . u,
    a second-order cone program dual to min sum |lambda_k| subject to sum
    lambda_k f_k = g.  A log-barrier Newton method (Boyd and Vandenberghe,
    Convex Optimization, 2004, ch. 11) minimizes -t c . u - sum log s_k,
    s_k = 1 - |B_k u|^2, from u = 0 and a first t of Newton decrement 1;
    the barrier is self-concordant, so steps 1 / (1 + decrement) stay
    inside.  Its multipliers mu_k = 2 / (t s_k), c = sum mu_k B_k^T B_k u,
    above sqrt(2 sum mu / t), between the active and inactive scales, give
    the active set, and Newton's method on its KKT equations settles u and
    mu to rounding.  A settled point drops its most negative multiplier,
    else adds a violated functional; a step that would violate one is not
    taken and adds it.  Additions go by the barrier's mu_k, largest first,
    and start from it: the step of a set that lacks one is no guide.
    lambda_k = mu_k conj(f_k x) certify the value: sum |lambda_k| = c . u.
    """
    (m, d), n = f.shape, len(gs)
    e = 2 * d  # the dimension of u
    b = np.stack((np.hstack((f.real, -f.imag)), np.hstack((f.imag, f.real))), axis=1)
    bt = b.reshape(2 * m, e).T
    pk = (b.transpose(0, 2, 1) @ b).reshape(m, -1)  # B_k^T B_k, flattened
    c = np.concatenate((gs.real, -gs.imag), axis=-1)
    live = c.any(axis=-1)
    c = c / np.where(live, np.abs(c).max(axis=-1), 1.0)[:, None]
    eye = np.eye(m, dtype=bool)

    def parts(u):
        """|f_k x|^2 and B_k^T B_k u, for each k."""
        w = _row_apply(u, bt).reshape(n, m, 1, 2)
        return (w * w).sum(axis=-1)[..., 0], (w @ b)[..., 0, :]

    def pick(mask, key):
        """Per row, the entry of mask with the largest key (rows with one)."""
        return eye[np.argmax(np.where(mask, key, -np.inf), axis=1)] & mask.any(axis=1)[:, None]

    h0c = np.linalg.solve(2.0 * (bt @ bt.T), c[..., None])[..., 0]  # the Hessian at 0
    t = 1.0 / np.sqrt(np.where(live, _row_dot(c, h0c), 1.0))
    t_end, u, done = DUAL_BARRIER_T * t, np.zeros((n, e)), ~live
    for _ in range(DUAL_STEPS):
        if done.all():
            break
        q, g = parts(u)
        r = 1.0 / (1.0 - q)
        g = g * r[..., None]
        grad = 2.0 * g.sum(axis=1) - t[:, None] * c
        hess = _row_apply(2.0 * r, pk).reshape(n, e, e) + 4.0 * (g.transpose(0, 2, 1) @ g)
        du = np.linalg.solve(hess, -grad[..., None])[..., 0]
        lam = np.sqrt(np.maximum(-_row_dot(grad, du), 0.0))
        u = u + np.where(done, 0.0, 1.0 / (1.0 + lam))[:, None] * du
        done = done | ((lam < 1.0) & (t == t_end))
        t = np.minimum(DUAL_BARRIER_MU * t, t_end)

    q, g = parts(u)
    rank = 2.0 / (t[:, None] * (1.0 - q))
    total = rank.sum(axis=1)[:, None]
    active = rank * rank * t[:, None] >= 2.0 * total
    mu, done = np.where(active, rank, 0.0), ~live
    kkt = np.zeros((n, e + m, e + m))  # unknowns (u, mu), inactive mu_k held at 0
    for _ in range(DUAL_STEPS):
        res = np.concatenate(((mu[..., None] * g).sum(axis=1) - c,
                              np.where(active, 0.5 * (q - 1.0), mu)), axis=1)
        ga = np.where(active[..., None], g, 0.0)
        kkt[:, :e, :e] = _row_apply(mu + DUAL_KKT_SHIFT * total, pk).reshape(n, e, e)
        kkt[:, e:, :e], kkt[:, :e, e:] = ga, ga.transpose(0, 2, 1)
        kkt[:, e:, e:] = eye * np.where(active, -DUAL_KKT_SHIFT / total, 1.0)[:, None, :]
        step = np.linalg.solve(kkt, -res[..., None])[..., 0]
        new_q, new_g = parts(u + step[:, :e])
        settled = (np.abs(res).max(axis=1) <= DUAL_KKT_RTOL)[:, None]
        neg = active & (mu < -DUAL_KKT_RTOL * total)
        drop = pick(neg, -mu) & settled
        add = pick(~active & (np.where(settled, q, new_q) > 1.0 + DUAL_KKT_RTOL), rank)
        add = add & ~drop.any(axis=1)[:, None]
        done = done | (settled[:, 0] & ~(drop | add).any(axis=1))
        if done.all():
            break
        drop, add = drop & ~done[:, None], add & ~done[:, None]
        move = ~done[:, None] & ~settled & ~add.any(axis=1)[:, None]
        active = (active & ~drop) | add
        u = np.where(move, u + step[:, :e], u)
        mu = np.where(move, mu + step[:, e:], np.where(add, rank, np.where(drop, 0.0, mu)))
        q, g = np.where(move, new_q, q), np.where(move[..., None], new_g, g)

    z = u[:, :d] + 1j * u[:, d:]
    x = z / np.where(live, _core(np.inf).norm(_row_apply(z, f.T)), 1.0)[:, None]
    return x, _row_dot(gs, x).real


def _power_sum_argmin(x, y, p: float, start: complex) -> complex:
    """argmin over xi of F(xi) = sum_k |x_k + xi y_k|^p, p >= 1, where F is
    smooth at the minimizer: the Birkhoff-James minimizer of l1 (p = 1)
    and of the p-norms.

    Damped Newton from start: each step is halved until F decreases.  Near
    the minimizer the values of F agree to rounding while the gradient,
    which the first-order Birkhoff-James criterion reads, is still about
    sqrt(eps) times the curvature; Newton steps then go on while they
    shrink the gradient.  Both loops are driven by the gradient, so unlike
    a search that compares values only they do not stall beside a kink of
    F.
    """
    live = y != 0  # the other terms do not depend on xi
    x, y = x[live], y[live]

    def value(z):
        return np.sum(np.abs(x + z * y) ** p)

    xi, val = complex(start), value(start)
    grad, move = _power_sum_newton(x, y, p, xi)
    for _ in range(BJ_NEWTON_STEPS):
        for t in 0.5 ** np.arange(40):
            new_val = value(xi + t * move)
            if new_val < val:
                break
        else:  # no decrease along the Newton direction, or no direction
            break
        xi, val = xi + t * move, new_val
        grad, move = _power_sum_newton(x, y, p, xi)
    for _ in range(BJ_NEWTON_STEPS):
        new_grad, new_move = _power_sum_newton(x, y, p, xi + move)
        if not abs(new_grad) < abs(grad):
            break
        xi, grad, move = xi + move, new_grad, new_move
    return xi


def _power_sum_newton(x, y, p: float, xi: complex) -> tuple[complex, complex]:
    """The gradient of F(xi) = sum_k |x_k + xi y_k|^p (all y_k != 0),
    as a complex number, and the Newton step -H^-1 grad; NaN on a kink.

    With v = x + xi y and e_k = v_k conj(y_k), the k-th term has gradient
    p t_k e_k and Hessian p t_k (|y_k|^2 I + (p - 2) e_k e_k^T / |v_k|^2),
    t_k = |v_k|^(p-2).
    """
    v = x + xi * y
    a = np.abs(v)
    if not a.all():
        return complex(np.nan), complex(np.nan)
    t = a ** (p - 2.0)
    e = v * y.conj()
    grad = p * complex(np.sum(t * e))
    yy = np.sum(t * np.abs(y) ** 2)
    ee = (p - 2.0) * t / (a * a)
    h11 = yy + np.sum(ee * e.real**2)
    h22 = yy + np.sum(ee * e.imag**2)
    h12 = np.sum(ee * e.real * e.imag)
    det = p * (h11 * h22 - h12 * h12)
    with np.errstate(divide="ignore", invalid="ignore"):
        return grad, complex((h12 * grad.imag - h22 * grad.real) / det,
                             (h12 * grad.real - h11 * grad.imag) / det)



def _power_norm(zs: np.ndarray, p: float) -> np.ndarray:
    """The p-norm over the last axis, 1 < p < inf, scaled by the largest
    modulus so that every power stays in range."""
    a = np.abs(zs)
    m = a.max(axis=-1)
    # m + (m == 0) is exactly m, or 1 on zero rows; unlike np.where it
    # stays a scalar on single (1-D) vectors
    scaled = a / (m + (m == 0))[..., None]
    return m * (scaled**p).sum(axis=-1) ** (1.0 / p)


def _power_gradients(zs: np.ndarray, p: float) -> np.ndarray:
    """The gradient functional v of the p-norm at each row of zs, 1 < p <
    inf (see _power_core); 0 on zero rows."""
    a = np.abs(zs)
    m = a.max(axis=-1)
    live = m > 0.0  # both functionals vanish at z = 0
    u = a / np.where(live, m, 1.0)[..., None]
    sgn = zs / np.where(a > 0, a, 1.0)  # 0 on zero coordinates
    # float_power is the libm pow of a scalar float; ** on an array
    # may take a vectorized pow that differs in the last bit
    s = np.float_power(np.where(live, (u**p).sum(axis=-1), 1.0), (2.0 - p) / p)
    return np.where(live[..., None], (m * s)[..., None] * u ** (p - 1.0) * sgn, 0)


def _smooth_core(p: float, norm, gradients, bj_argmin) -> Core:
    """The p-norm, 1 < p < inf, differentiable away from 0 with gradient
    functional v = gradients(z), sum_k conj(v_k) z_k = N(z)^2: rho_plus(z,
    w) = Re sum_k conj(v_k) w_k, rho_inf(z, w) = sum_k v_k conj(w_k), and
    the Birkhoff-James slope is -|rho_inf|.  bj_argmin(z, w,
    rho_inf_pairs) may start from rho_inf."""

    def norming(zs):
        n = norm(zs)
        return gradients(zs).conj() / np.where(n > 0, n, 1.0)[..., None]

    def rho_plus_pairs(zs, ws):
        return _row_dot(ws, gradients(zs).conj()).real

    def rho_inf_pairs(zs, ws):
        return (gradients(zs) * ws.conj()).sum(axis=-1)

    def bj_slope_pairs(zs, ws):
        v = rho_inf_pairs(zs, ws)
        return -np.hypot(v.real, v.imag)

    return Core(norm, norming, rho_plus_pairs, rho_inf_pairs, bj_slope_pairs,
                lambda z, w: bj_argmin(z, w, rho_inf_pairs),
                lambda zs, ws, ts: _power_steps(zs, ws, ts, p))


def _power_core(p: float) -> Core:
    """The p-norm for 1 < p < inf other than 2, scaled by the largest
    modulus m so that every power stays in range: v_k = m |u|^(2-p)
    |u_k|^(p-1) sgn(z_k), u = z/m."""

    def bj_argmin(z, w, rho_inf_pairs):
        # started at the minimizer of p = 2
        start = -rho_inf_pairs(z[None], w[None]).item()
        return _power_sum_argmin(z, w, p, start)

    return _smooth_core(p, lambda zs: _power_norm(zs, p),
                        lambda zs: _power_gradients(zs, p), bj_argmin)


def _euclidean_core() -> Core:
    """The 2-norm, sqrt(<z,z>) with <z,w> = sum_k z_k conj(w_k): v = z."""

    def norm(zs):
        # scaling by the largest coordinate keeps the sum of squares from
        # overflowing for very large vectors
        m = np.abs(zs).max(axis=-1)
        scaled = zs / np.where(m > 0, m, 1)[..., None]
        return m * np.sqrt((scaled * scaled.conj()).sum(axis=-1).real)

    def bj_argmin(z, w, rho_inf_pairs):
        # the orthogonal projection: <z + xi w, w> = 0
        zw, ww = rho_inf_pairs(np.stack((z, w)), np.stack((w, w)))
        return -complex(zw) / ww.real

    return _smooth_core(2.0, norm, lambda zs: zs, bj_argmin)


@dataclass(frozen=True, eq=False)
class NormSpec:
    """A tagged description of one norm on C^dim.

    Exactly one of the parameter fields is populated, according to family;
    kernel holds the norm's computations.  Use the factory functions
    :func:`lp`, :func:`weighted_l1`, :func:`pd_inner`, :func:`polyhedral`
    instead of the raw constructor: each validates its parameters and
    builds the kernel from its exponent, its M and its isometry.
    """

    family: str
    dim: int
    p: float | None = None
    weights: np.ndarray | None = field(default=None, repr=False)
    gram: np.ndarray | None = field(default=None, repr=False)
    functionals: np.ndarray | None = field(default=None, repr=False)
    kernel: Kernel | None = field(default=None, repr=False)

    def __repr__(self) -> str:
        return f"NormSpec({format_norm_spec(self)!r})"


def lp(p: float, dim: int) -> NormSpec:
    """The p-norm on C^dim; p may be math.inf."""
    p = float(p)
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (p >= 1.0):
        raise ValueError("lp norm requires p >= 1")
    eye = np.eye(dim)
    return NormSpec(LP, dim, p=p, kernel=_kernel(p, eye, eye, _permuted_phases(dim)))


def weighted_l1(weights) -> NormSpec:
    """Weighted l1 norm sum_k w_k |x_k| with all w_k > 0."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size < 1:
        raise ValueError("weights must have dimension >= 1")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be finite and strictly positive")
    wc = w.copy()
    wc.setflags(write=False)
    # coordinate phases only: a permutation would have to permute the weights
    return NormSpec(WEIGHTED_L1, w.size, weights=wc, kernel=_kernel(
        1.0, np.diag(wc), np.diag(1.0 / wc), lambda rng: np.diag(_phases(rng, w.size))))


def pd_inner(gram) -> NormSpec:
    """Norm sqrt(<x,x>) from a Hermitian positive-definite Gram matrix,
    which is |A x|_2 for its Cholesky factor, G = A^H A."""
    g = np.asarray(gram, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ValueError("gram must be a square matrix")
    scale = max(np.abs(g).max(), 1.0)
    if np.abs(g - g.conj().T).max() > VALIDATION_TOL * scale:
        raise ValueError("gram must equal its conjugate transpose")
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= VALIDATION_TOL * max(eigs.max(), 1.0):
        raise ValueError("gram must be positive definite")
    g = _frozen(g)
    d = len(g)
    a = np.linalg.cholesky(g).conj().T

    def isometry(rng):
        # conjugate a unitary Q into the Gram geometry: A^{-1} Q A; the
        # phases every isometry draws first go unused
        _phases(rng, d)
        z = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        q, _ = np.linalg.qr(z.reshape(d, d))
        return np.linalg.solve(a, q @ a)

    return NormSpec(PD_INNER, d, gram=g,
                    kernel=_kernel(2.0, a, np.linalg.inv(a), isometry))


def polyhedral(functionals) -> NormSpec:
    """Polyhedral norm max_j |f_j(x)| from rows f_j of a covector matrix.

    The functionals must separate points (full column rank), otherwise the
    formula is only a seminorm.
    """
    f = np.asarray(functionals, dtype=np.complex128)
    if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
        raise ValueError("functionals must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(f)):
        raise ValueError("functionals must be finite")
    s = np.linalg.svd(f, compute_uv=False)
    rank = int(np.sum(s > VALIDATION_TOL * s[0]))
    if rank < f.shape[1]:
        raise ValueError("functionals do not separate points (rank deficient)")
    f = _frozen(f)
    dim = f.shape[1]
    # a global phase only
    return NormSpec(POLYHEDRAL, dim, functionals=f, kernel=_kernel(
        np.inf, f, None, lambda rng: _phases(rng, dim)[0] * np.eye(dim, dtype=np.complex128)))


def check_dim(spec: NormSpec, x: np.ndarray) -> None:
    if x.shape[-1] != spec.dim:
        raise DimensionMismatchError(
            f"vector of dim {x.shape[-1]} does not match spec dim {spec.dim}"
        )


def norm_rows(spec: NormSpec, xs: np.ndarray) -> np.ndarray:
    """Norm of each row of a 2-D array."""
    check_dim(spec, xs)
    return spec.kernel.norm(xs)


def norm(spec: NormSpec, x) -> float:
    """Evaluate the norm of a single vector."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return float(norm_rows(spec, x[None, :])[0])


def gram_inner(spec: NormSpec, x, y) -> complex:
    """Inner product <x,y> of a pd spec: linear in x, conjugate-linear in y."""
    if spec.family != PD_INNER:
        raise ValueError("gram_inner requires a pd spec")
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    check_dim(spec, x)
    check_dim(spec, y)
    return spec.kernel.rho_inf_pairs(x[None], y[None]).item()


# --- dual geometry -----------------------------------------------------------

TABLE = "table"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class DualInfo:
    """Per-family geometric metadata.

    r_dual is the length of the longest line segment on the dual unit
    sphere (None = unknown); a segment on a unit sphere has length <= 2.
    """

    r_dual: float | None
    provenance: str

    def __post_init__(self):
        if self.r_dual is not None and not (0.0 <= self.r_dual <= 2.0):
            raise ValueError("r_dual must lie in [0, 2]")


def dual_segment_constant(spec: NormSpec) -> DualInfo:
    """R(X*) as the kernel reads it from p and M^-1 (unknown on polyhedral
    norms), and 0 in dimension one, where every norm is a multiple of the
    modulus."""
    if spec.dim == 1:
        return DualInfo(0.0, TABLE)
    k = spec.kernel
    return DualInfo(k.r_dual, UNKNOWN if k.r_dual is None else TABLE)


def is_smooth_family(spec: NormSpec) -> bool:
    """Whether the norm is smooth: the family's kernel says so, and every
    norm on C^1, a multiple of the modulus, is."""
    return spec.dim == 1 or spec.kernel.smooth


def is_inner_product_family(spec: NormSpec) -> bool:
    """Whether the norm comes from an inner product: every |M x|_2 (pd and
    lp with p = 2), and every norm on C^1, a multiple of the modulus."""
    return spec.dim == 1 or spec.kernel.p == 2.0


# --- text formats ------------------------------------------------------------
#
# Complex literal grammar: [-]a[.b][+|-c[.d]i], no spaces; an exponent suffix
# is also accepted on each part so that printed values always re-parse.
# The imaginary part follows a real part and starts with its sign, so a
# bare imaginary literal (2i, 0.5i) is rejected.
# Vectors are comma-separated literals; norm specs are colon-separated
# records such as lp:p=1.5:dim=4 or pd:gram=I:dim=3.

_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^([+-]?{_UNSIGNED})(?:([+-]{_UNSIGNED})i)?$")


def parse_complex(text: str) -> complex:
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise SpecParseError(f"bad complex literal {text!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) else 0.0
    return complex(re_part, im_part)


def _fmt_float(v: float) -> str:
    if v == 0.0:
        return "0"  # normalizes -0.0
    return repr(float(v))


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_float(z.real)
    sign = "+" if z.imag > 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def parse_cvector(text: str) -> np.ndarray:
    parts = [p for p in text.strip().split(",") if p != ""]
    if not parts:
        raise SpecParseError("empty vector literal")
    return vector([parse_complex(p) for p in parts])


def format_cvector(x) -> str:
    return ",".join(format_complex(z) for z in np.asarray(x).reshape(-1))


def _parse_real_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p != ""]


def _parse_complex_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r != ""]
    return np.array([[parse_complex(p) for p in r.split(",")] for r in rows])


def _format_complex_matrix(m: np.ndarray) -> str:
    return ";".join(",".join(format_complex(z) for z in row) for row in m)


# the fields each family reads; dim is accepted on every family
_SPEC_FIELDS = {LP: ("p", "dim"), WEIGHTED_L1: ("w", "dim"), PD_INNER: ("gram", "dim"),
               POLYHEDRAL: ("f", "dim")}


def parse_norm_spec(text: str) -> NormSpec:
    """Parse a norm spec record such as ``lp:p=1.5:dim=4``.

    Fields after the family tag are ``key=value`` pairs.  Recognized keys:
    ``p`` and ``dim`` (lp), ``w`` (wl1), ``gram`` (pd; ``I`` for identity),
    ``f`` (poly; rows separated by ``;``), and ``dim`` on every family.  A
    field the family does not read, or one given twice, is an error.
    """
    parts = text.strip().split(":")
    family = parts[0]
    if family not in _SPEC_FIELDS:
        raise SpecParseError(f"unknown norm family {family!r}")
    kv: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise SpecParseError(f"bad spec field {part!r} in {text!r}")
        k, v = part.split("=", 1)
        if k in kv:
            raise SpecParseError(f"spec field {k!r} given twice in {text!r}")
        if k not in _SPEC_FIELDS[family]:
            raise SpecParseError(f"family {family!r} does not read field {k!r} in {text!r}")
        kv[k] = v
    try:
        if family == LP:
            spec = lp(float(kv["p"]), int(kv["dim"]))
        elif family == WEIGHTED_L1:
            spec = weighted_l1(_parse_real_list(kv["w"]))
        elif family == PD_INNER:
            spec = pd_inner(np.eye(int(kv["dim"])) if kv["gram"] == "I"
                            else _parse_complex_matrix(kv["gram"]))
        else:
            spec = polyhedral(_parse_complex_matrix(kv["f"]))
        if "dim" in kv and int(kv["dim"]) != spec.dim:
            raise SpecParseError(f"dim mismatch in {text!r}")
    except SpecParseError:
        raise
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"bad norm spec {text!r}: {exc}") from exc
    return spec


def format_norm_spec(spec: NormSpec) -> str:
    if spec.family == LP:
        p = "inf" if np.isinf(spec.p) else repr(float(spec.p))
        return f"lp:p={p}:dim={spec.dim}"
    if spec.family == WEIGHTED_L1:
        w = ",".join(repr(float(v)) for v in spec.weights)
        return f"wl1:w={w}:dim={spec.dim}"
    if spec.family == PD_INNER:
        if np.array_equal(spec.gram, np.eye(spec.dim)):
            return f"pd:gram=I:dim={spec.dim}"
        return f"pd:gram={_format_complex_matrix(spec.gram)}:dim={spec.dim}"
    if spec.family == POLYHEDRAL:
        return f"poly:f={_format_complex_matrix(spec.functionals)}:dim={spec.dim}"
    raise ValueError(f"unknown family {spec.family!r}")
