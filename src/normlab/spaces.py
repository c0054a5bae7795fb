"""Complex normed spaces on C^d: vectors, norm families, dual geometry.

Four norm families are supported:

* ``lp``   -- the p-norms, 1 <= p <= inf
* ``wl1``  -- weighted l1 norms with strictly positive weights
* ``pd``   -- norms induced by a Hermitian positive-definite Gram matrix
* ``poly`` -- polyhedral norms max_j |f_j(x)| over a separating family of
  complex covectors

Each spec carries one of four kernels (abs-sum, max-modulus, smooth lp,
pd), picked once by its factory.  Every kernel gives the norm, the closed
forms of rho_plus and rho_inf, the Birkhoff-James criterion in closed form
and a minimizer of |x + xi y| over xi, so no other module branches on the
family to compute them.

Every spec is immutable after construction and all functions here are pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Kernel:
    """The computations of one norm family, bound to a spec's parameters.

    norm(xs) is the norm over the last axis of xs, for any leading shape,
    in the precision of the input (complex128 or extended).  The three
    closed forms take stacked (n, d) pairs, row i of xs with row i of ys:
    rho_plus_pairs is the right derivative, rho_inf_pairs the angular
    average and bj_slope_pairs min over t of rho_plus(x, e^{it} y), which
    is >= 0 iff x is Birkhoff-James orthogonal to y (James 1947: t ->
    |x + t e^{is} y| is convex, so x minimizes along every complex
    direction iff no one-sided slope is negative).  They are the default
    path of every functional, and a single pair is a one-row call.  Each
    row's value, of these and of norm, does not depend on the rows
    stacked with it, bit for bit.  bj_argmin(x, y), for x and y of unit
    norm, is a complex xi minimizing |x + xi y|.  isometry(rng) is a
    linear map that preserves the norm, drawn from rng: coordinate phases
    for every family, then a coordinate permutation for lp, none for
    weighted l1 (it would have to permute the weights), the conjugate of a
    unitary into the Gram geometry for pd, and only a global phase for
    polyhedral norms.  smooth says whether the family is smooth in every
    dimension; r_dual is R(X*), None when unknown.  frame writes the norm
    as |M x|_p and gives its duality maps; dual_norm(gs) is the stacked
    dual norm sup_{|x| <= 1} |sum_k g_k x_k|, None where it has no closed
    form (polyhedral).
    """

    norm: Callable[[np.ndarray], np.ndarray]
    rho_plus_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rho_inf_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bj_slope_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bj_argmin: Callable[[np.ndarray, np.ndarray], complex]
    isometry: Callable[[np.random.Generator], np.ndarray]
    smooth: bool
    r_dual: float | None
    frame: Frame

    @property
    def dual_norm(self) -> Callable[[np.ndarray], np.ndarray] | None:
        return None if self.frame.m_inv is None else self.frame.dual_norm


def _conjugate(p: float) -> float:
    """q with 1/p + 1/q = 1."""
    return np.inf if p == 1.0 else 1.0 if np.isinf(p) else p / (p - 1.0)


def _power_norm(xs: np.ndarray, p: float) -> np.ndarray:
    """The p-norm over the last axis, 1 < p < inf, scaled by the largest
    modulus so that every power stays in range."""
    a = np.abs(xs)
    m = a.max(axis=-1)
    # m + (m == 0) is exactly m, or 1 on zero rows; unlike np.where it
    # stays a scalar on single (1-D) vectors
    scaled = a / (m + (m == 0))[..., None]
    return m * (scaled**p).sum(axis=-1) ** (1.0 / p)


def _power_gradients(xs: np.ndarray, p: float) -> np.ndarray:
    """The gradient functional of the p-norm at each row of xs, 1 < p < inf
    (see _smooth_lp_kernel); 0 on zero rows."""
    a = np.abs(xs)
    m = a.max(axis=-1)
    live = m > 0.0  # both functionals vanish at x = 0
    u = a / np.where(live, m, 1.0)[..., None]
    sgn = xs / np.where(a > 0, a, 1.0)  # 0 on zero coordinates
    # float_power is the libm pow of a scalar float; ** on an array
    # may take a vectorized pow that differs in the last bit
    s = np.float_power(np.where(live, (u**p).sum(axis=-1), 1.0), (2.0 - p) / p)
    return np.where(live[..., None], (m * s)[..., None] * u ** (p - 1.0) * sgn, 0)


def _lp_norm(zs: np.ndarray, p: float) -> np.ndarray:
    """The p-norm over the last axis, 1 <= p <= inf."""
    if p == 1.0:
        return np.abs(zs).sum(axis=-1)
    if np.isinf(p):
        return np.abs(zs).max(axis=-1)
    return _power_norm(zs, p)


def _lp_norming(zs: np.ndarray, p: float) -> np.ndarray:
    """Row by row, the functional h with h . z = |z|_p and |h|_q = 1 (q the
    conjugate exponent), 0 on zero rows: h_k = conj(sgn z_k) (|z_k| /
    |z|_p)^(p-1), the gradient of the norm.  Where the norm has a kink this
    picks one subgradient: 0 on the zero coordinates at p = 1, the first
    largest coordinate alone at p = inf."""
    a = np.abs(zs)
    sgn = zs.conj() / np.where(a > 0, a, 1.0)
    if p == 1.0:
        return sgn
    if np.isinf(p):
        first = np.argmax(a, axis=-1)[..., None]
        return np.where(np.arange(a.shape[-1]) == first, sgn, 0)
    n = _power_norm(zs, p)
    return _power_gradients(zs, p).conj() / np.where(n > 0, n, 1.0)[..., None]


@dataclass(frozen=True, eq=False)
class Frame:
    """A kernel's norm written as |M x|_p, and its duality maps.

    lp is M = I; weighted l1 is p = 1 with M = diag(w); polyhedral is
    p = inf with the functionals f_j as the rows of M; pd is p = 2 with
    M = A, G = A^H A.  A functional g acts by g . x = sum_k g_k x_k, and q
    is the conjugate exponent of p.  All three maps work row by row:

    * norming(xs), the duality map J: a functional h with h . x = |x| and
      dual norm 1 (0 on zero rows), J_p(M x) M with J_p as in _lp_norming;
    * dual_norm(gs): sup over |x| <= 1 of |g . x|, which is |g M^-1|_q;
    * dual_point(gs), the dual map J*: a unit x with g . x = dual_norm(g),
      M^-1 J_q(g M^-1).

    The last two need m_inv, M^-1.  A polyhedral M has more rows than
    columns and its dual norm is an l1 minimization with no closed form:
    there m_inv is None.
    """

    p: float
    m: np.ndarray
    m_inv: np.ndarray | None

    def norming(self, xs: np.ndarray) -> np.ndarray:
        return _row_apply(_lp_norming(_row_apply(xs, self.m.T), self.p), self.m)

    def dual_norm(self, gs: np.ndarray) -> np.ndarray:
        return _lp_norm(_row_apply(gs, self.m_inv), _conjugate(self.p))

    def dual_point(self, gs: np.ndarray) -> np.ndarray:
        z = _lp_norming(_row_apply(gs, self.m_inv), _conjugate(self.p))
        return _row_apply(z, self.m_inv.T)


def _frame(p: float, m: np.ndarray, m_inv: np.ndarray | None) -> Frame:
    return Frame(float(p), _frozen(m), None if m_inv is None else _frozen(m_inv))


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
    row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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


# --- the four kernels; each factory below picks one of them -----------------


def _abs_sum_kernel(w: np.ndarray | None, dim: int) -> Kernel:
    """sum_k w_k |x_k|: weighted l1, and lp with p = 1, where w = None
    stands for unit weights and the norm skips the product."""
    if w is None:
        isometry = _permuted_phases(dim)
        w = np.ones(dim)
        frame = _frame(1.0, np.eye(dim), np.eye(dim))

        def norm(xs):
            return np.abs(xs).sum(axis=-1)
    else:
        def norm(xs):
            return (w * np.abs(xs)).sum(axis=-1)

        def isometry(rng):
            return np.diag(_phases(rng, dim))

        frame = _frame(1.0, np.diag(w), np.diag(1.0 / w))

    def parts(xs):
        """Row by row: N(x), the support of x and w_k conj(x_k)/|x_k| on
        it (0 off it)."""
        ax = np.abs(xs)
        support = ax > 0
        coef = np.where(support, w * xs.conj() / np.where(support, ax, 1.0), 0)
        return (w * ax).sum(axis=-1), support, coef

    # rho_plus(x,y) = |x| ( sum_{x_k != 0} w_k Re(conj(x_k) y_k)/|x_k|
    #                       + sum_{x_k == 0} w_k |y_k| )
    def rho_plus_pairs(xs, ys):
        nx, support, coef = parts(xs)
        off = np.where(support, 0.0, w * np.abs(ys)).sum(axis=-1)
        return nx * (_row_dot(ys, coef).real + off)

    def rho_inf_pairs(xs, ys):
        # |x|_w * sum over the support of x of w_k x_k conj(y_k) / |x_k|
        ax = np.abs(xs)
        support = ax > 0
        terms = w * xs * ys.conj() / np.where(support, ax, 1.0)
        return (w * ax).sum(axis=-1) * np.where(support, terms, 0).sum(axis=-1)

    def bj_slope_pairs(xs, ys):
        # y -> e^{it} y turns the support term of rho_plus, of modulus
        # |rho_inf|, while the off-support term N(x) sum w_k |y_k| stays
        ax = np.abs(xs)
        off = np.where(ax > 0, 0.0, w * np.abs(ys)).sum(axis=-1)
        v = rho_inf_pairs(xs, ys)
        return (w * ax).sum(axis=-1) * off - np.hypot(v.real, v.imag)

    def bj_argmin(x, y):
        # |x + xi y| = sum_k w_k |y_k| |xi - z_k| + const, z_k = -x_k/y_k: a
        # weighted Fermat-Weber problem, minimized at a data point z_k
        # exactly when the criterion holds there with x_k + z_k y_k = 0
        live = np.flatnonzero(y)
        zs = -x[live] / y[live]
        points = x + zs[:, None] * y
        points[np.arange(live.size), live] = 0
        vals = norm(points)
        k = int(np.argmin(vals))
        xk, yk = points[k][None], y[None]
        if bj_slope_pairs(xk, yk).item() >= -TIE_RTOL * vals[k]:
            return complex(zs[k])
        # the minimizer is interior, where the norm is smooth; start just
        # off the kink at z_k, downhill: there the other terms have the
        # gradient rho_inf(x', y)/|x'|, and it outweighs the k-th term
        g = rho_inf_pairs(xk, yk).item()
        start = zs[k] - 1e-8 * (1.0 + abs(zs[k])) * g / abs(g)
        return _power_sum_argmin(x, y, w, 1.0, start)

    return Kernel(norm, rho_plus_pairs, rho_inf_pairs, bj_slope_pairs,
                  bj_argmin, isometry, smooth=False, r_dual=2.0, frame=frame)


def _max_modulus_kernel(f: np.ndarray | None, dim: int) -> Kernel:
    """max_j |f_j(x)|: polyhedral, and lp with p = inf, where F = I and the
    product is skipped.  R(X*) is 2 for lp inf and unknown for polyhedral.

    With A(x) the active functionals (see TIE_RTOL) and u_j the phase of
    f_j x, rho_plus(x, y) = N(x) max_{j in A(x)} Re(conj(u_j) f_j y).  Along
    y -> e^{it} y the integrand of rho_inf is the upper envelope of the
    sinusoids Re(c_j e^{it}), c_j = conj(u_j) f_j y, and integrates exactly.
    N(x) times the envelope's minimum, which is -dist(0, conv{c_j}) when 0
    lies outside the hull, is the Birkhoff-James slope.

    rho_plus_pairs is one max over the stacked rows, with the inactive
    functionals masked out.  rho_inf_pairs and bj_slope_pairs loop over
    the rows: the envelope has a different number of pieces on every row.
    """
    if f is None:
        def apply(v):
            return v

        isometry = _permuted_phases(dim)
        frame = _frame(np.inf, np.eye(dim), np.eye(dim))
    else:
        ft = f.T
        frame = _frame(np.inf, f, None)

        def apply(v):
            return _row_apply(v, ft)

        def isometry(rng):
            return _phases(rng, dim)[0] * np.eye(dim, dtype=np.complex128)

    def norm(xs):
        return np.abs(apply(xs)).max(axis=-1)

    def active(xs, ys):
        """Row by row: N(x) as an (n, 1) column, the mask of A(x) and
        c_j = conj(u_j) f_j y."""
        fx = apply(xs)
        mod = np.abs(fx)
        nx = mod.max(axis=-1, keepdims=True)
        # a zero f_j x gets the phase 0, so at x = 0 every closed form is 0
        c = fx.conj() / (mod + (mod == 0)) * apply(ys)
        return nx, mod >= nx * (1.0 - TIE_RTOL), c

    def rho_plus_pairs(xs, ys):
        nx, act, c = active(xs, ys)
        return nx[:, 0] * np.where(act, c.real, -np.inf).max(axis=-1)

    def rho_inf_pairs(xs, ys):
        nx, act, c = active(xs, ys)
        out = np.empty(len(nx), dtype=np.complex128)
        for i in range(len(nx)):
            out[i] = nx[i, 0] * _envelope_integral(c[i][act[i]]) / np.pi
        return out

    def bj_slope_pairs(xs, ys):
        nx, act, c = active(xs, ys)
        out = np.empty(len(nx))
        for i in range(len(nx)):
            out[i] = nx[i, 0] * _envelope_min(c[i][act[i]])
        return out

    def bj_argmin(x, y):
        a = apply(x)
        b = apply(y)
        live = b != 0  # f_j x + xi f_j y does not move with xi elsewhere
        zs = _one_center_candidates(-a[live] / b[live], np.abs(b[live]))
        return complex(zs[np.argmin(np.abs(a + zs[:, None] * b).max(axis=1))])

    return Kernel(norm, rho_plus_pairs, rho_inf_pairs, bj_slope_pairs,
                  bj_argmin, isometry, smooth=False,
                  r_dual=2.0 if f is None else None, frame=frame)


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


def _power_sum_argmin(x, y, w, p: float, start: complex) -> complex:
    """argmin over xi of F(xi) = sum_k w_k |x_k + xi y_k|^p, p >= 1, where
    F is smooth at the minimizer: the Birkhoff-James minimizer of weighted
    l1 (p = 1) and of the p-norms.

    Damped Newton from start: each step is halved until F decreases.  Near
    the minimizer the values of F agree to rounding while the gradient,
    which the first-order Birkhoff-James criterion reads, is still about
    sqrt(eps) times the curvature; Newton steps then go on while they
    shrink the gradient.  Both loops are driven by the gradient, so unlike
    a search that compares values only they do not stall beside a kink of
    F.
    """
    live = y != 0  # the other terms do not depend on xi
    x, y, w = x[live], y[live], np.broadcast_to(w, live.shape)[live]

    def value(z):
        return np.sum(w * np.abs(x + z * y) ** p)

    xi, val = complex(start), value(start)
    grad, move = _power_sum_newton(x, y, w, p, xi)
    for _ in range(BJ_NEWTON_STEPS):
        for t in 0.5 ** np.arange(40):
            new_val = value(xi + t * move)
            if new_val < val:
                break
        else:  # no decrease along the Newton direction, or no direction
            break
        xi, val = xi + t * move, new_val
        grad, move = _power_sum_newton(x, y, w, p, xi)
    for _ in range(BJ_NEWTON_STEPS):
        new_grad, new_move = _power_sum_newton(x, y, w, p, xi + move)
        if not abs(new_grad) < abs(grad):
            break
        xi, grad, move = xi + move, new_grad, new_move
    return xi


def _power_sum_newton(x, y, w, p: float, xi: complex) -> tuple[complex, complex]:
    """The gradient of F(xi) = sum_k w_k |x_k + xi y_k|^p (all y_k != 0),
    as a complex number, and the Newton step -H^-1 grad; NaN on a kink.

    With v = x + xi y and e_k = v_k conj(y_k), the k-th term has gradient
    p t_k e_k and Hessian p t_k (|y_k|^2 I + (p - 2) e_k e_k^T / |v_k|^2),
    t_k = w_k |v_k|^(p-2).
    """
    v = x + xi * y
    a = np.abs(v)
    if not a.all():
        return complex(np.nan), complex(np.nan)
    t = w * a ** (p - 2.0)
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


def _smooth_lp_kernel(p: float, dim: int) -> Kernel:
    """The p-norm for 1 < p < inf, scaled by the largest modulus.

    The norm is differentiable away from 0, with gradient functional w:
    w_k = m |u|^(2-p) |u_k|^(p-1) sgn(x_k), u = x/m, m = max_k |x_k|, so
    rho_plus(x, y) = Re sum_k conj(w_k) y_k and rho_inf(x, y) =
    sum_k w_k conj(y_k).  The scaling by m keeps every power in range.
    """

    def norm(xs):
        return _power_norm(xs, p)

    def gradients(xs):
        return _power_gradients(xs, p)

    def rho_plus_pairs(xs, ys):
        return _row_dot(ys, gradients(xs).conj()).real

    def rho_inf_pairs(xs, ys):
        return (gradients(xs) * ys.conj()).sum(axis=-1)

    def bj_slope_pairs(xs, ys):
        v = rho_inf_pairs(xs, ys)
        return -np.hypot(v.real, v.imag)

    def bj_argmin(x, y):
        # started at the minimizer of p = 2
        start = -rho_inf_pairs(x[None], y[None]).item()
        return _power_sum_argmin(x, y, 1.0, p, start)

    return Kernel(norm, rho_plus_pairs, rho_inf_pairs, bj_slope_pairs,
                  bj_argmin, _permuted_phases(dim), smooth=True, r_dual=0.0,
                  frame=_frame(p, np.eye(dim), np.eye(dim)))


def _pd_kernel(g: np.ndarray) -> Kernel:
    """sqrt(<x,x>) for a Hermitian positive-definite Gram matrix, which is
    |A x|_2 for its Cholesky factor, G = A^H A."""
    gt = g.T
    a = np.linalg.cholesky(g).conj().T

    def norm(xs):
        # <x,x> = sum_a (G x)_a conj(x_a), real and >= 0 up to rounding;
        # scaling by the largest coordinate keeps the quadratic form from
        # overflowing for very large vectors
        m = np.abs(xs).max(axis=-1)
        safe = np.where(m > 0, m, 1)
        scaled = xs / safe[..., None]
        gx = _row_apply(scaled, gt)
        q = (gx * scaled.conj()).sum(axis=-1).real
        return m * np.sqrt(np.maximum(q, 0))

    def rho_plus_pairs(xs, ys):
        return _row_dot(ys.conj(), _row_apply(xs, gt)).real

    def rho_inf_pairs(xs, ys):
        return (_row_apply(xs, gt) * ys.conj()).sum(axis=-1)

    def bj_slope_pairs(xs, ys):
        v = rho_inf_pairs(xs, ys)
        return -np.hypot(v.real, v.imag)

    def bj_argmin(x, y):
        # the orthogonal projection: <x + xi y, y> = 0
        xy, yy = rho_inf_pairs(np.stack((x, y)), np.stack((y, y)))
        return -complex(xy) / yy.real

    def isometry(rng):
        # conjugate a unitary Q into the Gram geometry: A^{-1} Q A with
        # G = A^H A; the phases every isometry draws first go unused
        d = len(g)
        _phases(rng, d)
        z = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        q, _ = np.linalg.qr(z.reshape(d, d))
        return np.linalg.solve(a, q @ a)

    return Kernel(norm, rho_plus_pairs, rho_inf_pairs, bj_slope_pairs,
                  bj_argmin, isometry, smooth=True, r_dual=0.0,
                  frame=_frame(2.0, a, np.linalg.inv(a)))


@dataclass(frozen=True, eq=False)
class NormSpec:
    """A tagged description of one norm on C^dim.

    Exactly one of the parameter fields is populated, according to family;
    kernel holds the family's computations.  Use the factory functions
    :func:`lp`, :func:`weighted_l1`, :func:`pd_inner`, :func:`polyhedral`
    instead of the raw constructor: each picks the spec's kernel.
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
    if p == 1.0:
        kernel = _abs_sum_kernel(None, dim)
    elif np.isinf(p):
        kernel = _max_modulus_kernel(None, dim)
    else:
        kernel = _smooth_lp_kernel(p, dim)
    return NormSpec(LP, dim, p=p, kernel=kernel)


def weighted_l1(weights) -> NormSpec:
    """Weighted l1 norm sum_k w_k |x_k| with all w_k > 0."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size < 1:
        raise ValueError("weights must have dimension >= 1")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be finite and strictly positive")
    wc = w.copy()
    wc.setflags(write=False)
    return NormSpec(WEIGHTED_L1, w.size, weights=wc, kernel=_abs_sum_kernel(wc, w.size))


def pd_inner(gram) -> NormSpec:
    """Norm sqrt(<x,x>) from a Hermitian positive-definite Gram matrix."""
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
    return NormSpec(PD_INNER, g.shape[0], gram=g, kernel=_pd_kernel(g))


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
    return NormSpec(POLYHEDRAL, f.shape[1], functionals=f,
                    kernel=_max_modulus_kernel(f, f.shape[1]))


def check_dim(spec: NormSpec, x: np.ndarray) -> None:
    if x.shape[-1] != spec.dim:
        raise DimensionMismatchError(
            f"vector of dim {x.shape[-1]} does not match spec dim {spec.dim}"
        )


def norm_rows(spec: NormSpec, xs: np.ndarray) -> np.ndarray:
    """Norm of each row of a 2-D array, in the dtype of the input.

    Extended-precision rows (clongdouble) are evaluated in extended
    precision; this is what the norm-derivative limit relies on.
    """
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
    """Look up R(X*) for the spec's family.

    This is a lookup table, not a computation: the duals of the supported
    families are standard.  Polyhedral duals are reported unknown (except
    in dimension one, where every norm is a multiple of the modulus).
    """
    if spec.dim == 1:
        return DualInfo(0.0, TABLE)
    k = spec.kernel
    return DualInfo(k.r_dual, UNKNOWN if k.r_dual is None else TABLE)


def operator_norm_formula(spec_dom: NormSpec, spec_cod: NormSpec):
    """The closed form of |T| = sup |T x|_cod / |x|_dom, or None where none
    is known.  The closed form maps a (cod dim, dom dim) matrix T to |T|
    and a vector x of unit norm with |T x| = |T|, up to rounding.

    * An abs-sum domain (lp1, wl1), into any codomain: its unit ball is
      the hull of the e^{it} e_k / w_k, so |T| = max_k |T e_k|_cod / w_k.
    * A max-modulus codomain (lp inf, poly), from any domain with a
      closed-form dual norm (all but poly): |T| = max_j dual_dom(f_j T).
    * Euclidean to Euclidean (pd and lp2, frames with p = 2): the spectral
      norm of A_cod T A_dom^-1.
    """
    dom, cod = spec_dom.kernel, spec_cod.kernel
    if dom.frame.p == 1.0:
        def formula(t):
            xs = dom.frame.m_inv.T  # row k is e_k / w_k
            values = cod.norm(xs @ t.T)
            k = int(np.argmax(values))
            return float(values[k]), xs[k]
    elif np.isinf(cod.frame.p) and dom.dual_norm is not None:
        def formula(t):
            gs = cod.frame.m @ t  # row j is f_j T
            values = dom.dual_norm(gs)
            j = int(np.argmax(values))
            return float(values[j]), dom.frame.dual_point(gs[j:j + 1])[0]
    elif dom.frame.p == cod.frame.p == 2.0:
        def formula(t):
            _, s, vh = np.linalg.svd(cod.frame.m @ t @ dom.frame.m_inv)
            return float(s[0]), dom.frame.m_inv @ vh[0].conj()
    else:
        return None
    return formula


def is_smooth_family(spec: NormSpec) -> bool:
    """Whether the norm is smooth: the family's kernel says so, and every
    norm on C^1, a multiple of the modulus, is."""
    return spec.dim == 1 or spec.kernel.smooth


def is_inner_product_family(spec: NormSpec) -> bool:
    """Whether the norm comes from an inner product: pd, lp with p = 2, and
    every norm on C^1, a multiple of the modulus."""
    return (spec.dim == 1 or spec.family == PD_INNER
            or (spec.family == LP and spec.p == 2.0))


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


def parse_norm_spec(text: str) -> NormSpec:
    """Parse a norm spec record such as ``lp:p=1.5:dim=4``.

    Fields after the family tag are ``key=value`` pairs.  Recognized keys:
    ``p`` and ``dim`` (lp), ``w`` (wl1), ``gram`` (pd; ``I`` for identity),
    ``f`` (poly; rows separated by ``;``).
    """
    parts = text.strip().split(":")
    family = parts[0]
    kv: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise SpecParseError(f"bad spec field {part!r} in {text!r}")
        k, v = part.split("=", 1)
        kv[k] = v
    try:
        if family == LP:
            return lp(float(kv["p"]), int(kv["dim"]))
        if family == WEIGHTED_L1:
            w = _parse_real_list(kv["w"])
            if "dim" in kv and int(kv["dim"]) != len(w):
                raise SpecParseError(f"dim mismatch in {text!r}")
            return weighted_l1(w)
        if family == PD_INNER:
            if kv["gram"] == "I":
                return pd_inner(np.eye(int(kv["dim"])))
            g = _parse_complex_matrix(kv["gram"])
            if "dim" in kv and int(kv["dim"]) != g.shape[0]:
                raise SpecParseError(f"dim mismatch in {text!r}")
            return pd_inner(g)
        if family == POLYHEDRAL:
            f = _parse_complex_matrix(kv["f"])
            if "dim" in kv and int(kv["dim"]) != f.shape[1]:
                raise SpecParseError(f"dim mismatch in {text!r}")
            return polyhedral(f)
    except SpecParseError:
        raise
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"bad norm spec {text!r}: {exc}") from exc
    raise SpecParseError(f"unknown norm family {family!r}")


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
