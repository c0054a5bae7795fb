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
    if not np.all(np.isfinite(arr)):
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
    in the precision of the input (complex128 or extended).
    rho_plus_rows(x, ys) and rho_inf(x, y) are the closed forms of the
    right derivative over the rows of ys and of the angular average; they
    are the default path of every functional.  bj_slope(x, y) is
    min over t of rho_plus(x, e^{it} y), which is >= 0 iff x is
    Birkhoff-James orthogonal to y (James 1947: t -> |x + t e^{is} y| is
    convex, so x minimizes along every complex direction iff no one-sided
    slope is negative).  bj_argmin(x, y), for x and y of unit norm, is a
    complex xi minimizing |x + xi y|.  smooth says whether the family is
    smooth in every dimension; r_dual is R(X*), None when unknown.
    """

    norm: Callable[[np.ndarray], np.ndarray]
    rho_plus_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rho_inf: Callable[[np.ndarray, np.ndarray], complex]
    bj_slope: Callable[[np.ndarray, np.ndarray], float]
    bj_argmin: Callable[[np.ndarray, np.ndarray], complex]
    smooth: bool
    r_dual: float | None


# --- the four kernels; each factory below picks one of them -----------------


def _abs_sum_kernel(w: np.ndarray | None, dim: int) -> Kernel:
    """sum_k w_k |x_k|: weighted l1, and lp with p = 1, where w = None
    stands for unit weights and the norm skips the product."""
    if w is None:
        w = np.ones(dim)

        def norm(xs):
            return np.abs(xs).sum(axis=-1)
    else:
        def norm(xs):
            return (w * np.abs(xs)).sum(axis=-1)

    def rho_plus_rows(x, ys):
        # rho_plus(x,y) = |x| ( sum_{x_k != 0} w_k Re(conj(x_k) y_k)/|x_k|
        #                       + sum_{x_k == 0} w_k |y_k| )
        ax = np.abs(x)
        nx = float((w * ax).sum())
        support = ax > 0
        coef = np.zeros(x.size, dtype=np.complex128)
        coef[support] = w[support] * x[support].conj() / ax[support]
        main = (ys @ coef).real
        off = (w[~support] * np.abs(ys[:, ~support])).sum(axis=-1)
        return nx * (main + off)

    def rho_inf(x, y):
        # |x|_w * sum over the support of x of w_k x_k conj(y_k) / |x_k|
        ax = np.abs(x)
        nx = (w * ax).sum()
        support = ax > 0
        s = np.sum(w[support] * x[support] * y[support].conj() / ax[support])
        return complex(nx * s)

    def bj_slope(x, y):
        # y -> e^{it} y turns the support term of rho_plus, of modulus
        # |rho_inf|, while the off-support term N(x) sum w_k |y_k| stays
        off = x == 0
        return (float((w * np.abs(x)).sum() * (w[off] * np.abs(y[off])).sum())
                - abs(rho_inf(x, y)))

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
        if bj_slope(points[k], y) >= -TIE_RTOL * vals[k]:
            return complex(zs[k])
        # the minimizer is interior, where the norm is smooth; start just
        # off the kink at z_k, downhill: there the other terms have the
        # gradient rho_inf(x', y)/|x'|, and it outweighs the k-th term
        g = rho_inf(points[k], y)
        start = zs[k] - 1e-8 * (1.0 + abs(zs[k])) * g / abs(g)
        return _power_sum_argmin(x, y, w, 1.0, start)

    return Kernel(norm, rho_plus_rows, rho_inf, bj_slope, bj_argmin,
                  smooth=False, r_dual=2.0)


def _max_modulus_kernel(f: np.ndarray | None) -> Kernel:
    """max_j |f_j(x)|: polyhedral, and lp with p = inf, where F = I and the
    product is skipped.  R(X*) is 2 for lp inf and unknown for polyhedral.

    With A(x) the active functionals (see TIE_RTOL) and u_j the phase of
    f_j x, rho_plus(x, y) = N(x) max_{j in A(x)} Re(conj(u_j) f_j y).  Along
    y -> e^{it} y the integrand of rho_inf is the upper envelope of the
    sinusoids Re(c_j e^{it}), c_j = conj(u_j) f_j y, and integrates exactly.
    N(x) times the envelope's minimum, which is -dist(0, conv{c_j}) when 0
    lies outside the hull, is the Birkhoff-James slope.
    """
    if f is None:
        def norm(xs):
            return np.abs(xs).max(axis=-1)

        def apply(v):
            return v
    else:
        ft = f.T

        def norm(xs):
            return np.abs(xs @ ft).max(axis=-1)

        def apply(v):
            return v @ ft

    def active(x):
        """N(x), the indices of A(x) and conj(u_j) over A(x)."""
        fx = apply(x)
        mod = np.abs(fx)
        nx = mod.max()
        idx = np.flatnonzero(mod >= nx * (1.0 - TIE_RTOL))
        # at x = 0 every phase is taken as 0, so both closed forms give 0
        return nx, idx, fx[idx].conj() / (mod[idx] + (nx == 0))

    def rho_plus_rows(x, ys):
        nx, idx, cu = active(x)
        return nx * (apply(ys)[:, idx] * cu).real.max(axis=-1)

    def rho_inf(x, y):
        nx, idx, cu = active(x)
        c = cu * apply(y)[idx]
        return complex(nx * _envelope_integral(c) / np.pi)

    def bj_slope(x, y):
        # on each piece of the envelope one sinusoid is on top, so its
        # minimum is at a trough pi - arg(c_j) or at a crossing
        nx, idx, cu = active(x)
        c = cu * apply(y)[idx]
        t = np.concatenate((np.pi - np.angle(c), _crossings(c)))
        return float(nx * (np.exp(1j * t)[:, None] * c).real.max(axis=1).min())

    def bj_argmin(x, y):
        a = apply(x)
        b = apply(y)
        live = b != 0  # f_j x + xi f_j y does not move with xi elsewhere
        zs = _one_center_candidates(-a[live] / b[live], np.abs(b[live]))
        return complex(zs[np.argmin(np.abs(a + zs[:, None] * b).max(axis=1))])

    return Kernel(norm, rho_plus_rows, rho_inf, bj_slope, bj_argmin,
                  smooth=False, r_dual=2.0 if f is None else None)


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
    a simplex they do not stall beside a kink of F.
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


def _smooth_lp_kernel(p: float) -> Kernel:
    """The p-norm for 1 < p < inf, scaled by the largest modulus.

    The norm is differentiable away from 0, with gradient functional w:
    w_k = m |u|^(2-p) |u_k|^(p-1) sgn(x_k), u = x/m, m = max_k |x_k|, so
    rho_plus(x, y) = Re sum_k conj(w_k) y_k and rho_inf(x, y) =
    sum_k w_k conj(y_k).  The scaling by m keeps every power in range.
    """

    def norm(xs):
        a = np.abs(xs)
        m = a.max(axis=-1)
        # m + (m == 0) is exactly m, or 1 on zero rows; unlike np.where it
        # stays a scalar on single (1-D) vectors
        scaled = a / (m + (m == 0))[..., None]
        return m * (scaled**p).sum(axis=-1) ** (1.0 / p)

    def gradient(x):
        a = np.abs(x)
        m = a.max()
        if m == 0.0:  # both functionals vanish at x = 0
            return np.zeros_like(x)
        u = a / m
        sgn = x / np.where(a > 0, a, 1.0)  # 0 on zero coordinates
        return m * (u**p).sum() ** ((2.0 - p) / p) * u ** (p - 1.0) * sgn

    def rho_plus_rows(x, ys):
        return (ys @ gradient(x).conj()).real

    def rho_inf(x, y):
        return complex(np.sum(gradient(x) * y.conj()))

    def bj_slope(x, y):
        return -abs(rho_inf(x, y))

    def bj_argmin(x, y):
        # started at the minimizer of p = 2
        return _power_sum_argmin(x, y, 1.0, p, -rho_inf(x, y))

    return Kernel(norm, rho_plus_rows, rho_inf, bj_slope, bj_argmin,
                  smooth=True, r_dual=0.0)


def _pd_kernel(g: np.ndarray) -> Kernel:
    """sqrt(<x,x>) for a Hermitian positive-definite Gram matrix."""
    gt = g.T

    def norm(xs):
        # <x,x> = sum_a (G x)_a conj(x_a), real and >= 0 up to rounding;
        # scaling by the largest coordinate keeps the quadratic form from
        # overflowing for very large vectors
        m = np.abs(xs).max(axis=-1)
        safe = np.where(m > 0, m, 1)
        scaled = xs / safe[..., None]
        gx = scaled @ gt
        q = (gx * scaled.conj()).sum(axis=-1).real
        return m * np.sqrt(np.maximum(q, 0))

    def rho_plus_rows(x, ys):
        return (ys.conj() @ (g @ x)).real

    def rho_inf(x, y):
        return complex(np.sum((g @ x) * y.conj()))

    def bj_slope(x, y):
        return -abs(rho_inf(x, y))

    def bj_argmin(x, y):
        # the orthogonal projection: <x + xi y, y> = 0
        return -rho_inf(x, y) / rho_inf(y, y).real

    return Kernel(norm, rho_plus_rows, rho_inf, bj_slope, bj_argmin,
                  smooth=True, r_dual=0.0)


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
        kernel = _max_modulus_kernel(None)
    else:
        kernel = _smooth_lp_kernel(p)
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
                    kernel=_max_modulus_kernel(f))


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
    return spec.kernel.rho_inf(x, y)


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
    is_smooth: bool | None
    provenance: str

    def __post_init__(self):
        if self.r_dual is not None and not (0.0 <= self.r_dual <= 2.0):
            raise ValueError("r_dual must lie in [0, 2]")


def dual_segment_constant(spec: NormSpec) -> DualInfo:
    """Look up R(X*) and smoothness for the spec's family.

    This is a lookup table, not a computation: the duals of the supported
    families are standard.  Polyhedral duals are reported unknown (except
    in dimension one, where every norm is a multiple of the modulus).
    """
    if spec.dim == 1:
        return DualInfo(0.0, True, TABLE)
    k = spec.kernel
    return DualInfo(k.r_dual, k.smooth, UNKNOWN if k.r_dual is None else TABLE)


def is_smooth_family(spec: NormSpec) -> bool:
    return bool(dual_segment_constant(spec).is_smooth)


def is_inner_product_family(spec: NormSpec) -> bool:
    """Whether the norm comes from an inner product: pd, and lp with p = 2."""
    return spec.family == PD_INNER or (spec.family == LP and spec.p == 2.0)


# --- text formats ------------------------------------------------------------
#
# Complex literal grammar: [-]a[.b][+|-c[.d]i], no spaces; an exponent suffix
# is also accepted on each part so that printed values always re-parse.
# Vectors are comma-separated literals; norm specs are colon-separated
# records such as lp:p=1.5:dim=4 or pd:gram=I:dim=3.

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_FLOAT})(?:({_FLOAT})i)?$")


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
