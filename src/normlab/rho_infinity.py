"""The roots-of-unity functional rho_n and its limit rho_inf.

rho_n(x, y) = (2/n) sum_k c_k rho_plus(x, c_k y) over the nth roots of
unity c_k; for n > 2 the squares of the roots sum to zero, which is what
makes rho_n recover the inner product when there is one.  The limit

    rho_inf(x, y) = (1/pi) Integral_0^{2pi} e^{i theta}
                    rho_plus(x, e^{i theta} y) d theta

is computed by the closed form of the spec's kernel.  Periodic
trapezoidal quadrature, which with N equispaced nodes is exactly rho_N,
stays behind force_path= as an independent oracle.  Doubling N reuses
all previously evaluated nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .derivatives import CLOSED_FORM, QUADRATURE, FunctionalValue, rho_plus_directions
from .errors import NTooSmallError
from .spaces import NormSpec, _modulus, check_dim, vector

DEFAULT_QUAD_TOL = 1e-7
DEFAULT_N_MAX = 4096


@lru_cache(maxsize=64)
def _roots(n: int) -> np.ndarray:
    """roots_of_unity(n), built once per n and read-only, for rho_n."""
    c = np.exp(2j * np.pi * np.arange(1, n + 1) / n)
    c.setflags(write=False)
    return c


def roots_of_unity(n: int) -> np.ndarray:
    """The nth roots of unity e^{2 pi i k / n}, k = 1..n."""
    return _roots(int(n)).copy()


def root_sum_identity(n: int) -> complex:
    """sum_k c_k^2 over the nth roots of unity, computed by summation.

    Zero for every n > 2; equals 2 at n = 2, which is why rho_n excludes
    that case.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    c = roots_of_unity(n)
    return complex(np.sum(c * c))


def rho_n_stack(spec: NormSpec, xs, ys, ns, *, force_path: str | None = None):
    """rho_n(x, y) for each row x of xs (rows, d), each of its k directions
    y in ys (rows, k, d) and each n in ns.

    Returns one (values, abs_errors, converged, path) per n, in the order
    of ns: a complex, a float and a bool (rows, k) array, and the engine's
    path.  The rotations c y over the roots of every n are one call of
    rho_plus_directions, so each x's side is computed once.  Requires
    every n > 2, as rho_n does.
    """
    ns = [int(n) for n in ns]
    if min(ns) <= 2:
        raise NTooSmallError(f"rho_n requires n > 2, got {min(ns)}")
    ys = np.asarray(ys, dtype=np.complex128)
    rows, k, d = ys.shape
    c = np.concatenate([_roots(n) for n in ns])
    rotated = c[:, None] * ys[:, :, None, :]
    vals, errs, conv, path = rho_plus_directions(
        spec, xs, rotated.reshape(rows, k * len(c), d), force_path=force_path)
    vals, errs, conv = (a.reshape(rows, k, len(c)) for a in (vals, errs, conv))
    out, lo = [], 0
    for n in ns:
        at, lo, w = slice(lo, lo + n), lo + n, 2.0 / n
        out.append((w * np.add.reduce(c[at] * vals[..., at], axis=-1),
                    w * np.add.reduce(errs[..., at], axis=-1),
                    np.logical_and.reduce(conv[..., at], axis=-1), path))
    return out


def rho_n_pairs(spec: NormSpec, xs, ys, n: int, *,
                force_path: str | None = None):
    """rho_n(x, y) for each row pair of xs and ys (rows, d): the one-n,
    one-direction call of rho_n_stack.

    Returns (values, abs_errors, converged, path): a complex, a float and
    a bool array over the rows, and the path of the rho_plus engine.
    """
    vals, errs, conv, path = rho_n_stack(
        spec, xs, np.asarray(ys)[:, None, :], (n,), force_path=force_path)[0]
    return vals[:, 0], errs[:, 0], conv[:, 0], path


def rho_n(spec: NormSpec, x, y, n: int, *,
          force_path: str | None = None) -> FunctionalValue:
    """The finite roots-of-unity sum (2/n) sum_k c_k rho_plus(x, c_k y).

    Requires n > 2: at n = 2 the root squares sum to 2 instead of 0 and
    the functional degenerates to twice the real part.  A one-row call of
    rho_n_pairs.
    """
    values, errs, conv, path = rho_n_pairs(spec, vector(x)[None], vector(y)[None],
                                           n, force_path=force_path)
    return FunctionalValue(complex(values[0]), float(errs[0]), path, bool(conv[0]))


def check_quad_tol(tol: float) -> None:
    """Reject a quadrature tolerance that is not a finite number > 0.

    Against NaN or a tol <= 0 no gap ever counts as settled, so the
    quadrature spends its whole node budget; against inf the first
    refinement is flagged converged whatever its error.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"quadrature tol must be finite and > 0, got {tol}")


@dataclass(frozen=True)
class QuadratureTrace:
    """Refinement history of one quadrature evaluation.

    node_counts strictly double; final_gap is the modulus of the last
    estimate minus the second-to-last.
    """

    node_counts: tuple[int, ...]
    estimates: tuple[complex, ...]
    final_gap: float


@lru_cache(maxsize=32)
def _nodes(n: int) -> np.ndarray:
    """The phases e^{2 pi i k / n}, k = 0..n-1, of the n-node trapezoid
    rule (n = 8 * 2**j), read-only: the 8-node rule directly, every later
    one as the nodes of the n/2-node rule interleaved with the new ones."""
    if n == 8:
        phases = np.exp(2j * np.pi * np.arange(n) / n)
    else:
        half = n // 2
        phases = np.empty(n, dtype=np.complex128)
        phases[0::2] = _nodes(half)
        phases[1::2] = np.exp(2j * np.pi * (2 * np.arange(half) + 1) / n)
    phases.setflags(write=False)
    return phases


def quadrature_pairs(spec: NormSpec, xs, ys, *, tol: float = DEFAULT_QUAD_TOL,
                     n_max: int = DEFAULT_N_MAX):
    """rho_inf by periodic trapezoid rule with node doubling, for each row
    pair of xs and ys (rows, d).

    The N-node rule coincides with rho_N; refinement doubles N starting
    from 8, reusing every already-evaluated node, and a row stops when two
    successive estimates differ by less than tol.  Every doubling
    evaluates the new nodes of the rows still active in one call of
    rho_plus_directions; a row leaves the active set once it settles, or
    at the last doubling that keeps N within n_max (which must allow the
    first refinement, n_max >= 16), where its best estimate is flagged
    nonconverged.  tol must be finite and > 0.

    Returns (values, abs_errors, converged, estimates, levels): per row the
    value, the modulus of its last refinement step, and whether that step
    was below tol, all scaled back by |x| |y|; estimates[k, i] is row i's
    scaled estimate at 8 * 2**k nodes, for k < levels[i].  A pair with
    |x| |y| = 0 has value 0, as homogeneity forces
    (rho_inf(a x, b y) = a conj(b) rho_inf(x, y)), and no estimates.
    """
    check_quad_tol(tol)
    if n_max < 16:
        raise ValueError(f"n_max must be >= 16, got {n_max}")
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    check_dim(spec, xs)
    check_dim(spec, ys)
    nx = spec.kernel.norm(xs)
    ny = spec.kernel.norm(ys)
    scale = nx * ny
    # a pair with scale 0 is evaluated on a unit divisor, settles at once
    # (its rho_plus values are 0 or underflow) and is set to 0 after
    zero = scale == 0.0
    xu = xs / (nx + zero)[:, None]  # exactly nx / ny on the other rows
    yu = ys / (ny + zero)[:, None]

    rows = len(xs)
    depth = int(n_max // 8).bit_length()  # the rules of 8, 16, ... <= n_max nodes
    ests = np.zeros((depth, rows), dtype=np.complex128)
    gaps = np.zeros(rows)
    levels = np.ones(rows, dtype=int)

    n = 8
    phases = _nodes(n)
    vals = rho_plus_directions(spec, xu, phases[None, :, None] * yu[:, None, :])[0]
    ests[0] = (2.0 / n) * (phases * vals).sum(axis=1)
    active = slice(None)  # the rows still refining: all, until one settles
    level = 0
    # n_max >= 16, so the first refinement always runs and defines the gap
    while 2 * n <= n_max and len(vals):
        n *= 2
        new_phases = _nodes(n)[1::2]
        nvals = rho_plus_directions(spec, xu, new_phases[None, :, None] * yu[:, None, :])[0]
        # the n-node rule reuses every node of the n/2-node rule
        vals2 = np.empty((len(vals), n))
        vals2[:, 0::2], vals2[:, 1::2] = vals, nvals
        phases, vals = _nodes(n), vals2

        level += 1
        est = (2.0 / n) * (phases * vals).sum(axis=1)
        ests[level, active] = est
        levels[active] = level + 1
        gap = _modulus(est - ests[level - 1, active])
        gaps[active] = gap
        keep = ~(gap < tol)
        if not keep.all():
            active = np.arange(rows)[active][keep]
            vals, xu, yu = vals[keep], xu[keep], yu[keep]

    last = ests[levels - 1, np.arange(rows)]
    return (np.where(zero, 0j, last * scale), np.where(zero, 0.0, gaps * scale),
            zero | (gaps < tol), ests * scale, np.where(zero, 0, levels))


def quadrature_rho_inf(spec: NormSpec, x, y, *, tol: float = DEFAULT_QUAD_TOL,
                       n_max: int = DEFAULT_N_MAX
                       ) -> tuple[FunctionalValue, QuadratureTrace]:
    """rho_inf by periodic trapezoid rule with node doubling: the one-row
    call of quadrature_pairs, with its refinement history as a trace."""
    x = vector(x)
    y = vector(y)
    values, errs, conv, ests, levels = quadrature_pairs(
        spec, x[None], y[None], tol=tol, n_max=n_max)
    k = int(levels[0])
    fv = FunctionalValue(complex(values[0]), float(errs[0]), QUADRATURE,
                         bool(conv[0]))
    trace = QuadratureTrace(tuple(8 << j for j in range(k)),
                            tuple(complex(e) for e in ests[:k, 0]), float(errs[0]))
    return fv, trace


def rho_inf_traced(spec: NormSpec, x, y, *, tol: float = DEFAULT_QUAD_TOL,
                   n_max: int = DEFAULT_N_MAX,
                   force_path: str | None = None
                   ) -> tuple[FunctionalValue, QuadratureTrace | None]:
    """rho_inf with the quadrature trace when that path ran (else None)."""
    x = vector(x)
    y = vector(y)
    check_dim(spec, x)
    check_dim(spec, y)
    path = CLOSED_FORM if force_path is None else force_path
    if path == CLOSED_FORM:  # exact, and 0 when x or y is 0
        v = spec.kernel.rho_inf_pairs(x[None], y[None]).item()
        return FunctionalValue(v, 0.0, CLOSED_FORM, True), None
    if path == QUADRATURE:
        return quadrature_rho_inf(spec, x, y, tol=tol, n_max=n_max)
    raise ValueError(f"unknown path {path!r}")


def rho_inf(spec: NormSpec, x, y, *, tol: float = DEFAULT_QUAD_TOL,
            n_max: int = DEFAULT_N_MAX,
            force_path: str | None = None) -> FunctionalValue:
    """The angular-average functional; see module docstring for the paths."""
    return rho_inf_traced(spec, x, y, tol=tol, n_max=n_max,
                          force_path=force_path)[0]
