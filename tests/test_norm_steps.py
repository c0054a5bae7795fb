"""norm_steps, the differences |x + t y| - |x| of the numeric limit, at the
points Gaussian draws miss: 2- and 3-way ties of max-modulus norms, exact
zero coordinates, coordinates far below t |y_k|, and unit rows scaled by
powers of two.

On every kernel the steps must be finite and raise no warning (pytest
turns warnings into errors), and agree with the difference of two
extended-precision norms to that difference's own rounding plus
QUOTIENT_ROUNDING.  The quotient tables must be monotone within
QUOTIENT_NOISE, and a converged numeric limit must lie within its
abs_error of the closed form.
"""

import numpy as np
import pytest

import normlab as nl
from normlab import derivatives
from normlab.derivatives import NUMERIC_LIMIT, QUOTIENT_NOISE, QUOTIENT_ROUNDING, STEPS
from normlab.spaces import _row_apply

from conftest import POLY_ROWS, family_specs

LD_EPS = float(np.finfo(np.longdouble).eps)


def kernel_specs():
    specs = {f"{s.family}{s.p or ''}-{d}": s for d in (1, 2, 3, 4) for s in family_specs(d)}
    specs["poly-rows"] = nl.polyhedral(POLY_ROWS)
    for p in (1.1, 1.5, 7.0):
        specs[f"lp{p}-3"] = nl.lp(p, 3)
    return specs


SPECS = kernel_specs()
KINDS = ("gauss", "zeros", "tiny", "ties", "scaled")


def gaussian(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def unit(spec, xs):
    return xs / spec.kernel.norm(xs)[:, None]


def tie(rng, f, size):
    """x with |f_j x| = 1 on `size` functionals and below 1 on the others,
    from a solve on d rows of f: the moduli tie to about an ulp."""
    d = f.shape[1]
    while True:
        rows = rng.choice(f.shape[0], d, replace=False)
        target = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))
        target[size:] *= rng.uniform(0.0, 0.8, d - size)
        x = np.linalg.solve(f[rows], target)
        others = np.delete(np.abs(f @ x), rows[:size])
        if others.size == 0 or others.max() < 1.0 - 1e-6:
            return x


def hard_points(spec, kind, rng):
    """Pairs (xs, ys) of one kind; unit rows except for the scaled kind,
    whose rows are unit rows times 2^k for k from -300 to 300."""
    d, n = spec.dim, 12
    xs, ys = gaussian(rng, n, d), gaussian(rng, n, d)
    if kind == "zeros":
        xs[rng.random((n, d)) < 0.4] = 0
        ys[6:][rng.random((n - 6, d)) < 0.4] = 0
    elif kind == "tiny":
        # far below t |y_k| at every step, where delta_k / |x_k|^2 overflows
        xs[rng.random((n, d)) < 0.4] = 1e-200 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    elif kind == "ties":
        sizes = 2 + np.arange(n) % min(2, d - 1)
        if spec.functionals is not None:
            xs = np.array([tie(rng, spec.functionals, size) for size in sizes])
        else:
            # exact ties: the tied coordinates are one coordinate times
            # powers of i, the others of smaller modulus
            xs *= 0.5 / np.abs(xs).max(axis=1)[:, None]
            for x, size in zip(xs, sizes):
                x[:size] = np.exp(2j * np.pi * rng.uniform()) * 1j ** rng.integers(0, 4, size)
    xs[np.abs(xs).max(axis=1) == 0, 0] = 1.0  # no zero rows
    ys[np.abs(ys).max(axis=1) == 0, 0] = 1.0
    xs, ys = unit(spec, xs), unit(spec, ys)
    if kind == "scaled":
        ks = np.array([-300, -37, -1, 0, 1, 37, 300])
        xs = xs * np.ldexp(1.0, rng.choice(ks, n))[:, None]
        ys = ys * np.ldexp(1.0, rng.choice(ks, n))[:, None]
    return xs, ys


def extended_norm(p, zs):
    """The p-norm of each row in extended precision; a difference of two
    loses about eps_ld / t of the quotient to cancellation."""
    a = np.abs(zs.astype(np.clongdouble))
    top = a.max(axis=-1)
    if p == np.inf:
        return top
    scale = np.where(top > 0, top, 1)
    return top * ((a / scale[..., None]) ** p).sum(axis=-1) ** (1 / np.longdouble(p))


# ties only where a max-modulus norm has them: in dim >= 2
CASES = [(name, kind) for name in sorted(SPECS) for kind in KINDS
         if kind != "ties" or (SPECS[name].kernel.p == np.inf and SPECS[name].dim >= 2)]


@pytest.mark.parametrize("name, kind", CASES)
def test_norm_steps_are_finite(name, kind):
    spec = SPECS[name]
    xs, ys = hard_points(spec, kind, np.random.default_rng((31, spec.dim)))
    steps = spec.kernel.norm_steps(xs, ys, STEPS)
    assert steps.shape == (STEPS.size, len(xs))
    assert np.isfinite(steps).all()


@pytest.mark.skipif(LD_EPS >= np.finfo(float).eps, reason="long double is double here")
@pytest.mark.parametrize("name, kind", CASES)
def test_norm_steps_match_an_extended_difference(name, kind):
    # the reference differences two extended norms of the same float64
    # images M x and M y the kernel forms; it rounds each norm to about
    # 2 eps_ld, which is 4 eps_ld |x| / t on the quotient
    spec = SPECS[name]
    k = spec.kernel
    xs, ys = hard_points(spec, kind, np.random.default_rng((32, spec.dim)))
    steps = k.norm_steps(xs, ys, STEPS)
    identity = np.array_equal(k.m, np.eye(len(k.m)))
    zs, ws = (xs, ys) if identity else (_row_apply(xs, k.m.T), _row_apply(ys, k.m.T))
    zl, wl = zs.astype(np.clongdouble), ws.astype(np.clongdouble)
    t = STEPS.astype(np.longdouble)[:, None, None]
    ref = extended_norm(k.p, zl[None] + t * wl[None]) - extended_norm(k.p, zl)[None]
    nx, ny = k.norm(xs), k.norm(ys)
    err = np.abs(steps - ref.astype(float)) / STEPS[:, None]
    allow = 4.0 * LD_EPS * (nx / STEPS[:, None] + ny) + QUOTIENT_ROUNDING * ny
    assert (err <= allow).all(), float((err / allow).max())


@pytest.mark.parametrize("name, kind", CASES)
def test_quotient_tables_are_monotone(name, kind):
    spec = SPECS[name]
    xs, ys = hard_points(spec, kind, np.random.default_rng((33, spec.dim)))
    table = derivatives.limit_quotient_tables(spec, xs, ys)
    assert np.diff(table, axis=1).max() <= QUOTIENT_NOISE


# Two kinds are left out.  At a coordinate of 1e-200 no step of the
# schedule reaches the limit: every quotient sees the coordinate as 0 and
# settles there, flagged converged.  A poly tie built by a solve is a near
# tie: its moduli differ by a fraction of an ulp, which the closed form
# treats as a tie (TIE_RTOL) while the quotients at the last steps see the
# larger one alone, by about that difference over t.
@pytest.mark.parametrize("name, kind", [
    (n, k) for n, k in CASES
    if k != "tiny" and not (k == "ties" and SPECS[n].functionals is not None)])
def test_converged_numeric_limit_is_within_its_error(name, kind):
    spec = SPECS[name]
    xs, ys = hard_points(spec, kind, np.random.default_rng((34, spec.dim)))
    closed = derivatives.rho_plus_directions(spec, xs, ys[:, None])[0]
    vals, errs, conv, path = derivatives.rho_plus_directions(
        spec, xs, ys[:, None], force_path=NUMERIC_LIMIT)
    assert path == NUMERIC_LIMIT
    miss = np.abs(vals - closed) - errs
    assert (miss[conv] <= 0.0).all(), float(miss[conv].max())
