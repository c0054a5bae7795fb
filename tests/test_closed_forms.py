"""The closed forms of rho_plus, rho_inf and the Birkhoff-James slope at the
points that random Gaussian pairs almost never reach: ties of max-modulus
norms, zero coordinates of lp with 1 < p < 2 and of l1, extreme scales; and
against the numeric-limit oracle or a dense sweep on every family."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import normlab as nl
from normlab.derivatives import CLOSED_FORM, NUMERIC_LIMIT, QUADRATURE, rho_plus_rows
from normlab.spaces import TIE_RTOL

from conftest import POLY_ROWS, family_specs, gaussian_pair

PINNED_X = [1, 1, 1]
PINNED_Y = [0.8 + 0.9j, -0.4 + 0.1j, -1.5 - 0.8j]
PINNED_RHO_INF = -0.35064669588109215 - 0.05087450481651675j


def _tie(rng, f, size):
    """x with |f_j x| = 1 on `size` functionals and < 1 on the others,
    from a 3x3 solve on three rows of f; returns x and the tied rows."""
    while True:
        rows = rng.choice(f.shape[0], 3, replace=False)
        target = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 3))
        target[size:] *= rng.uniform(0.0, 0.8, 3 - size)
        x = np.linalg.solve(f[rows], target)
        others = np.delete(np.abs(f @ x), rows[:size])
        if others.size == 0 or others.max() < 1.0 - 1e-6:
            return x, sorted(rows[:size])


def _envelope_rho_inf(f, x, y, tied):
    """(N(x)/pi) * integral of e^{it} N(x) max_{j tied} Re(conj(u_j) f_j e^{it} y),
    the envelope written out, each piece integrated by adaptive quadrature."""
    fx = f @ x
    nx = float(np.abs(fx).max())
    cs = [(fx[j] / abs(fx[j])).conjugate() * (f[j] @ y) for j in tied]
    cuts = {0.0, 2.0 * math.pi}
    for a in cs:
        for b in cs:
            if a != b:
                cuts.add((math.pi / 2 - cmath.phase(a - b)) % (2.0 * math.pi))
    cuts = sorted(cuts)

    def env(t):
        return max((c * cmath.exp(1j * t)).real for c in cs)

    total = 0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        re = quad(lambda t: math.cos(t) * env(t), a, b, epsabs=1e-15)[0]
        im = quad(lambda t: math.sin(t) * env(t), a, b, epsabs=1e-15)[0]
        total += complex(re, im)
    return nx * total / math.pi, [nx * c for c in cs]


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("family", ["lpinf", "poly"])
def test_ties_match_the_written_out_envelope(family, size):
    rng = np.random.default_rng((31, size, family == "poly"))
    f = np.eye(3, dtype=complex) if family == "lpinf" else POLY_ROWS
    spec = nl.lp(np.inf, 3) if family == "lpinf" else nl.polyhedral(f)
    for _ in range(6):
        x, tied = _tie(rng, f, size)
        y = gaussian_pair(rng, 3)[0]
        scale = nl.norm(spec, x) * nl.norm(spec, y)
        ref, cs = _envelope_rho_inf(f, x, y, tied)
        got = nl.rho_inf(spec, x, y)
        assert got.path == CLOSED_FORM
        assert abs(got.value - ref) <= 1e-12 * scale
        # rho_plus along the circle is the envelope itself
        for t in np.linspace(0.0, 2.0 * np.pi, 7):
            rot = np.exp(1j * t)
            env = max((c * rot).real for c in cs)
            assert abs(nl.rho_plus(spec, x, rot * y).value.real - env) <= 1e-13 * scale
            limit = nl.rho_plus(spec, x, rot * y, force_path=NUMERIC_LIMIT)
            assert abs(limit.value.real - env) <= 1e-7 * scale


def test_tie_tolerance_sets_the_active_functionals():
    spec = nl.lp(np.inf, 3)
    y = np.array([0.3, 2.0 + 1.0j, -1.0])
    tied = nl.rho_plus(spec, [1.0, 1.0, 0.5], y).value.real
    assert tied == pytest.approx(2.0)
    near = nl.rho_plus(spec, [1.0, 1.0 - 0.1 * TIE_RTOL, 0.5], y).value.real
    assert near == pytest.approx(tied, abs=1e-12)
    apart = nl.rho_plus(spec, [1.0, 1.0 - 1e3 * TIE_RTOL, 0.5], y).value.real
    assert apart == pytest.approx(0.3)


def test_pinned_reproducer_is_exact():
    # x = 1,1,1 is a three-way tie; the 8- and 16-node trapezoid rules agree
    # there although both are 1e-3 off, so quadrature once stopped early
    spec = nl.lp(np.inf, 3)
    v = nl.rho_inf(spec, PINNED_X, PINNED_Y)
    assert v.path == CLOSED_FORM and v.converged
    assert abs(v.value - PINNED_RHO_INF) <= 1e-12
    # no gap here falls below tol=1e-300, so the trapezoid rule runs to its
    # 4096-node budget
    quad4096, trace = nl.quadrature_rho_inf(spec, PINNED_X, PINNED_Y, tol=1e-300)
    assert trace.node_counts[-1] == 4096
    assert abs(quad4096.value - PINNED_RHO_INF) <= 1e-6
    assert abs(nl.rho_n(spec, PINNED_X, PINNED_Y, 4096).value - PINNED_RHO_INF) <= 1e-6


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_lp_zero_coordinates_below_p_two(p):
    spec = nl.lp(p, 4)
    rng = np.random.default_rng(int(10 * p))
    for x in ([1 + 1j, 0, -0.5, 0], [0, 0, 2j, 0], [0.25, 0, 0, 0.5 - 0.5j]):
        x = np.array(x, dtype=complex)
        y = gaussian_pair(rng, 4)[0]
        nx = float(np.sum(np.abs(x) ** p) ** (1 / p))
        # |x|^(2-p) sum over the support of |x_k|^(p-1) Re(conj(sgn x_k) y_k)
        expect = nx ** (2 - p) * sum(
            abs(xk) ** (p - 1) * (np.conj(xk / abs(xk)) * yk).real
            for xk, yk in zip(x, y) if xk != 0)
        v = nl.rho_plus(spec, x, y)
        assert v.value.real == pytest.approx(expect, rel=1e-13, abs=1e-15)
        iv = nl.rho_plus(spec, x, 1j * y).value.real
        assert nl.rho_inf(spec, x, y).value == pytest.approx(complex(v.value.real, iv),
                                                             rel=1e-13, abs=1e-15)
        # every difference quotient lies above the limit, by convexity
        limit = nl.rho_plus(spec, x, y, force_path=NUMERIC_LIMIT)
        assert limit.value.real >= v.value.real - 1e-12
        if limit.converged:
            assert abs(limit.value.real - v.value.real) <= limit.abs_error


@pytest.mark.parametrize("scales", [(1e150, 1e150), (1e-150, 1e-150),
                                    (1e150, 1e-150), (1e-150, 1e150)])
def test_extreme_scales(rng, scales):
    s, t = scales
    specs = family_specs() + [nl.lp(1.3, 3), nl.lp(6, 3)]
    for spec in specs:
        for _ in range(3):
            x, y = gaussian_pair(rng, 3)
            for a, b in ((x, y), (np.array([1, 1j, -1]), y)):
                plus = nl.rho_plus(spec, a, b).value.real
                inf = nl.rho_inf(spec, a, b).value
                bound = nl.norm(spec, a) * nl.norm(spec, b)
                got_plus = nl.rho_plus(spec, s * a, t * b).value.real
                got_inf = nl.rho_inf(spec, s * a, t * b).value
                assert np.isfinite(got_plus) and np.isfinite(got_inf), spec
                assert abs(got_plus / (s * t) - plus) <= 1e-13 * bound, spec
                assert abs(got_inf / (s * t) - inf) <= 1e-13 * bound, spec


def test_closed_forms_against_the_numeric_limit_on_every_family(rng):
    specs = family_specs() + [nl.lp(1.3, 3), nl.lp(6, 3), nl.polyhedral(POLY_ROWS)]
    for spec in specs:
        for _ in range(10):
            x, y = gaussian_pair(rng, 3)
            scale = nl.norm(spec, x) * nl.norm(spec, y)
            closed = nl.rho_plus(spec, x, y).value.real
            limit = nl.rho_plus(spec, x, y, force_path=NUMERIC_LIMIT).value.real
            assert abs(closed - limit) <= 1e-7 * scale, spec
            # at generic points the integrand is smooth, so 64 trapezoid
            # nodes of numeric-limit values resolve rho_inf
            inf = nl.rho_inf(spec, x, y).value
            nodes = nl.rho_n(spec, x, y, 64, force_path=NUMERIC_LIMIT).value
            assert abs(inf - nodes) <= 1e-7 * scale, spec
            quadrature = nl.rho_inf(spec, x, y, force_path=QUADRATURE).value
            assert abs(inf - quadrature) <= 1e-7 * scale, spec


SWEEP = np.exp(2j * np.pi * np.arange(4096) / 4096)


def _assert_bj_slope_matches_sweep(spec, x, y):
    """The closed form of min_t rho_plus(x, e^{it} y) against 4096 angles.

    rho_plus(x, .) is |x|-Lipschitz, so along the circle rho_plus(x,
    e^{it} y) is |x| |y|-Lipschitz in t and the sweep's minimum lies
    within |x| |y| pi/4096 above the true one, never below it.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    scale = nl.norm(spec, x) * nl.norm(spec, y)
    vals, _, _, path = rho_plus_rows(spec, x, SWEEP[:, None] * y[None, :])
    assert path == CLOSED_FORM
    sweep = vals.min()
    slope = spec.kernel.bj_slope_pairs(x[None], y[None])[0]
    assert sweep - scale * np.pi / 4096 - 1e-13 * scale <= slope, spec
    assert slope <= sweep + 1e-13 * scale, spec
    return slope


def test_bj_slope_matches_a_dense_sweep_on_every_kernel(rng):
    specs = family_specs() + [nl.lp(1.3, 3), nl.lp(6, 3), nl.polyhedral(POLY_ROWS)]
    for spec in specs:
        for _ in range(5):
            x, y = gaussian_pair(rng, 3)
            _assert_bj_slope_matches_sweep(spec, x, y)
            # the constructed rho_inf-orthogonal pair of a smooth norm is
            # BJ-orthogonal: its slope is -|rho_inf| = 0 to rounding
            z = nl.decomposition_alpha(spec, x, y) * x + y
            if spec.kernel.smooth:
                scale = nl.norm(spec, x) * nl.norm(spec, z)
                assert abs(_assert_bj_slope_matches_sweep(spec, x, z)) <= 1e-12 * scale


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("family", ["lpinf", "poly"])
def test_bj_slope_at_ties(family, size):
    rng = np.random.default_rng((37, size, family == "poly"))
    f = np.eye(3, dtype=complex) if family == "lpinf" else POLY_ROWS
    spec = nl.lp(np.inf, 3) if family == "lpinf" else nl.polyhedral(f)
    signs = set()
    for _ in range(12):
        x, _ = _tie(rng, f, size)
        y = gaussian_pair(rng, 3)[0]
        signs.add(_assert_bj_slope_matches_sweep(spec, x, y) >= 0)
    if size == 3:
        # 0 lies in the triangle conv{c_j} for some draws and not for others
        assert signs == {True, False}


@pytest.mark.parametrize("spec", [nl.lp(1, 4), nl.weighted_l1([0.5, 1.0, 2.0, 0.25])],
                         ids=["lp1", "wl1"])
def test_bj_slope_at_zero_coordinates(spec, rng):
    w = np.ones(4) if spec.weights is None else spec.weights
    for x in ([1 + 1j, 0, -0.5, 0], [0, 0, 2j, 0], [0.25, 0, 0, 0.5 - 0.5j]):
        x = np.array(x, dtype=complex)
        y = gaussian_pair(rng, 4)[0]
        slope = _assert_bj_slope_matches_sweep(spec, x, y)
        zero = x == 0
        s = np.sum(w[~zero] * np.conj(x[~zero] / np.abs(x[~zero])) * y[~zero])
        expect = nl.norm(spec, x) * (np.sum(w[zero] * np.abs(y[zero])) - abs(s))
        assert slope == pytest.approx(expect, rel=1e-13, abs=1e-15)
    # x = (0, 1) is BJ-orthogonal to (2, 1) in l1 (criterion 2): 2 - 1 >= 0
    slope = nl.lp(1, 2).kernel.bj_slope_pairs(np.array([[0, 1 + 0j]]),
                                              np.array([[2, 1 + 0j]]))
    assert slope[0] == 1.0


@pytest.mark.parametrize("scales", [(1e150, 1e150), (1e-150, 1e-150),
                                    (1e150, 1e-150), (1e-150, 1e150)])
def test_bj_slope_at_extreme_scales(rng, scales):
    s, t = scales
    specs = family_specs() + [nl.lp(1.3, 3), nl.lp(6, 3)]
    for spec in specs:
        for _ in range(3):
            x, y = gaussian_pair(rng, 3)
            for a, b in ((x, y), (np.array([1, 1j, -1]), y)):
                slope = spec.kernel.bj_slope_pairs(a[None], b[None])[0]
                bound = nl.norm(spec, a) * nl.norm(spec, b)
                got = spec.kernel.bj_slope_pairs(s * a[None], t * b[None])[0]
                assert np.isfinite(got), spec
                assert abs(got / (s * t) - slope) <= 1e-13 * bound, spec
