import numpy as np
import pytest

import normlab as nl
from normlab.derivatives import CLOSED_FORM, NUMERIC_LIMIT, QUADRATURE

from conftest import family_specs, gaussian_pair, random_pd_gram, unit_pair

L1 = nl.lp(1, 2)


def test_root_sum_identity_values():
    assert abs(nl.root_sum_identity(2) - 2.0) <= 1e-14
    for n in (3, 7):
        assert abs(nl.root_sum_identity(n)) <= 1e-14
    with pytest.raises(ValueError):
        nl.root_sum_identity(0)


def test_rho_n_requires_n_above_two():
    for n in (0, 1, 2):
        with pytest.raises(nl.NTooSmallError):
            nl.rho_n(L1, [1, 0], [0, 1], n)


def test_rho_n_self_norm_squared(rng):
    for spec in family_specs():
        x, _ = gaussian_pair(rng, spec.dim)
        v = nl.rho_n(spec, x, x, 4)
        assert abs(v.value - nl.norm(spec, x) ** 2) <= 1e-6 * (1 + abs(v.value))


def test_rho_n_inner_product_recovery():
    pd = nl.pd_inner(np.eye(2))
    v = nl.rho_n(pd, [1, 0], [0, 1], 3)
    assert abs(v.value) <= 1e-14


def _l1_rho_plus_oracle(x, y):
    # the l1 right derivative, written out independently for the oracle
    out = 0.0
    for xk, yk in zip(x, y):
        if xk != 0:
            out += abs(xk) * (yk / xk).real
        else:
            out += abs(yk)
    return np.abs(x).sum() * out


def test_rho_n_64_matches_brute_force_oracle():
    # brute-force sum over the 64 roots of unity with the oracle above;
    # for x=(1,0), y=(i,0) every node value is -sin(theta), and the sum
    # collapses to exactly -i
    x = np.array([1.0, 0.0])
    y = np.array([1j, 0.0])
    acc = 0j
    n = 64
    for k in range(1, n + 1):
        c = np.exp(2j * np.pi * k / n)
        acc += c * _l1_rho_plus_oracle(x, c * y)
    acc *= 2.0 / n
    assert acc == pytest.approx(-1j, abs=1e-13)
    v = nl.rho_n(L1, x, y, n)
    assert v.value == pytest.approx(acc, abs=1e-13)
    assert v.value == pytest.approx(nl.rho_inf(L1, x, y).value, abs=1e-13)


def test_rho_n_converges_to_rho_inf(rng):
    # beyond n = 32 the error against the closed form must not increase
    for _ in range(10):
        x, y = gaussian_pair(rng, 2)
        target = nl.rho_inf(L1, x, y).value
        errs = [abs(nl.rho_n(L1, x, y, n).value - target) for n in (32, 64, 128, 256)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_rho_inf_l1_worked_examples():
    assert nl.rho_inf(L1, [1, 0], [1j, 0]).value == -1j
    assert nl.rho_inf(L1, [0, 1], [2, 1]).value == 1 + 0j
    assert nl.rho_inf(L1, [1, 1], [1, -1]).value == 0j


def test_rho_inf_self_and_pd(rng):
    pd = nl.pd_inner(np.eye(2))
    assert nl.rho_inf(pd, [1, 1j], [1, 0]).value == 1 + 0j
    for spec in family_specs():
        x, _ = gaussian_pair(rng, spec.dim)
        v = nl.rho_inf(spec, x, x)
        assert abs(v.value - nl.norm(spec, x) ** 2) <= 1e-6 * (1 + abs(v.value))


def test_rho_inf_zero_inputs():
    v = nl.rho_inf(L1, [0, 0], [1, 2])
    assert v.value == 0j and v.abs_error == 0.0
    assert nl.rho_inf(L1, [1, 2], [0, 0]).value == 0j
    # a forced oracle reports its own path, also where it evaluates no node
    forced, trace = nl.rho_inf_traced(L1, [0, 0], [1, 2], force_path=QUADRATURE)
    assert forced.value == 0j and forced.path == QUADRATURE
    assert trace.node_counts == ()


def test_dispatch_paths(rng):
    # every kernel's default path is its closed form, in every dimension
    makers = [
        lambda d: nl.lp(1, d),
        lambda d: nl.lp(2.5, d),
        lambda d: nl.lp(np.inf, d),
        lambda d: nl.weighted_l1(np.arange(1.0, d + 1)),
        lambda d: nl.pd_inner(np.eye(d)),
        lambda d: nl.polyhedral(np.vstack([np.eye(d), np.full((1, d), 0.5 + 0.5j)])),
    ]
    for dim in (3, 1):
        x, y = gaussian_pair(rng, dim)
        for make in makers:
            spec = make(dim)
            assert nl.rho_plus(spec, x, y).path == CLOSED_FORM, spec
            assert nl.rho_inf(spec, x, y).path == CLOSED_FORM, spec
    with pytest.raises(ValueError, match="unknown path"):
        nl.rho_inf(L1, [1, 0], [0, 1], force_path="smooth_fast_path")


def _smooth_identity(spec, x, y, force_path=None):
    """rho_plus(x, y) + i rho_plus(x, iy): rho_inf wherever the norm is
    smooth at x, because rho_plus is then real-linear in y."""
    re = nl.rho_plus(spec, x, y, force_path=force_path).value.real
    im = nl.rho_plus(spec, x, 1j * y, force_path=force_path).value.real
    return complex(re, im)


def test_smooth_identity_matches_the_closed_form(rng):
    # every norm is smooth in dimension one
    specs = [nl.lp(1.2, 3), nl.lp(2.5, 3), nl.lp(7, 3),
             nl.pd_inner(random_pd_gram(rng, 3)), *family_specs(dim=1)]
    for spec in specs:
        for _ in range(10):
            x, y = gaussian_pair(rng, spec.dim)
            closed = nl.rho_inf(spec, x, y).value
            scale = nl.norm(spec, x) * nl.norm(spec, y)
            assert abs(closed - _smooth_identity(spec, x, y)) <= 1e-12 * scale, spec
            numeric = _smooth_identity(spec, x, y, force_path=NUMERIC_LIMIT)
            assert abs(closed - numeric) <= 1e-7 * scale, spec
    # but not at a kink: on the pinned lp:inf reproducer x sits on a 3-way
    # tie, where rho_plus is not real-linear in y
    spec = nl.lp(np.inf, 3)
    x = np.array([1.0, 1.0, 1.0])
    y = np.array([0.8 + 0.9j, -0.4 + 0.1j, -1.5 - 0.8j])
    assert _smooth_identity(spec, x, y) == pytest.approx(0.8 + 0.8j, abs=1e-15)
    assert nl.rho_inf(spec, x, y).value == pytest.approx(
        -0.3506466958810921 - 0.05087450481651662j, abs=1e-12)


def test_forced_quadrature_agrees_with_closed_form(rng):
    worst = 0.0
    for _ in range(30):
        x, y = gaussian_pair(rng, 2)
        closed = nl.rho_inf(L1, x, y).value
        quad = nl.rho_inf(L1, x, y, force_path=QUADRATURE).value
        worst = max(worst, abs(closed - quad) / (nl.norm(L1, x) * nl.norm(L1, y)))
    assert worst <= 1e-6


def test_forced_quadrature_agrees_with_smooth_path(rng):
    spec = nl.lp(3, 3)
    worst = 0.0
    for _ in range(30):
        x, y = unit_pair(spec, rng)
        smooth = nl.rho_inf(spec, x, y).value
        quad = nl.rho_inf(spec, x, y, force_path=QUADRATURE).value
        worst = max(worst, abs(smooth - quad))
    assert worst <= 1e-6


def test_weighted_l1_closed_form_vs_quadrature(rng):
    spec = nl.weighted_l1([0.5, 1.5, 2.5])
    for _ in range(15):
        x, y = gaussian_pair(rng, 3)
        closed = nl.rho_inf(spec, x, y).value
        quad = nl.rho_inf(spec, x, y, force_path=QUADRATURE).value
        assert abs(closed - quad) <= 1e-6 * nl.norm(spec, x) * nl.norm(spec, y)


def test_homogeneity_invariant(rng):
    for spec in (nl.lp(1, 4), nl.lp(2, 4), nl.lp(3, 4), nl.lp(np.inf, 4)):
        for _ in range(25):
            x, y = unit_pair(spec, rng)
            a = complex(*rng.standard_normal(2))
            b = complex(*rng.standard_normal(2))
            va = nl.rho_inf(spec, a * x, b * y)
            vb = nl.rho_inf(spec, x, y)
            ab = a * np.conj(b)
            allow = max(1e-7, 3 * (va.abs_error + abs(ab) * vb.abs_error)) * (1 + abs(ab))
            assert abs(va.value - ab * vb.value) <= allow


def test_translation_invariant(rng):
    for spec in (nl.lp(1, 4), nl.lp(3, 4), nl.lp(np.inf, 4)):
        for _ in range(25):
            x, y = unit_pair(spec, rng)
            a = complex(*rng.standard_normal(2))
            va = nl.rho_inf(spec, x, a * x + y)
            vb = nl.rho_inf(spec, x, y)
            allow = max(1e-7, 3 * (va.abs_error + vb.abs_error)) * (1 + abs(a)) * 2
            assert abs(va.value - (np.conj(a) + vb.value)) <= allow


def test_universal_and_dual_bounds(rng):
    four_over_pi = 4.0 / np.pi
    for spec in family_specs():
        info = nl.dual_segment_constant(spec)
        for _ in range(25):
            x, y = unit_pair(spec, rng)
            v = nl.rho_inf(spec, x, y)
            slack = 1e-9 if v.path == CLOSED_FORM else 1e-6
            assert abs(v.value) <= four_over_pi + slack
            if info.r_dual is not None:
                assert abs(v.value) <= 1.0 + 2.0 * info.r_dual + slack


def test_rho_n_property_suite(rng):
    pd = nl.pd_inner(np.eye(3))
    for spec in (nl.lp(1, 3), nl.lp(2.5, 3), nl.lp(np.inf, 3)):
        for _ in range(10):
            x, y = unit_pair(spec, rng)
            for n in (3, 4, 7, 16):
                assert abs(nl.rho_n(spec, x, x, n).value - 1.0) <= 1e-6
                assert abs(nl.rho_n(spec, x, y, n).value) <= 2.0 + 1e-9
    for _ in range(10):
        u, v = unit_pair(pd, rng)
        for n in (3, 4, 7, 16):
            got = nl.rho_n(pd, u, v, n).value
            assert abs(got - nl.gram_inner(pd, u, v)) <= 1e-8


def test_quadrature_trace_structure(rng):
    spec = nl.lp(np.inf, 3)
    x, y = gaussian_pair(rng, 3)
    value, trace = nl.quadrature_rho_inf(spec, x, y)
    assert value.converged
    counts = np.array(trace.node_counts)
    assert np.all(counts[1:] == 2 * counts[:-1])
    assert trace.final_gap == pytest.approx(
        abs(trace.estimates[-1] - trace.estimates[-2]), rel=1e-12)
    assert value.value == trace.estimates[-1]


def test_quadrature_nonconvergence_flag():
    # three tied components need more than 16 nodes; a tiny n_max must
    # return the best estimate flagged, with the trace attached
    spec = nl.lp(np.inf, 3)
    x = np.array([1.0, 1.0j, -1.0])
    y = np.array([0.3 + 0.2j, -1.1 + 0.7j, 0.4 - 0.9j])
    value, trace = nl.quadrature_rho_inf(spec, x, y, n_max=16)
    assert not value.converged
    assert len(trace.estimates) == 2
    # the default budget settles the same input or honestly reports not
    full, full_trace = nl.quadrature_rho_inf(spec, x, y)
    assert full_trace.node_counts[-1] <= 4096
    ref = nl.rho_n(spec, x, y, 4096).value
    assert abs(full.value - ref) <= 1e-9


def test_quadrature_stays_within_its_node_budget():
    # tol=1e-14 is never met on this tie, so every budget is spent
    spec = nl.lp(np.inf, 3)
    x = np.array([1.0, 1.0j, -1.0])
    y = np.array([0.3 + 0.2j, -1.1 + 0.7j, 0.4 - 0.9j])
    for n_max in (100, 1000):
        value, trace = nl.quadrature_rho_inf(spec, x, y, tol=1e-14, n_max=n_max)
        assert trace.node_counts[-1] <= n_max < 2 * trace.node_counts[-1]
        assert not value.converged
    for n_max in (4, 15, -5):
        with pytest.raises(ValueError, match="n_max"):
            nl.quadrature_rho_inf(spec, x, y, n_max=n_max)


def test_quadrature_equals_rho_n_at_same_node_count(rng):
    spec = nl.lp(np.inf, 2)
    x, y = gaussian_pair(rng, 2)
    value, trace = nl.quadrature_rho_inf(spec, x, y)
    n_final = trace.node_counts[-1]
    ref = nl.rho_n(spec, x, y, n_final)
    assert abs(value.value - ref.value) <= 1e-6
