import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normlab as nl
from normlab.derivatives import (
    CLOSED_FORM,
    NUMERIC_LIMIT,
    QUOTIENT_NOISE,
    STEPS,
    limit_quotient_table,
)

from conftest import family_specs, gaussian_pair, unit_pair

L1 = nl.lp(1, 2)
L25 = nl.lp(2.5, 4)


def test_rho_plus_l1_paper_pair():
    # rho_plus((1,0),(i,0)) in l1: the closed form gives Re(i) = 0 exactly
    v = nl.rho_plus(L1, [1, 0], [1j, 0])
    assert v.value == 0j and v.path == CLOSED_FORM


def test_rho_plus_l1_unit_pair_direct_evaluation():
    # independent oracle: |(1,1) + t (1,-1)|_1 = (1+t) + (1-t) = 2 for 0 < t < 1,
    # so every difference quotient vanishes and the one-sided limit is 0
    x = np.array([1.0, 1.0])
    y = np.array([1.0, -1.0])
    for t in (0.5, 1e-3, 1e-6, 1e-9):
        quotient = (np.abs(x + t * y).sum() - 2.0) / t
        assert quotient == 0.0
    assert nl.rho_plus(L1, x, y).value == 0j
    assert nl.rho_minus(L1, x, y).value == 0j


@pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family + str(s.p or ""))
def test_rho_plus_self_is_norm_squared(spec, rng):
    for _ in range(15):
        x, _ = gaussian_pair(rng, spec.dim)
        v = nl.rho_plus(spec, x, x)
        assert v.value.real == pytest.approx(nl.norm(spec, x) ** 2, rel=1e-7)
        m = nl.rho_minus(spec, x, x)
        assert m.value.real == pytest.approx(nl.norm(spec, x) ** 2, rel=1e-7)


def test_rho_minus_examples():
    pd = nl.pd_inner(np.eye(2))
    assert nl.rho_minus(pd, [1, 0], [0, 1]).value == 0j
    assert nl.rho_minus(L1, [1, 1], [1, -1]).value == 0j


def test_zero_inputs_are_exact():
    for spec in (L1, L25):
        z = np.zeros(spec.dim)
        x = np.ones(spec.dim)
        for v in (nl.rho_plus(spec, z, x), nl.rho_plus(spec, x, z),
                  nl.rho_minus(spec, z, x)):
            assert v.value == 0j and v.abs_error == 0.0 and v.converged


def test_nd1_exact_identity_forced_numeric(rng):
    # both sides evaluate the same floating-point quotients, so the identity
    # rho_minus(x,y) = -rho_plus(x,-y) holds to the last bit
    for _ in range(20):
        x, y = unit_pair(L25, rng)
        lhs = nl.rho_minus(L25, x, y, force_path=NUMERIC_LIMIT).value.real
        rhs = -nl.rho_plus(L25, x, -y, force_path=NUMERIC_LIMIT).value.real
        assert abs(lhs - rhs) <= 1e-12


def test_rho_minus_against_left_limit_oracle(rng):
    # independent oracle: evaluate the left difference quotient directly on
    # a negative step schedule; by convexity it increases up to rho_minus
    # (the 1e-7 slack covers float64 cancellation at the smallest steps)
    for _ in range(10):
        x, y = unit_pair(L25, rng)
        quotients = [(nl.norm(L25, x + t * y) - 1.0) / t for t in -STEPS]
        assert all(a <= b + 1e-7 for a, b in zip(quotients, quotients[1:]))
        v = nl.rho_minus(L25, x, y)
        assert v.value.real == pytest.approx(quotients[-1], abs=1e-6)


def test_nd2_translation(rng):
    for spec in (L1, L25):
        for _ in range(30):
            x, y = unit_pair(spec, rng)
            a = complex(*rng.standard_normal(2))
            va = nl.rho_plus(spec, x, a * x + y)
            vb = nl.rho_plus(spec, x, y)
            tol = max(1e-8, 2 * (va.abs_error + vb.abs_error))
            assert va.value.real == pytest.approx(a.real + vb.value.real, abs=tol)


def test_nd3_phase_homogeneity(rng):
    for spec in (L1, L25):
        for _ in range(30):
            x, y = unit_pair(spec, rng)
            a = complex(*rng.standard_normal(2))
            b = complex(*rng.standard_normal(2))
            vl = nl.rho_plus(spec, a * x, b * y)
            phase = np.exp(1j * (np.angle(b) - np.angle(a)))
            vr = nl.rho_plus(spec, x, phase * y)
            tol = max(1e-8, 2 * (vl.abs_error + vr.abs_error)) * max(1.0, abs(a * b))
            assert vl.value.real == pytest.approx(abs(a * b) * vr.value.real, abs=tol)


def test_nd4_bound(rng):
    for spec in family_specs():
        for _ in range(20):
            x, y = unit_pair(spec, rng)
            assert abs(nl.rho_plus(spec, x, y).value.real) <= 1.0 + 1e-9


def test_numeric_limit_agrees_with_l1_closed_form(rng):
    worst = 0.0
    wspec = nl.weighted_l1([0.7, 1.3, 2.1])
    for spec in (nl.lp(1, 3), wspec):
        for _ in range(40):
            x, y = gaussian_pair(rng, 3)
            closed = nl.rho_plus(spec, x, y)
            numeric = nl.rho_plus(spec, x, y, force_path=NUMERIC_LIMIT)
            assert closed.path == CLOSED_FORM and numeric.path == NUMERIC_LIMIT
            worst = max(worst, abs(closed.value.real - numeric.value.real))
    assert worst <= 1e-6


def test_numeric_limit_on_zero_support_components():
    # zero components of x contribute |y_k| to the right derivative
    spec = nl.lp(1, 2)
    v = nl.rho_plus(spec, [1, 0], [0, 1])
    assert v.value.real == pytest.approx(1.0, abs=1e-15)
    numeric = nl.rho_plus(spec, [1, 0], [0, 1], force_path=NUMERIC_LIMIT)
    assert numeric.value.real == pytest.approx(1.0, abs=1e-7)


def test_quotient_monotone_in_step(rng):
    for spec in (L25, nl.lp(np.inf, 3), nl.lp(1, 3)):
        for _ in range(20):
            x, y = gaussian_pair(rng, spec.dim)
            g = limit_quotient_table(spec, x, y)
            rises = np.diff(g)
            assert rises.max() <= QUOTIENT_NOISE


def test_nonconvergence_flag_on_extreme_curvature():
    # p = 200 with tied components: the quotient still moves at the last
    # step, so the value must come back flagged instead of silently wrong
    # (the flag belongs to the limit, so the limit is forced)
    spec = nl.lp(200, 2)
    v = nl.rho_plus(spec, [1, 1], [1, -1], force_path=NUMERIC_LIMIT)
    assert not v.converged
    assert v.abs_error > 1e-6


def test_milicic_examples(rng):
    pd = nl.pd_inner(np.eye(2))
    assert nl.rho_milicic(pd, [1, 0], [1j, 0]).value == 0j
    for spec in family_specs():
        x, _ = gaussian_pair(rng, spec.dim)
        v = nl.rho_milicic(spec, x, x)
        assert v.value.real == pytest.approx(nl.norm(spec, x) ** 2, rel=1e-7)
    # at smooth points the one-sided derivatives coincide
    l3 = nl.lp(3, 4)
    for _ in range(20):
        x, y = unit_pair(l3, rng)
        m = nl.rho_milicic(l3, x, y)
        p = nl.rho_plus(l3, x, y)
        assert m.value.real == pytest.approx(p.value.real, abs=1e-7)


def test_rho_lambda_endpoints(rng):
    x, y = unit_pair(L25, rng)
    p = nl.rho_plus(L25, x, y).value.real
    m = nl.rho_minus(L25, x, y).value.real
    assert nl.rho_lambda(L25, x, y, 0.0).value.real == pytest.approx(p, abs=1e-12)
    assert nl.rho_lambda(L25, x, y, 1.0).value.real == pytest.approx(m, abs=1e-12)
    mid = nl.rho_lambda(L25, x, y, 0.5).value.real
    assert mid == pytest.approx(nl.rho_milicic(L25, x, y).value.real, abs=1e-12)
    with pytest.raises(ValueError):
        nl.rho_lambda(L25, x, y, 1.5)


def test_rho_lambda_upsilon(rng):
    x, y = unit_pair(L1, rng)
    lam = 0.3
    # k = 1 collapses the exponents onto rho_lambda
    a = nl.rho_lambda_upsilon(L1, x, y, lam, 1).value.real
    b = nl.rho_lambda(L1, x, y, lam).value.real
    assert a == pytest.approx(b, abs=1e-12)
    # x = y gives the norm squared for every lambda and k
    u25, _ = unit_pair(L25, rng)
    for k in (1, 2, 5):
        v = nl.rho_lambda_upsilon(L25, u25, u25, 0.7, k)
        assert v.value.real == pytest.approx(1.0, abs=1e-7)
    # inner-product recovery: both one-sided derivatives equal Re<x,y>
    pd = nl.pd_inner(np.eye(3))
    for _ in range(10):
        u, v = unit_pair(pd, rng)
        expect = nl.gram_inner(pd, u, v).real
        for k in (1, 2, 3):
            got = nl.rho_lambda_upsilon(pd, u, v, 0.25, k).value.real
            assert got == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ValueError):
        nl.rho_lambda_upsilon(L1, x, y, 0.5, 0)


def test_mixed_sign_odd_roots_stay_real():
    # a kink is needed for opposite signs: with x = (1, 0) the zero component
    # contributes +|y_2| on the right and -|y_2| on the left
    spec = nl.lp(1, 2)
    x = np.array([1.0, 0.0])
    y = np.array([0.2, 0.5])
    p = nl.rho_plus(spec, x, y).value.real
    m = nl.rho_minus(spec, x, y).value.real
    assert p == pytest.approx(0.7, abs=1e-15)
    assert m == pytest.approx(-0.3, abs=1e-15)
    lam, k = 0.4, 2  # upsilon = 1/3
    term1 = -(0.3 ** (1 / 3)) * 0.7 ** (2 / 3)
    term2 = +(0.7 ** (1 / 3)) * 0.3 ** (2 / 3)
    v = nl.rho_lambda_upsilon(spec, x, y, lam, k)
    assert v.value.imag == 0.0
    assert v.value.real == pytest.approx(lam * term1 + (1 - lam) * term2, abs=1e-12)


def test_functional_values_are_real(rng):
    for spec in family_specs():
        x, y = gaussian_pair(rng, spec.dim)
        for fn in (nl.rho_plus, nl.rho_minus, nl.rho_milicic):
            assert fn(spec, x, y).value.imag == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_nd1_identity_property(seed):
    rng = np.random.default_rng(seed)
    x, y = gaussian_pair(rng, 3)
    spec = nl.lp(1.7, 3)
    lhs = nl.rho_minus(spec, x, y).value.real
    rhs = -nl.rho_plus(spec, x, -y).value.real
    assert lhs == pytest.approx(rhs, abs=1e-12)
