import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normlab as nl

from conftest import random_pd_gram

L1 = nl.lp(1, 2)


def test_symmetry_witness_exact():
    # closed form both ways: rho_inf((1,1),(1,0)) = 2, rho_inf((1,0),(1,1)) = 1
    u = np.array([1.0, 1.0])
    w = np.array([1.0, 0.0])
    assert nl.rho_inf(L1, u, w).value == 2 + 0j
    assert nl.rho_inf(L1, w, u).value == 1 + 0j
    assert abs(nl.rho_inf(L1, u, w).value - nl.rho_inf(L1, w, u).value) == 1.0


def test_symmetry_defect_separates(rng):
    pd = nl.pd_inner(random_pd_gram(rng, 3))
    rep = nl.symmetry_defect(pd, 3, 100, 42)
    assert rep.conj_defect <= 1e-7
    assert rep.parallelogram_defect <= 1e-10
    # the raw reading fails in a complex inner-product space: rho_inf is
    # conjugate-symmetric, so the raw defect is 2|Im <x,y>|, order one
    assert rep.raw_defect > 0.1

    for spec in (nl.lp(1, 2), nl.lp(4, 2), nl.lp(4, 3)):
        r = nl.symmetry_defect(spec, spec.dim, 100, 42)
        assert r.raw_defect >= 0.1
        assert r.parallelogram_defect >= 1e-3
        assert r.worst_pair is not None


def test_symmetry_dim1_real_positive_pairs(rng):
    # one-dimensional norms are scalar multiples of the modulus; on real
    # positive pairs both orders give the same value
    for spec in (nl.lp(1, 1), nl.weighted_l1([2.5]), nl.polyhedral([[1.5]])):
        for _ in range(10):
            a, b = rng.uniform(0.1, 3.0, 2)
            f = nl.rho_inf(spec, [a], [b]).value
            g = nl.rho_inf(spec, [b], [a]).value
            assert abs(f - g) <= 1e-9 * (1 + abs(f))


def test_symmetry_defect_records_provenance():
    rep = nl.symmetry_defect(L1, 2, 50, 7)
    assert rep.samples == 50 and rep.seed == 7


def test_cs_audit_l1_conjecture_one():
    audit = nl.cs_bound_audit(L1, 2, 500, 42, nl.CONJECTURE_ONE)
    assert audit.max_ratio <= 1.0 + 1e-9
    assert audit.bound_used == 1.0
    assert audit.worst_pair is not None


def test_cs_audit_smooth_families_conjecture_one(rng):
    for spec in (nl.lp(1.5, 3), nl.lp(3, 3)):
        audit = nl.cs_bound_audit(spec, 3, 300, 42, nl.CONJECTURE_ONE)
        assert audit.max_ratio <= 1.0 + 1e-6


def test_cs_audit_equality_at_parallel_pair():
    # the Cauchy-Schwarz chain is tight at y = x
    spec = nl.lp(2, 3)
    x = np.array([1.0, 1j, 0.5])
    v = nl.rho_inf(spec, x, x).value
    assert abs(v) / nl.norm(spec, x) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_cs_audit_universal_bound_all_families(rng):
    f = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    for spec in (nl.lp(np.inf, 2), nl.polyhedral(f), nl.weighted_l1([1, 3])):
        audit = nl.cs_bound_audit(spec, 2, 200, 42, nl.UNIVERSAL_4_OVER_PI)
        assert audit.max_ratio <= audit.bound_used + 1e-6


def test_cs_audit_linf_pair_against_brute_quadrature():
    # oracle: 4096-node trapezoid of e^{i theta} rho_plus(x, e^{i theta} y)
    # with the max-norm right derivative evaluated from the active set
    x = np.array([1.0, 1.0])
    y = np.array([1.0, -1.0])

    def linf_rho_plus(xv, yv):
        a = np.abs(xv)
        active = a >= a.max() - 1e-15
        return a.max() * np.max((np.conj(xv[active]) * yv[active]).real
                                / a[active])

    n = 4096
    acc = 0j
    for k in range(1, n + 1):
        c = np.exp(2j * np.pi * k / n)
        acc += c * linf_rho_plus(x, c * y)
    acc *= 2.0 / n
    spec = nl.lp(np.inf, 2)
    v = nl.rho_inf(spec, x, y)
    assert v.value == pytest.approx(acc, abs=5e-6)
    ratio = abs(v.value) / (nl.norm(spec, x) * nl.norm(spec, y))
    assert ratio <= 4.0 / np.pi + 1e-6


def test_cs_audit_dual_constant_and_unknown():
    audit = nl.cs_bound_audit(L1, 2, 200, 42, nl.DUAL_CONSTANT)
    assert audit.bound_used == pytest.approx(5.0)
    assert audit.max_ratio <= audit.bound_used + 1e-6
    with pytest.raises(nl.RUnknownError):
        nl.cs_bound_audit(nl.polyhedral(np.eye(2)), 2, 10, 42, nl.DUAL_CONSTANT)
    with pytest.raises(ValueError):
        nl.cs_bound_audit(L1, 2, 10, 42, "made_up")


def test_norm_equivalence_identical_specs():
    rep = nl.norm_equivalence_constant(L1, L1, 2, 200, 42)
    assert rep.empirical_c == 0.0


def test_norm_equivalence_lp2_vs_pd_identity():
    rep = nl.norm_equivalence_constant(nl.lp(2, 3), nl.pd_inner(np.eye(3)),
                                       3, 200, 42)
    assert rep.empirical_c <= 1e-7


def test_norm_equivalence_l1_vs_l2():
    rep = nl.norm_equivalence_constant(nl.lp(1, 2), nl.lp(2, 2), 2, 500, 42)
    assert rep.ceiling is not None
    # R = 1 + 2 R(l-inf) = 5; frame constants approach M = 1, m = 1/sqrt(2),
    # so the predicted ceiling approaches 5 (1 + 2) = 15 from below
    assert rep.ceiling == pytest.approx(15.0, abs=0.2)
    assert rep.empirical_c <= rep.ceiling
    assert rep.m_est == pytest.approx(1 / np.sqrt(2), abs=0.02)
    assert rep.big_m_est <= 1.0 + 1e-12


def test_norm_equivalence_unknown_ceiling():
    rep = nl.norm_equivalence_constant(nl.polyhedral(np.eye(2)), nl.lp(2, 2),
                                       2, 50, 42)
    assert rep.ceiling is None


def test_operator_norm_l1_column_formula(rng):
    # for the l1 vector norm the operator norm is the largest column l1 sum
    spec = nl.lp(1, 3)
    for _ in range(5):
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        est, argmax = nl.operator_norm_estimate(spec, spec, t, samples=50, seed=1)
        exact = np.abs(t).sum(axis=0).max()
        assert est == pytest.approx(exact, rel=1e-9)
        assert nl.norm(spec, argmax) == pytest.approx(1.0, rel=1e-9)


def test_operator_norm_ascent_reaches_spectral_norm(rng):
    # on the Euclidean norm the maximizer is a top singular vector, which
    # no basis vector or sample hits: the ascent has to find it
    spec = nl.pd_inner(np.eye(3))
    for _ in range(5):
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        est, argmax = nl.operator_norm_estimate(spec, spec, t, samples=50, seed=1)
        assert est == pytest.approx(np.linalg.norm(t, 2), rel=1e-9)
        assert nl.norm(spec, argmax) == pytest.approx(1.0, rel=1e-9)


def test_map_analysis_l1_phase_permutation(rng):
    perm = np.zeros((3, 3), dtype=complex)
    order = [2, 0, 1]
    for i, j in enumerate(order):
        perm[i, j] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    ma = nl.map_preservation_analysis(nl.lp(1, 3), nl.lp(1, 3), perm,
                                      samples=100, seed=42)
    assert ma.preserves and not ma.witnesses
    assert ma.operator_norm_est == pytest.approx(1.0, abs=1e-12)
    assert ma.isometry_defect <= 1e-8
    assert ma.scale_identity_defect <= 1e-6


def test_map_analysis_diag_1_2_fails_with_witness():
    ma = nl.map_preservation_analysis(L1, L1, np.diag([1.0, 2.0]),
                                      samples=100, seed=42)
    assert not ma.preserves
    assert ma.witnesses
    assert ma.isometry_defect > ma.tol  # contrapositive direction
    w = ma.witnesses[0]
    assert nl.perp_rho_inf(L1, w.x, w.y).orthogonal
    t = np.diag([1.0, 2.0])
    assert not nl.perp_rho_inf(L1, t @ w.x, t @ w.y).orthogonal


def test_map_analysis_canonical_diag_pair():
    # the pair u=(1,1), v=(1,-1) is rho_inf-orthogonal; diag(1,2) sends it
    # to ((1,2),(1,-2)) with rho_inf = 3 (1 - 2) = -3, found by closed form
    t = np.diag([1.0, 2.0])
    u = np.array([1.0, 1.0])
    v = np.array([1.0, -1.0])
    assert nl.rho_inf(L1, u, v).value == 0j
    assert nl.rho_inf(L1, t @ u, t @ v).value == -3 + 0j


def test_map_analysis_unitary_on_euclidean(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    pd = nl.pd_inner(np.eye(3))
    ma = nl.map_preservation_analysis(pd, pd, q, samples=100, seed=42)
    assert ma.preserves
    assert abs(ma.operator_norm_est - 1.0) <= 1e-6
    assert ma.scale_identity_defect <= 1e-6


def test_map_analysis_scale_identity_direction(rng):
    # whenever the sampled isometry defect is small the scale identity
    # holds at 10 tol |T|^2 and no witness appears
    c = 0.5 - 1.2j
    perm = c * np.array([[0, 1], [1, 0]], dtype=complex)
    ma = nl.map_preservation_analysis(L1, L1, perm, samples=100, seed=3)
    assert ma.isometry_defect <= ma.tol
    assert ma.scale_identity_defect <= 10 * ma.tol * ma.operator_norm_est**2
    assert ma.preserves


def test_map_analysis_rejects_bad_input():
    with pytest.raises(nl.ZeroMapError):
        nl.map_preservation_analysis(L1, L1, np.zeros((2, 2)))
    with pytest.raises(nl.DimensionMismatchError):
        nl.map_preservation_analysis(L1, L1, np.eye(3))
    with pytest.raises(nl.DimensionMismatchError):
        nl.symmetry_defect(L1, 3, 10, 42)


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_audits_reject_empty_samples(samples):
    # a maximum over no samples would report its start value as evidence
    with pytest.raises(ValueError, match="samples"):
        nl.cs_bound_audit(L1, 2, samples, 42, nl.UNIVERSAL_4_OVER_PI)
    with pytest.raises(ValueError, match="samples"):
        nl.symmetry_defect(L1, 2, samples, 42)
    with pytest.raises(ValueError, match="samples"):
        nl.norm_equivalence_constant(L1, nl.lp(2, 2), 2, samples, 42)
    with pytest.raises(ValueError, match="samples"):
        nl.map_preservation_analysis(L1, L1, np.diag([1.0, 2.0]),
                                     samples=samples)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, -np.inf])
def test_audits_reject_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # NaN or a negative tol makes no pair orthogonal and inf every pair,
    # so either audit would report no witness for diag(1, 2)
    with pytest.raises(ValueError, match="tol"):
        nl.map_preservation_analysis(L1, L1, np.diag([1.0, 2.0]), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        nl.relation_compare(L1, nl.RHO_INF, nl.BIRKHOFF_JAMES,
                            nl.SamplerConfig(dim=2, samples=50, tol=tol))


def test_import_leaves_scipy_optimize_out():
    code = ("import sys, normlab; "
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    # numpy is the only runtime dependency: a report and a map audit, both
    # of which run the operator-norm ascent, load no scipy module at all
    matrix = Path(__file__).parent / "golden" / "diag_1_2.txt"
    code = ("import sys, normlab; from normlab.cli import main; "
            "assert main(['report', '--norm', 'lp:p=1:dim=2', '--samples', '2']) == 0; "
            f"assert main(['analyze-map', '--norm', 'lp:p=1:dim=2', '--matrix', {str(matrix)!r}, "
            "'--samples', '20']) == 4; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
