"""Acceptance suite: exact reproduction of the worked values plus the
property suites, one printed pass/fail line per criterion.

Each criterion runs at its stated tolerance; sample counts that the
criteria leave open are pinned here and noted inline.
"""

import time

import numpy as np

import normlab as nl
from normlab.derivatives import QUADRATURE
from normlab.orthogonality import SamplerConfig, relation_compare
from normlab.rho_infinity import rho_n_stack
from normlab.sampling import rng_for, sample_unit, unit_draws

from conftest import random_pd_gram

T0 = time.perf_counter()


def report(number, name, passed):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status}", flush=True)
    assert passed, f"criterion {number} ({name}) failed"


def bits(v) -> bytes:
    return np.asarray(v, dtype=np.complex128).tobytes()


def unit_pair_for(spec, seed, index):
    rng = rng_for(seed, index)
    return sample_unit(spec, rng), sample_unit(spec, rng)


def test_criterion_1_l1_worked_example():
    l1 = nl.lp(1, 2)
    x, y = [1, 0], [1j, 0]
    ok = nl.rho_plus(l1, x, y).value == 0j
    ok = ok and nl.rho_inf(l1, x, y).value == -1j
    value, trace = nl.quadrature_rho_inf(l1, x, y, n_max=1024)
    ok = ok and value.converged and trace.node_counts[-1] <= 1024
    ok = ok and abs(value.value - (-1j)) <= 1e-6
    report(1, "l1 worked example rho_plus=0, rho_inf=-i", ok)


def test_criterion_2_l1_birkhoff_james_example():
    l1 = nl.lp(1, 2)
    ok = nl.rho_inf(l1, [0, 1], [2, 1]).value == 1 + 0j
    ok = ok and nl.perp_birkhoff_james(l1, [0, 1], [2, 1], tol=1e-6).orthogonal
    report(2, "l1 BJ example rho_inf=1 and x perp_B y", ok)


def test_criterion_3_root_identity():
    ok = abs(nl.root_sum_identity(2) - 2.0) <= 1e-12
    for n in range(3, 65):
        ok = ok and abs(nl.root_sum_identity(n)) <= 1e-12
    report(3, "root-square sums vanish for n in 3..64, equal 2 at n=2", ok)


def test_criterion_4_rho_n_property_suite():
    # 200 seeded samples per (dim, n) config, on an l1, a smooth lp(3) and
    # a random-Gram inner-product space; sample i of config n is stream
    # (seed, i * 16 + n), and a config's samples are one batch of draws
    # and one rho_n stack with the directions x and y at each x
    seed = 42
    samples = 200
    ok = True
    for dim in range(2, 7):
        specs = (nl.lp(1, dim), nl.lp(3, dim),
                 nl.pd_inner(random_pd_gram(np.random.default_rng(dim), dim)))
        for n in (3, 4, 7, 16):
            indices = [i * 16 + n for i in range(samples)]
            for spec in specs:
                xs, ys = unit_draws(spec, seed, (), indices)
                values = rho_n_stack(spec, xs, np.stack([xs, ys], axis=1), (n,))[0][0]
                ok = ok and bool(np.all(np.abs(values[:, 0] - 1.0) <= 1e-6))
                ok = ok and bool(np.all(np.abs(values[:, 1]) <= 2.0 + 1e-9))
                if spec.family == nl.spaces.PD_INNER:
                    # gram_inner is the one-row call of rho_inf_pairs
                    inner = spec.kernel.rho_inf_pairs(xs, ys)
                    ok = ok and bool(np.all(np.abs(values[:, 1] - inner) <= 1e-8))
                    ok = ok and all(bits(nl.gram_inner(spec, xs[i], ys[i])) == bits(inner[i])
                                    for i in range(3))
                # the batch is the one-pair draws and the public rho_n, bit for bit
                for i in range(3):
                    x, y = unit_pair_for(spec, seed, indices[i])
                    ok = ok and bits(x) == bits(xs[i]) and bits(y) == bits(ys[i])
                    ok = ok and bits(nl.rho_n(spec, x, x, n).value) == bits(values[i, 0])
                    ok = ok and bits(nl.rho_n(spec, x, y, n).value) == bits(values[i, 1])
        if not ok:
            break
    report(4, "rho_n suite dims 2-6, n in {3,4,7,16}, 200 samples", ok)


def test_criterion_5_homogeneity_translation_suite():
    seed = 42
    samples = 500
    ok = True
    for spec in (nl.lp(1, 4), nl.lp(2, 4), nl.lp(3, 4), nl.lp(np.inf, 4)):
        for i in range(samples):
            x, y = unit_pair_for(spec, seed, i)
            rng = rng_for(seed, 10_000 + i)
            a = complex(*rng.standard_normal(2))
            b = complex(*rng.standard_normal(2))
            va = nl.rho_inf(spec, a * x, b * y)
            vb = nl.rho_inf(spec, x, y)
            ab = a * np.conj(b)
            allow = max(1e-6, 3 * (va.abs_error + abs(ab) * vb.abs_error))
            ok = ok and abs(va.value - ab * vb.value) <= allow * (1 + abs(ab))
            vt = nl.rho_inf(spec, x, a * x + y)
            allow = max(1e-6, 3 * (vt.abs_error + vb.abs_error))
            ok = ok and abs(vt.value - (np.conj(a) + vb.value)) <= allow * (1 + abs(a)) * 2
        if not ok:
            break
    report(5, "rho_inf homogeneity/translation, 500 samples x 4 families", ok)


def test_criterion_6_bound_audits():
    seed = 42
    ok = True
    # l1 in dimension 6 at 10^4 samples: the Cauchy-Schwarz chain is exact
    audit = nl.cs_bound_audit(nl.lp(1, 6), 6, 10_000, seed, nl.CONJECTURE_ONE)
    ok = ok and audit.max_ratio <= 1.0 + 1e-9
    # smooth reflexive families at the conjectured constant (2000 samples)
    for spec in (nl.lp(1.5, 4), nl.lp(3, 4)):
        a = nl.cs_bound_audit(spec, 4, 2000, seed, nl.CONJECTURE_ONE)
        ok = ok and a.max_ratio <= 1.0 + 1e-6
    # every family obeys 4/pi, and 1 + 2 R(X*) where R is known (300 samples)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    family_sweep = (nl.lp(1, 6), nl.lp(1.5, 4), nl.lp(2, 3), nl.lp(3, 4),
                    nl.lp(np.inf, 3), nl.weighted_l1([0.5, 1.0, 2.0]),
                    nl.pd_inner(random_pd_gram(rng, 3)), nl.polyhedral(f))
    for spec in family_sweep:
        a = nl.cs_bound_audit(spec, spec.dim, 300, seed, nl.UNIVERSAL_4_OVER_PI)
        ok = ok and a.max_ratio <= 4.0 / np.pi + 1e-6
        r = nl.dual_segment_constant(spec).r_dual
        if r is not None:
            ok = ok and a.max_ratio <= 1.0 + 2.0 * r + 1e-6
    report(6, "Cauchy-Schwarz bound audits (1, 4/pi, 1+2R)", ok)


def test_criterion_7_symmetry_detector():
    seed = 42
    ok = True
    for dim in range(2, 9):
        gram = random_pd_gram(np.random.default_rng(dim), dim)
        rep = nl.symmetry_defect(nl.pd_inner(gram), dim, 500, seed)
        ok = ok and min(rep.raw_defect, rep.conj_defect) <= 1e-7
    for spec in (nl.lp(1, 2), nl.lp(4, 2), nl.lp(4, 3)):
        rep = nl.symmetry_defect(spec, spec.dim, 500, seed)
        ok = ok and rep.raw_defect >= 0.1
    # the l1 witness pair reproduces |2 - 1| = 1 exactly
    l1 = nl.lp(1, 2)
    u, w = np.array([1.0, 1.0]), np.array([1.0, 0.0])
    ok = ok and abs(nl.rho_inf(l1, u, w).value - nl.rho_inf(l1, w, u).value) == 1.0
    report(7, "symmetry detector separates inner-product spaces", ok)


def test_criterion_8_relation_searches():
    l1 = nl.lp(1, 2)
    found_plus = relation_compare(l1, nl.RHO_PLUS, nl.RHO_INF,
                                  SamplerConfig(dim=2, samples=1000, seed=42,
                                                max_witnesses=1))
    found_bj = relation_compare(l1, nl.BIRKHOFF_JAMES, nl.RHO_INF,
                                SamplerConfig(dim=2, samples=1000, seed=42,
                                              max_witnesses=1))
    none_inf = relation_compare(l1, nl.RHO_INF, nl.BIRKHOFF_JAMES,
                                SamplerConfig(dim=2, samples=10_000, seed=42))
    ok = bool(found_plus) and bool(found_bj) and not none_inf
    report(8, "relation searches: two separations found, inclusion clean", ok)


def test_criterion_9_map_analyses():
    seed = 42
    l1_3 = nl.lp(1, 3)
    rng = np.random.default_rng(5)
    perm = np.zeros((3, 3), dtype=complex)
    for i, j in enumerate(rng.permutation(3)):
        perm[i, j] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    iso = nl.map_preservation_analysis(l1_3, l1_3, perm, samples=200, seed=seed)
    ok = iso.preserves and iso.isometry_defect <= 1e-8
    ok = ok and iso.scale_identity_defect <= 1e-6

    l1_2 = nl.lp(1, 2)
    bad = nl.map_preservation_analysis(l1_2, l1_2, np.diag([1.0, 2.0]),
                                       samples=200, seed=seed)
    ok = ok and not bad.preserves and len(bad.witnesses) >= 1
    w = bad.witnesses[0]
    ok = ok and nl.perp_rho_inf(l1_2, w.x, w.y).orthogonal
    t = np.diag([1.0, 2.0])
    ok = ok and not nl.perp_rho_inf(l1_2, t @ w.x, t @ w.y).orthogonal

    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    pd = nl.pd_inner(np.eye(3))
    uni = nl.map_preservation_analysis(pd, pd, q, samples=200, seed=seed)
    ok = ok and uni.preserves and abs(uni.operator_norm_est - 1.0) <= 1e-6
    report(9, "map analyses: isometries pass, diag(1,2) fails with witness", ok)


def test_criterion_10_smooth_space_equivalence():
    # on a smooth norm the BJ residual max(0, -min_t rho_plus(x, e^{it} y))
    # is the rho_inf residual |rho_inf(x, y)|, first order in both, so the
    # verdicts agree at a shared tolerance also near the boundary; the
    # constructed pairs exercise the inclusion direction exactly
    spec = nl.lp(3, 3)
    seed = 42
    tol = 1e-5
    ok = True
    worst_path = 0.0
    for i in range(500):
        x, y = unit_pair_for(spec, seed, i)
        vi = nl.perp_rho_inf(spec, x, y, tol)
        vb = nl.perp_birkhoff_james(spec, x, y, tol)
        ok = ok and (vi.orthogonal == vb.orthogonal)
        z = nl.decomposition_alpha(spec, x, y) * x + y
        ok = ok and nl.perp_rho_inf(spec, x, z, tol).orthogonal
        ok = ok and nl.perp_birkhoff_james(spec, x, z, tol).orthogonal
        smooth = nl.rho_inf(spec, x, y).value
        quad = nl.rho_inf(spec, x, y, force_path=QUADRATURE).value
        worst_path = max(worst_path, abs(quad - smooth))
        if not ok:
            break
    ok = ok and worst_path <= 1e-6
    report(10, "smooth-space equivalence on lp(3), 500 samples", ok)


def test_zz_report_elapsed():
    # informational: the criteria target completion in under 60 seconds
    elapsed = time.perf_counter() - T0
    print(f"ACCEPTANCE elapsed: {elapsed:.1f} s", flush=True)
