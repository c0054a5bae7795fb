"""The stacked evaluation against the single-pair forms, bit for bit.

Each row of a kernel's pairs methods must equal a one-row call, which is
the single-pair form, the stacked draws the per-index streams, and
relation_compare and the sampled audits the per-index loops they
replaced; those loops are kept here as the reference.
"""

import numpy as np
import pytest

import normlab as nl
from normlab import derivatives, orthogonality, sampling
from normlab.orthogonality import BJ_CANCEL_RTOL, DEFAULT_TOL, SamplerConfig
from normlab.sampling import complex_gaussian, rng_for, sample_unit

from conftest import POLY_ROWS, VERDICTS, family_specs, random_pd_gram
from test_closed_forms import _tie

# an odd sample count, so batches of 8 and the doubling batches 1, 2, 4, 8
# end inside it
SAMPLES = 37


def bits(v) -> bytes:
    """The bytes of a value as complex128, or of an array."""
    return np.asarray(v, dtype=np.complex128).tobytes()


def kernel_specs():
    return {
        **{f"{s.family}{s.p or ''}-3": s for s in family_specs(3)},
        "lp1-5": nl.lp(1, 5),
        "wl1-5": nl.weighted_l1([0.5, 1.0, 2.0, 0.7, 1.3]),
        "lp1.5-4": nl.lp(1.5, 4),
        "lp3-2": nl.lp(3, 2),
        "pd-4": nl.pd_inner(random_pd_gram(np.random.default_rng(4), 4)),
        "poly-rows": nl.polyhedral(POLY_ROWS),
        "lpinf-1": nl.lp(np.inf, 1),
    }


KERNEL_SPECS = kernel_specs()


def hard_pairs(spec, rng):
    """Gaussian pairs, then the points Gaussian pairs miss: zero coordinates,
    ties of max-modulus norms, zero rows and scales of 1e-150 and 1e150."""
    d = spec.dim
    n = 60
    xs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    ys = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    xs[20:40][rng.random((20, d)) < 0.4] = 0
    ys[30:40][rng.random((10, d)) < 0.3] = 0
    xs[40:42] = 0
    ys[42:44] = 0
    xs[44:52] *= 10.0 ** rng.choice([-150, 150], 8)[:, None]
    ys[48:56] *= 10.0 ** rng.choice([-150, 150], 8)[:, None]
    if d == 3 and (spec.functionals is not None or spec.p == np.inf):
        # 2- and 3-way ties of a max-modulus norm
        f = np.eye(3) if spec.functionals is None else spec.functionals
        for i, size in zip(range(56, 60), (2, 3, 2, 3)):
            xs[i] = _tie(rng, f, size)[0]
    return xs, ys


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_pairs_methods_equal_the_single_pair_forms(name):
    # each row of a stacked call equals a one-row call of the same method
    spec = KERNEL_SPECS[name]
    k = spec.kernel
    xs, ys = hard_pairs(spec, np.random.default_rng((21, spec.dim)))
    plus = k.rho_plus_pairs(xs, ys)
    inf = k.rho_inf_pairs(xs, ys)
    slope = k.bj_slope_pairs(xs, ys)
    norms = k.norm(xs)
    assert plus.dtype == slope.dtype == norms.dtype == np.float64
    assert inf.dtype == np.complex128
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert bits(plus[i]) == bits(k.rho_plus_pairs(x[None], y[None])[0]), i
        assert bits(inf[i]) == bits(k.rho_inf_pairs(x[None], y[None])[0]), i
        assert bits(slope[i]) == bits(k.bj_slope_pairs(x[None], y[None])[0]), i
        assert bits(norms[i]) == bits(nl.norm(spec, x)), i
    # and every stacked value is a value: no overflow at 1e150, no 0/0 at 0
    assert np.isfinite(plus).all() and np.isfinite(inf).all()
    assert np.isfinite(slope).all()


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_rho_plus_rows_equals_rho_plus_per_direction(name):
    # the engine of rho_n, rho_minus, rho_milicic and the quadrature gives
    # every direction the bits of rho_plus on that direction alone
    spec = KERNEL_SPECS[name]
    xs, _ = hard_pairs(spec, np.random.default_rng((21, spec.dim)))
    rng = np.random.default_rng((22, spec.dim))
    for x in xs:
        ys = (rng.standard_normal((64, spec.dim))
              + 1j * rng.standard_normal((64, spec.dim)))
        got = derivatives.rho_plus_rows(spec, x, ys)[0]
        assert bits(got) == bits([nl.rho_plus(spec, x, y).value for y in ys])


def test_stacked_arithmetic_matches_python_scalars():
    # the batched code relies on these numpy forms giving Python's bits:
    # np.float_power for float ** 2 (numpy's ** 2 squares), the parts of a
    # complex divided one by one (numpy's complex / real multiplies by the
    # reciprocal) and np.hypot for abs of a complex (np.abs is not hypot)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(4000) * 10.0 ** rng.uniform(-5, 5, 4000)
    z = r + 1j * rng.standard_normal(4000)
    assert bits(np.float_power(r, 2)) == bits([float(v) ** 2 for v in r])
    assert bits(np.hypot(z.real, z.imag)) == bits([abs(complex(v)) for v in z])
    q = np.empty_like(z)
    q.real, q.imag = z.real / r, z.imag / r
    assert bits(q) == bits([complex(v) / float(s) for v, s in zip(z, r)])


@pytest.mark.parametrize("count", [1, 2, 3])
def test_gaussian_draws_equal_the_per_index_streams(count):
    indices = [0, 1, 7, 12, 1000]
    got = sampling.gaussian_draws(4, 9, (2,), indices, count)
    assert len(got) == count
    for k, i in enumerate(indices):
        rng = rng_for(9, 2, i)
        for z in got:
            assert bits(z[k]) == bits(complex_gaussian(rng, 4))


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_unit_draws_equal_sample_unit(name):
    spec = KERNEL_SPECS[name]
    xs, ys = sampling.unit_draws(spec, 3, (1,), range(SAMPLES))
    for i in range(SAMPLES):
        rng = rng_for(3, 1, i)
        assert bits(xs[i]) == bits(sample_unit(spec, rng))
        assert bits(ys[i]) == bits(sample_unit(spec, rng))


def test_unit_draws_take_the_redraw_of_a_rejected_index(monkeypatch):
    # a Gaussian draw never comes near 1e-8, so the rejection threshold is
    # raised until about a third of the draws fall below it
    spec = nl.lp(1, 2)
    monkeypatch.setattr(sampling, "UNIT_MIN_NORM", 2.0)
    first, second = sampling.gaussian_draws(2, 4, (), range(SAMPLES))
    rejected = (spec.kernel.norm(first) <= 2.0) | (spec.kernel.norm(second) <= 2.0)
    assert 5 <= rejected.sum() < SAMPLES
    xs, ys = sampling.unit_draws(spec, 4, (), range(SAMPLES))
    for i in range(SAMPLES):
        rng = rng_for(4, i)
        assert bits(xs[i]) == bits(sample_unit(spec, rng))
        assert bits(ys[i]) == bits(sample_unit(spec, rng))


@pytest.mark.parametrize("doubling", [False, True])
def test_index_batches_cover_the_samples_in_order(doubling, monkeypatch):
    monkeypatch.setattr(sampling, "BATCH_ROWS", 8)
    batches = list(sampling.index_batches(SAMPLES, doubling))
    assert [i for b in batches for i in b] == list(range(SAMPLES))
    sizes = [len(b) for b in batches]
    assert sizes == ([1, 2, 4, 8, 8, 8, 6] if doubling else [8, 8, 8, 8, 5])


# --- the single-pair formulas and per-index loops the stacked code replaced --


def reference_alpha(spec, x, y):
    """-conj(rho_inf(x, y)) / |x|^2 in Python complex arithmetic."""
    return -complex(nl.rho_inf(spec, x, y).value).conjugate() / nl.norm(spec, x) ** 2


def reference_semi(spec, u, v):
    """[u, v] = rho_plus(v, u) + i rho_plus(v, -iu)."""
    return complex(nl.rho_plus(spec, v, u).value.real,
                   nl.rho_plus(spec, v, -1j * u).value.real)


def reference_residual(spec, relation, x, y):
    """A verdict's residual pair by pair: the modulus of the relation's
    functional on x/|x|, y/|y|, and 0 when x or y is 0."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    nx = nl.norm(spec, x)
    ny = nl.norm(spec, y)
    if relation == nl.SEMI:
        if nx == 0.0:
            raise nl.ZeroBaseError("perp_semi requires x != 0")
        if not nl.is_smooth_family(spec):
            raise nl.NotSmoothError(spec.family)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    xu = x / nx
    yu = y / ny
    if relation == nl.RHO_INF:
        return abs(nl.rho_inf(spec, xu, yu).value)
    if relation == nl.RHO_PLUS:
        return abs(nl.rho_plus(spec, xu, yu).value)
    if relation == nl.BIRKHOFF_JAMES:
        return max(0.0, -spec.kernel.bj_slope_pairs(xu[None], yu[None]).item())
    return abs(reference_semi(spec, yu, xu))


@pytest.mark.parametrize("relation", nl.RELATIONS)
@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_verdicts_equal_the_single_pair_formulas(name, relation):
    spec = KERNEL_SPECS[name]
    xs, ys = hard_pairs(spec, np.random.default_rng((21, spec.dim)))
    one = VERDICTS[relation]
    for i, (x, y) in enumerate(zip(xs, ys)):
        calls = (lambda: nl.perp(spec, relation, x, y), lambda: one(spec, x, y))
        try:
            expect = reference_residual(spec, relation, x, y)
        except (nl.NotSmoothError, nl.ZeroBaseError) as exc:
            for call in calls:
                with pytest.raises(type(exc)):
                    call()
            continue
        for call in calls:
            v = call()
            assert bits(v.residual) == bits(expect), i
            assert (v.orthogonal, v.tol, v.relation, v.converged) == (
                expect <= DEFAULT_TOL, DEFAULT_TOL, relation, True)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_scalars_equal_the_single_pair_formulas(name):
    # the decomposition scalar's parts are divided one by one, which keeps
    # Python's bits except the sign of a zero part (Python's complex
    # division adds a signed zero product into each part); == ignores it
    spec = KERNEL_SPECS[name]
    xs, ys = hard_pairs(spec, np.random.default_rng((21, spec.dim)))
    for i, (x, y) in enumerate(zip(xs, ys)):
        if nl.norm(spec, x) == 0.0:
            with pytest.raises(nl.ZeroBaseError):
                nl.decomposition_alpha(spec, x, y)
            continue
        assert nl.decomposition_alpha(spec, x, y) == reference_alpha(spec, x, y), i
        if nl.is_smooth_family(spec):
            assert bits(nl.semi_inner(spec, y, x).value) == bits(
                reference_semi(spec, y, x)), i


def reference_construct(spec, relation, x, y):
    nx2 = nl.norm(spec, x) ** 2
    if relation == nl.RHO_PLUS:
        s = -nl.rho_plus(spec, x, y).value.real / nx2
        return x, s * x + y
    if relation == nl.RHO_INF:
        return x, reference_alpha(spec, x, y) * x + y
    if relation == nl.SEMI:
        if not nl.is_smooth_family(spec):
            raise nl.NotSmoothError(spec.family)
        return x, y - reference_semi(spec, y, x) / nx2 * x
    _, xi = nl.birkhoff_minimize(spec, x, y)
    a = x + xi * y
    a[np.abs(a) <= BJ_CANCEL_RTOL * (np.abs(x) + np.abs(xi * y))] = 0
    return a, y


def reference_compare(spec, relation_a, relation_b, samples, seed):
    found = []
    for index in range(samples):
        rng = rng_for(seed, index)
        x = complex_gaussian(rng, spec.dim)
        y = complex_gaussian(rng, spec.dim)
        if nl.norm(spec, x) < 1e-8 or nl.norm(spec, y) < 1e-8:
            continue
        a, b = reference_construct(spec, relation_a, x, y)
        ra = reference_residual(spec, relation_a, a, b)
        if not ra <= DEFAULT_TOL:
            continue
        rb = reference_residual(spec, relation_b, a, b)
        if not rb <= DEFAULT_TOL:
            found.append((index, bits(a), bits(b), bits(ra), bits(rb)))
    return found


FAMILIES = {f"{s.family}{s.p or ''}": s for s in family_specs(3)}
ORDERED_PAIRS = [(a, b) for a in nl.RELATIONS for b in nl.RELATIONS if a != b]


@pytest.mark.parametrize("relations", ORDERED_PAIRS, ids="-".join)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_relation_compare_equals_the_per_index_loop(family, relations, monkeypatch):
    spec = FAMILIES[family]
    a, b = relations
    seed = 17
    if nl.SEMI in relations and not nl.is_smooth_family(spec):
        with pytest.raises(nl.NotSmoothError):
            reference_compare(spec, a, b, SAMPLES, seed)
        with pytest.raises(nl.NotSmoothError):
            orthogonality.relation_compare(spec, a, b, SamplerConfig(3, SAMPLES, seed))
        return
    expect = reference_compare(spec, a, b, SAMPLES, seed)
    for batch_rows in (sampling.BATCH_ROWS, 8):
        monkeypatch.setattr(sampling, "BATCH_ROWS", batch_rows)
        for limit in (1, 2, None):
            got = orthogonality.relation_compare(
                spec, a, b, SamplerConfig(3, SAMPLES, seed, max_witnesses=limit))
            assert [(w.index, bits(w.x), bits(w.y), bits(w.residual_a),
                     bits(w.residual_b)) for w in got] == expect[:limit]
            assert all(w.seed == seed and (w.relation_a, w.relation_b) == relations
                       for w in got)


def test_relation_compare_reference_sees_witnesses():
    # the equivalence above compares nonempty lists where the paper predicts
    # witnesses: l1 separates rho_plus and bj from rho_inf
    l1 = FAMILIES["lp1.0"]
    assert len(reference_compare(l1, nl.RHO_PLUS, nl.RHO_INF, SAMPLES, 17)) >= 3
    assert len(reference_compare(l1, nl.BIRKHOFF_JAMES, nl.RHO_INF, SAMPLES, 17)) >= 3


def reference_symmetry(spec, samples, seed):
    raw = conj = para = -1.0
    worst = None
    for i in range(samples):
        rng = rng_for(seed, 0, i)
        x = sample_unit(spec, rng)
        y = sample_unit(spec, rng)
        f = complex(nl.rho_inf(spec, x, y).value)
        g = complex(nl.rho_inf(spec, y, x).value)
        if abs(f - g) > raw:
            raw = abs(f - g)
            worst = (x, y)
        conj = max(conj, abs(f - g.conjugate()))
        para = max(para, abs(nl.norm(spec, x + y) ** 2 + nl.norm(spec, x - y) ** 2
                             - 2.0 * nl.norm(spec, x) ** 2
                             - 2.0 * nl.norm(spec, y) ** 2))
    return raw, conj, para, worst


def reference_cs_bound(spec, samples, seed):
    max_ratio = -1.0
    worst = None
    for i in range(samples):
        rng = rng_for(seed, 1, i)
        x = sample_unit(spec, rng)
        y = sample_unit(spec, rng)
        ratio = abs(nl.rho_inf(spec, x, y).value)
        if ratio > max_ratio:
            max_ratio, worst = ratio, (x, y)
    return max_ratio, worst


def reference_equivalence(spec1, spec2, samples, seed):
    max_c, worst, m_est, big_m_est = -1.0, None, np.inf, 0.0
    for i in range(samples):
        rng = rng_for(seed, 2, i)
        x = complex_gaussian(rng, spec1.dim)
        y = complex_gaussian(rng, spec1.dim)
        n1 = (nl.norm(spec1, x), nl.norm(spec1, y))
        n2 = (nl.norm(spec2, x), nl.norm(spec2, y))
        if min(n1) < 1e-12 or min(n2) < 1e-12:
            continue
        for z1, z2 in zip(n1, n2):
            m_est = min(m_est, z2 / z1)
            big_m_est = max(big_m_est, z2 / z1)
        v1 = complex(nl.rho_inf(spec1, x, y).value)
        v2 = complex(nl.rho_inf(spec2, x, y).value)
        c = abs(v1 - v2) / min(n1[0] * n1[1], n2[0] * n2[1])
        if c > max_c:
            max_c, worst = c, (x, y)
    return max_c, m_est, big_m_est, worst


def reference_map(spec_dom, spec_cod, t, samples, seed, tol=DEFAULT_TOL):
    est, _ = nl.operator_norm_estimate(spec_dom, spec_cod, t, samples, seed)
    iso = 0.0
    for i in range(samples):
        x = sample_unit(spec_dom, rng_for(seed, 4, i))
        iso = max(iso, abs(nl.norm(spec_cod, t @ x) - est))
    scale = 0.0
    for i in range(samples):
        rng = rng_for(seed, 5, i)
        x = sample_unit(spec_dom, rng)
        y = sample_unit(spec_dom, rng)
        lhs = complex(nl.rho_inf(spec_cod, t @ x, t @ y).value)
        rhs = est**2 * complex(nl.rho_inf(spec_dom, x, y).value)
        scale = max(scale, abs(lhs - rhs))
    witnesses = []
    for i in range(samples):
        rng = rng_for(seed, 6, i)
        x = complex_gaussian(rng, spec_dom.dim)
        y = complex_gaussian(rng, spec_dom.dim)
        if nl.norm(spec_dom, x) < 1e-8:
            continue
        b = reference_alpha(spec_dom, x, y) * x + y
        ra = reference_residual(spec_dom, nl.RHO_INF, x, b)
        if not ra <= tol:
            continue
        rb = reference_residual(spec_cod, nl.RHO_INF, t @ x, t @ b)
        if not rb <= tol:
            witnesses.append((bits(x), bits(b), bits(ra), bits(rb)))
    return est, iso, scale, witnesses


def same_pair(got, expect):
    return bits(got[0]) == bits(expect[0]) and bits(got[1]) == bits(expect[1])


@pytest.fixture(params=[None, 8], ids=["one-batch", "batches-of-8"])
def batch_rows(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(sampling, "BATCH_ROWS", request.param)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_symmetry_and_bound_audits_equal_the_per_index_loops(family, batch_rows):
    spec = FAMILIES[family]
    raw, conj, para, worst = reference_symmetry(spec, SAMPLES, 8)
    rep = nl.symmetry_defect(spec, 3, SAMPLES, 8)
    assert bits([rep.raw_defect, rep.conj_defect, rep.parallelogram_defect]) == bits(
        [raw, conj, para])
    assert same_pair(rep.worst_pair, worst)
    max_ratio, worst = reference_cs_bound(spec, SAMPLES, 8)
    audit = nl.cs_bound_audit(spec, 3, SAMPLES, 8, nl.UNIVERSAL_4_OVER_PI)
    assert bits(audit.max_ratio) == bits(max_ratio)
    assert same_pair(audit.worst_pair, worst)


@pytest.mark.parametrize("spec", [nl.lp(1, 1), nl.pd_inner([[2.0]])], ids=["lp1", "pd"])
def test_bound_audit_ties_resolve_to_the_first_index(spec, batch_rows):
    # in dimension one |rho_inf(x, y)| = |x| |y| = 1 for unit x, y up to
    # rounding, so the maximum is reached by many samples; the worst pair is
    # the first of them
    max_ratio, worst = reference_cs_bound(spec, SAMPLES, 8)
    ratios = [abs(nl.rho_inf(spec, x, y).value)
              for x, y in zip(*sampling.unit_draws(spec, 8, (1,), range(SAMPLES)))]
    tied = [i for i, r in enumerate(ratios) if r == max_ratio]
    assert len(tied) >= 2 and tied[-1] >= 8  # ties across batches of 8
    audit = nl.cs_bound_audit(spec, 1, SAMPLES, 8, nl.CONJECTURE_ONE)
    assert bits(audit.max_ratio) == bits(max_ratio)
    assert same_pair(audit.worst_pair, worst)


@pytest.mark.parametrize("pair", [("lp1.0", "lp2.5"), ("lpinf", "pd"), ("wl1", "poly"),
                                  ("poly", "poly")], ids="-".join)
def test_equivalence_audit_equals_the_per_index_loop(pair, batch_rows):
    spec1, spec2 = (FAMILIES[name] for name in pair)
    max_c, m_est, big_m_est, worst = reference_equivalence(spec1, spec2, SAMPLES, 8)
    rep = nl.norm_equivalence_constant(spec1, spec2, 3, SAMPLES, 8)
    assert bits([rep.empirical_c, rep.m_est, rep.big_m_est]) == bits(
        [max_c, m_est, big_m_est])
    # a norm against itself ties every sample at c = 0: the first one is kept
    assert same_pair(rep.worst_pair, worst)


@pytest.mark.parametrize("cod", [None, "lp2.5"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_map_analysis_equals_the_per_index_loops(family, cod, batch_rows):
    spec = FAMILIES[family]
    spec_cod = FAMILIES[cod] if cod else spec
    rng = np.random.default_rng(12)
    t = np.eye(3) + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    est, iso, scale, witnesses = reference_map(spec, spec_cod, t, SAMPLES, 8)
    ma = nl.map_preservation_analysis(spec, spec_cod, t, SAMPLES, 8)
    assert bits([ma.operator_norm_est, ma.isometry_defect, ma.scale_identity_defect]) == bits(
        [est, iso, scale])
    assert [(bits(w.x), bits(w.y), bits(w.domain_residual), bits(w.image_residual))
            for w in ma.witnesses] == witnesses
    assert ma.preserves == (not witnesses)
