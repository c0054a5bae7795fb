"""The stacked evaluation against the single-pair forms, bit for bit.

Each row of a kernel's pairs methods must equal a one-row call, which is
the single-pair form, each kernel the p-norm's closed forms on the images
(M x, M y) of its M, the stacked draws the per-index streams, and
relation_compare, the sampled audits, the report suites and the stacked
quadrature the per-index loops they replaced; those loops are kept here
as the reference.
"""

import numpy as np
import pytest

import normlab as nl
from normlab import checks, cli, derivatives, orthogonality, rho_infinity, sampling
from normlab.derivatives import NUMERIC_LIMIT, QUADRATURE, STEPS
from normlab.orthogonality import BJ_CANCEL_RTOL, DEFAULT_TOL, SamplerConfig
from normlab.sampling import complex_gaussian, rng_for, sample_unit
from normlab.spaces import _polyhedral_dual, _row_apply

from conftest import POLY_ROWS, VERDICTS, family_specs, random_pd_gram
from test_closed_forms import _tie
from test_golden import REPORT_NORMS

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
    steps = k.norm_steps(xs, ys, STEPS)
    assert plus.dtype == slope.dtype == norms.dtype == steps.dtype == np.float64
    assert inf.dtype == np.complex128
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert bits(plus[i]) == bits(k.rho_plus_pairs(x[None], y[None])[0]), i
        assert bits(inf[i]) == bits(k.rho_inf_pairs(x[None], y[None])[0]), i
        assert bits(slope[i]) == bits(k.bj_slope_pairs(x[None], y[None])[0]), i
        assert bits(norms[i]) == bits(nl.norm(spec, x)), i
        # a single (d,) pair too, as the one-row form
        assert bits(steps[:, i]) == bits(k.norm_steps(x, y, STEPS)), i
    # and every stacked value is a value: no overflow at 1e150, no 0/0 at 0
    assert np.isfinite(plus).all() and np.isfinite(inf).all()
    assert np.isfinite(slope).all() and np.isfinite(steps).all()


# every family's norm is |M x|_p; the non-identity Gram of the goldens and
# the polyhedral norm of the tie tests beside one spec per family
FRAME_SPECS = {
    **{f"{s.family}{s.p or ''}-3": s for s in family_specs(3)},
    "pd-golden": nl.parse_norm_spec(REPORT_NORMS["pdG"]),
    "poly-rows": nl.polyhedral(POLY_ROWS),
}


def images(spec, xs):
    """M x for each row x: one row-wise product, skipped where M is the
    identity (the kernel takes a diagonal M elementwise, which gives the
    same functionals, bit for bit; see the test after the next)."""
    m = spec.kernel.m
    return xs if np.array_equal(m, np.eye(len(m))) else _row_apply(xs, m.T)


def unit_rows(spec, xs, ys):
    """The pairs of hard_pairs with neither side zero, scaled to unit norm."""
    nx, ny = spec.kernel.norm(xs), spec.kernel.norm(ys)
    live = (nx > 0) & (ny > 0)
    return xs[live] / nx[live, None], ys[live] / ny[live, None]


@pytest.mark.parametrize("name", sorted(FRAME_SPECS))
def test_kernels_are_the_p_norm_of_the_images(name):
    # |x + t y| = |M x + t M y|_p, and every kernel computes it that way:
    # its values are those of lp(p) on the rows (M x, M y), bit for bit
    spec = FRAME_SPECS[name]
    k = spec.kernel
    lp_k = nl.lp(k.p, k.m.shape[0]).kernel
    xs, ys = hard_pairs(spec, np.random.default_rng((23, spec.dim)))
    zs, ws = images(spec, xs), images(spec, ys)
    assert bits(k.norm(xs)) == bits(lp_k.norm(zs))
    assert bits(k.norm_steps(xs, ys, STEPS)) == bits(lp_k.norm_steps(zs, ws, STEPS))
    assert bits(k.rho_plus_pairs(xs, ys)) == bits(lp_k.rho_plus_pairs(zs, ws))
    assert bits(k.rho_inf_pairs(xs, ys)) == bits(lp_k.rho_inf_pairs(zs, ws))
    assert bits(k.bj_slope_pairs(xs, ys)) == bits(lp_k.bj_slope_pairs(zs, ws))
    us, vs = unit_rows(spec, xs, ys)
    assert bits(k.bj_argmin_pairs(us, vs)) == bits(
        lp_k.bj_argmin_pairs(images(spec, us), images(spec, vs)))


def test_gram_identity_is_the_two_norm():
    # pd:gram=I skips its M = I, so it runs the p = 2 core of lp2
    pd, l2 = nl.pd_inner(np.eye(3)).kernel, nl.lp(2, 3).kernel
    xs, ys = hard_pairs(nl.lp(2, 3), np.random.default_rng((24, 3)))
    for k in (pd, l2):
        assert k.smooth and k.r_dual == 0.0
    assert bits(pd.norm(xs)) == bits(l2.norm(xs))
    assert bits(pd.norm_steps(xs, ys, STEPS)) == bits(l2.norm_steps(xs, ys, STEPS))
    for method in ("rho_plus_pairs", "rho_inf_pairs", "bj_slope_pairs"):
        assert bits(getattr(pd, method)(xs, ys)) == bits(getattr(l2, method)(xs, ys)), method
    assert bits(pd.norming(xs)) == bits(l2.norming(xs))
    for pd_part, l2_part in zip(pd.dual(xs), l2.dual(xs)):  # points, values, settled
        assert bits(pd_part) == bits(l2_part)
    us, vs = unit_rows(nl.lp(2, 3), xs, ys)
    assert bits(pd.bj_argmin_pairs(us, vs)) == bits(l2.bj_argmin_pairs(us, vs))


def signed_zeros(rng, xs):
    """xs with about half of its zero real and imaginary parts made -0."""
    re, im = xs.real.copy(), xs.imag.copy()
    for part in (re, im):
        part[(part == 0) & (rng.random(part.shape) < 0.5)] = -0.0
    out = np.empty_like(xs)
    out.real, out.imag = re, im
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_a_diagonal_m_acts_elementwise_with_the_products_bits(dim):
    # wl1's M = diag(w) is applied as x * w.  Its images carry a zero's
    # sign where the row-by-row product's sum of zeros may give +0 for -0.
    # On hard pairs with signed zeros every function of the kernel equals
    # the p-norm's on the product images bit for bit, except that a
    # minimizer xi = 0 may come back as 0 or -0
    rng = np.random.default_rng((25, dim))
    spec = nl.weighted_l1(rng.uniform(0.5, 2.0, dim))
    k, l1 = spec.kernel, nl.lp(1, dim).kernel
    xs, ys = (signed_zeros(rng, a) for a in hard_pairs(spec, rng))
    zs, ws = images(spec, xs), images(spec, ys)
    assert np.array_equal(xs * spec.weights, zs)  # the values; signs may differ
    assert bits(k.norm(xs)) == bits(l1.norm(zs))
    for method in ("rho_plus_pairs", "rho_inf_pairs", "bj_slope_pairs"):
        assert bits(getattr(k, method)(xs, ys)) == bits(getattr(l1, method)(zs, ws)), method
    assert bits(k.norming(xs)) == bits(_row_apply(l1.norming(zs), k.m))
    assert bits(k.norm_steps(xs, ys, STEPS)) == bits(l1.norm_steps(zs, ws, STEPS))
    us, vs = unit_rows(spec, xs, ys)
    xis = k.bj_argmin_pairs(us, vs)
    refs = l1.bj_argmin_pairs(images(spec, us), images(spec, vs))
    for i, (xi, ref) in enumerate(zip(xis, refs)):
        assert bits(xi) == bits(ref) or xi == ref == 0, i


@pytest.mark.parametrize("name", ["poly-3", "poly-rows"])
def test_polyhedral_dual_rows_equal_the_one_row_calls(name):
    # the solver steps every row on its own, however many are stacked:
    # Gaussian functionals, zero coordinates, zero rows, extreme scales and
    # each f_j with a phase, whose maximizer is a face of the unit ball
    k = KERNEL_SPECS[name].kernel
    gs, _ = hard_pairs(KERNEL_SPECS[name], np.random.default_rng((25, k.m.shape[1])))
    phases = np.exp(1j * np.random.default_rng(26).uniform(0, 2 * np.pi, len(k.m)))
    gs = np.concatenate((gs, phases[:, None] * k.m))
    xs, values, settled = k.dual(gs)
    assert settled.all()
    for i, g in enumerate(gs):
        x, value, one_settled = k.dual(g[None])
        assert bits(x) == bits(xs[i:i + 1]), i
        assert bits(value) == bits(values[i:i + 1]), i
        assert one_settled[0], i
    # and a stack of one matrix per row, each a copy of the shared one
    per_row = _polyhedral_dual(np.repeat(k.m[None], len(gs), axis=0), gs)
    assert bits(per_row[0]) == bits(xs) and bits(per_row[1]) == bits(values)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_bj_argmin_rows_equal_the_one_row_calls(name):
    # hard pairs, and pairs with y parallel to x up to rounding
    spec = KERNEL_SPECS[name]
    k = spec.kernel
    us, vs = unit_rows(spec, *hard_pairs(spec, np.random.default_rng((27, spec.dim))))
    us, vs = np.concatenate((us, us[:4])), np.concatenate((vs, (0.6 - 0.8j) * us[:4]))
    xis = k.bj_argmin_pairs(us, vs)
    assert xis.dtype == np.complex128 and xis.shape == (len(us),)
    assert np.isfinite(xis).all()
    for i, (u, v) in enumerate(zip(us, vs)):
        assert bits(k.bj_argmin_pairs(u[None], v[None])) == bits(xis[i]), i


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


# every core, the non-identity Gram of the goldens and a polyhedral M
DIRECTION_SPECS = {
    "lp1": nl.lp(1, 3),
    "lp2": nl.lp(2, 3),
    "lp2.5": nl.lp(2.5, 3),
    "lpinf": nl.lp(np.inf, 3),
    "wl1": nl.weighted_l1([0.5, 1.0, 2.0]),
    "pdG": nl.parse_norm_spec(REPORT_NORMS["pdG"]),
    "poly": nl.polyhedral(POLY_ROWS),
}


def repeated_directions(spec, xs, ys):
    """The closed form of rho_plus_directions with each x repeated once per
    direction: one stacked call on (n m, d) pairs."""
    n, m, d = ys.shape
    return spec.kernel.rho_plus_pairs(np.repeat(xs, m, axis=0),
                                      ys.reshape(n * m, d)).reshape(n, m)


@pytest.mark.parametrize("name", sorted(DIRECTION_SPECS))
def test_directions_broadcast_equals_the_repeated_pairs(name):
    # rho_plus_directions computes each x's side once and broadcasts it over
    # the directions; that must not move a bit
    spec = DIRECTION_SPECS[name]
    rng = np.random.default_rng((25, spec.dim))
    xs, ys = hard_pairs(spec, rng)
    # exact ties: coordinates of modulus 1 exactly, on 2 and 3 of them
    xs[:4] = [[1, 1j, -1], [-1j, 0.5, 1], [1, -1, 0.25j], [1j, -1j, 1]]
    if spec.p == 1.0:
        assert (xs == 0).any(axis=1).sum() > 10
    if spec.p == np.inf:
        top = np.abs(xs) == np.abs(xs).max(axis=1, keepdims=True)
        assert (top.sum(axis=1) == 3).sum() >= 2
    # the roots-of-unity directions of rho_n and the quadrature, then
    # Gaussian ones, a zero direction and -y
    roots = np.exp(2j * np.pi * np.arange(16) / 16)
    gauss = rng.standard_normal((len(xs), 8, 3)) + 1j * rng.standard_normal((len(xs), 8, 3))
    dirs = np.concatenate((roots[None, :, None] * ys[:, None, :], gauss,
                           np.zeros_like(ys)[:, None], -ys[:, None]), axis=1)
    vals, errs, conv, path = derivatives.rho_plus_directions(spec, xs, dirs)
    assert path == derivatives.CLOSED_FORM and vals.shape == dirs.shape[:2]
    assert bits(vals) == bits(repeated_directions(spec, xs, dirs))
    assert not errs.any() and conv.all()


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


def analysis_bits(ma):
    return (bits([ma.operator_norm_est, ma.isometry_defect, ma.scale_identity_defect]),
            ma.operator_norm_exact, ma.preserves,
            [(bits(w.x), bits(w.y), bits(w.domain_residual), bits(w.image_residual))
             for w in ma.witnesses])


def reference_preservation(spec, samples, seed):
    """The preservation suite from one map_preservation_analysis per map."""
    suite, tol = "preservation", DEFAULT_TOL
    maps = [spec.kernel.isometry(rng_for(seed, 9000))]
    if spec.dim > 1:
        maps.append(np.diag([1.0, 2.0] + [1.0] * (spec.dim - 2)).astype(np.complex128))
    analyses = [nl.map_preservation_analysis(spec, spec, t, samples, seed, tol)
                for t in maps]
    ma = analyses[0]
    bound = 10.0 * tol * ma.operator_norm_est**2
    records = [
        checks.record(suite, "isometry-defect-small", ma.isometry_defect, 0.0, 1e-8,
                      ma.isometry_defect <= 1e-8, seed),
        checks.record(suite, "isometry-scale-identity", ma.scale_identity_defect, 0.0,
                      bound, ma.scale_identity_defect <= bound, seed),
        checks.record(suite, "isometry-preserves", 0.0 if ma.preserves else 1.0,
                      0.0, 0.0, ma.preserves, seed),
    ]
    for mb in analyses[1:]:
        records += [
            checks.record(suite, "non-isometry-has-witness", len(mb.witnesses), 1.0,
                          0.0, len(mb.witnesses) >= 1, seed),
            checks.record(suite, "non-isometry-contrapositive", mb.isometry_defect,
                          tol, 0.0, mb.isometry_defect > tol, seed),
        ]
    return maps, analyses, records


# every family of the report goldens, and dimension one, where the suite
# audits the isometry alone
PRESERVATION_NORMS = {**REPORT_NORMS, "lp2.5-dim1": "lp:p=2.5:dim=1"}


@pytest.mark.parametrize("samples", [1, 6, 30])
@pytest.mark.parametrize("name", sorted(PRESERVATION_NORMS))
def test_preservation_suite_equals_one_audit_per_map(name, samples):
    spec = nl.parse_norm_spec(PRESERVATION_NORMS[name])
    maps, analyses, records = reference_preservation(spec, samples, 7)
    assert len(records) == (3 if spec.dim == 1 else 5)
    assert record_bits(checks.check_preservation(spec, samples, 7)) == record_bits(records)
    shared = nl.analysis._map_analyses(spec, spec, maps, samples, 7, DEFAULT_TOL)
    assert [analysis_bits(ma) for ma in shared] == [analysis_bits(ma) for ma in analyses]


# --- the report suites: per-sample loops, stacked draws and stacked oracles --


def reference_pair(spec, seed, index):
    rng = rng_for(seed, index)
    return sample_unit(spec, rng), sample_unit(spec, rng), rng


def reference_nd_properties(spec, samples, seed):
    suite = "nd-properties"
    nd1 = nd2 = nd3 = nd4 = mono = 0.0
    for i in range(samples):
        x, y, rng = reference_pair(spec, seed, i)
        lhs = nl.rho_minus(spec, x, y, force_path=NUMERIC_LIMIT).value.real
        rhs = -nl.rho_plus(spec, x, -y, force_path=NUMERIC_LIMIT).value.real
        nd1 = max(nd1, abs(lhs - rhs))
        a = complex(*rng.standard_normal(2))
        va = nl.rho_plus(spec, x, a * x + y)
        vb = nl.rho_plus(spec, x, y)
        allow = max(1e-8, 2.0 * (va.abs_error + vb.abs_error))
        nd2 = max(nd2, abs(va.value.real - (a.real + vb.value.real)) / allow)
        b = complex(*rng.standard_normal(2))
        vl = nl.rho_plus(spec, a * x, b * y)
        phase = np.exp(1j * (np.angle(b) - np.angle(a)))
        vr = nl.rho_plus(spec, x, phase * y)
        allow = max(1e-8, 2.0 * (vl.abs_error + abs(a * b) * vr.abs_error)) \
            * max(1.0, abs(a * b))
        nd3 = max(nd3, abs(vl.value.real - abs(a * b) * vr.value.real) / allow)
        nd4 = max(nd4, abs(vb.value.real) - 1.0)
        quot = derivatives.limit_quotient_table(spec, x, y)
        mono = max(mono, float(np.max(quot[1:] - quot[:-1])))
    noise = derivatives.QUOTIENT_NOISE
    return [
        checks.record(suite, "nd1-independent-limits", nd1, 0.0, 1e-12, nd1 <= 1e-12, seed),
        checks.record(suite, "nd2-translation", nd2, 1.0, 0.0, nd2 <= 1.0, seed),
        checks.record(suite, "nd3-phase-homogeneity", nd3, 1.0, 0.0, nd3 <= 1.0, seed),
        checks.record(suite, "nd4-cauchy-schwarz", nd4, 0.0, 1e-9, nd4 <= 1e-9, seed),
        checks.record(suite, "quotient-monotone-in-t", mono, 0.0, noise, mono <= noise, seed),
    ]


def reference_rho_n_props(spec, samples, seed):
    suite = "rho-n-props"
    ns = (3, 4, 7, 16)
    d_self = d_bound = 0.0
    pd_spec = spec if spec.gram is not None else nl.pd_inner(np.eye(spec.dim))
    d_ip = 0.0
    for i in range(samples):
        x, y, _ = reference_pair(spec, seed, i)
        for n in ns:
            d_self = max(d_self, abs(nl.rho_n(spec, x, x, n).value - 1.0))
            d_bound = max(d_bound, abs(nl.rho_n(spec, x, y, n).value) - 2.0)
        u, v, _ = reference_pair(pd_spec, seed, i)
        for n in ns:
            d_ip = max(d_ip, abs(nl.rho_n(pd_spec, u, v, n).value
                                 - nl.gram_inner(pd_spec, u, v)))
    return [
        checks.record(suite, "rho-n-self-is-norm-squared", d_self, 0.0, 1e-6,
                      d_self <= 1e-6, seed),
        checks.record(suite, "rho-n-bound-two", d_bound, 0.0, 1e-9, d_bound <= 1e-9, seed),
        checks.record(suite, "rho-n-inner-product-recovery", d_ip, 0.0, 1e-8,
                      d_ip <= 1e-8, seed),
    ]


def reference_homogeneity(spec, samples, seed):
    worst = 0.0
    for i in range(samples):
        x, y, rng = reference_pair(spec, seed, i)
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        va = nl.rho_inf(spec, a * x, b * y)
        vb = nl.rho_inf(spec, x, y)
        ab = a * b.conjugate()
        allow = max(1e-7, 3.0 * (va.abs_error + abs(ab) * vb.abs_error)) \
            * (1.0 + abs(ab))
        worst = max(worst, abs(va.value - ab * vb.value) / allow)
    return [checks.record("homogeneity", "rho-inf-homogeneity", worst, 1.0, 0.0,
                          worst <= 1.0, seed)]


def reference_translation(spec, samples, seed):
    worst = 0.0
    for i in range(samples):
        x, y, rng = reference_pair(spec, seed, i)
        a = complex(*rng.standard_normal(2))
        va = nl.rho_inf(spec, x, a * x + y)
        vb = nl.rho_inf(spec, x, y)
        allow = max(1e-7, 3.0 * (va.abs_error + vb.abs_error)) * (1.0 + abs(a)) * 2.0
        worst = max(worst, abs(va.value - (a.conjugate() + vb.value)) / allow)
    return [checks.record("translation", "rho-inf-translation", worst, 1.0, 0.0,
                          worst <= 1.0, seed)]


def reference_lp1_closed_form(spec, samples, seed):
    suite = "lp1-closed-form"
    l1 = nl.lp(1.0, spec.dim)
    d_plus = d_inf = 0.0
    for i in range(samples):
        x, y, _ = reference_pair(l1, seed, i)
        closed = nl.rho_plus(l1, x, y).value.real
        numeric = nl.rho_plus(l1, x, y, force_path=NUMERIC_LIMIT).value.real
        d_plus = max(d_plus, abs(closed - numeric))
        ci = nl.rho_inf(l1, x, y).value
        qi = nl.rho_inf(l1, x, y, force_path=QUADRATURE).value
        d_inf = max(d_inf, abs(ci - qi))
    return [
        checks.record(suite, "rho-plus-numeric-vs-closed", d_plus, 0.0, 1e-6,
                      d_plus <= 1e-6, seed),
        checks.record(suite, "rho-inf-quadrature-vs-closed", d_inf, 0.0, 1e-6,
                      d_inf <= 1e-6, seed),
    ]


def reference_smooth_equivalence(spec, samples, seed):
    suite = "smooth-equivalence"
    if not nl.is_smooth_family(spec):
        raise ValueError("smooth-equivalence requires a smooth norm family")
    verdict_tol = 1e-5
    disagreements = 0
    d_path = 0.0
    for i in range(samples):
        x, y, _ = reference_pair(spec, seed, i)
        vi = nl.perp_rho_inf(spec, x, y, verdict_tol)
        vb = nl.perp_birkhoff_james(spec, x, y, verdict_tol)
        if vi.orthogonal != vb.orthogonal:
            disagreements += 1
        z = nl.decomposition_alpha(spec, x, y) * x + y
        if not nl.perp_birkhoff_james(spec, x, z, verdict_tol).orthogonal:
            disagreements += 1
        closed = nl.rho_inf(spec, x, y).value
        quad = nl.rho_inf(spec, x, y, force_path=QUADRATURE).value
        d_path = max(d_path, abs(closed - quad))
    return [
        checks.record(suite, "verdict-agreement-rho-inf-vs-bj", disagreements, 0.0,
                      0.0, disagreements == 0, seed),
        checks.record(suite, "quadrature-vs-closed-form", d_path, 0.0, 1e-6,
                      d_path <= 1e-6, seed),
    ]


REFERENCE_SUITES = {
    "nd-properties": reference_nd_properties,
    "rho-n-props": reference_rho_n_props,
    "homogeneity": reference_homogeneity,
    "translation": reference_translation,
    "lp1-closed-form": reference_lp1_closed_form,
    "smooth-equivalence": reference_smooth_equivalence,
}


def record_bits(records):
    """The records with every float replaced by its bytes."""
    return [{k: bits(v) if isinstance(v, float) else v for k, v in r.items()}
            for r in records]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@pytest.mark.parametrize("suite", sorted(REFERENCE_SUITES))
def test_suites_equal_the_per_sample_loops(suite, name, seed, monkeypatch):
    # batches of 8 end inside the 37 samples
    spec = KERNEL_SPECS[name]
    monkeypatch.setattr(sampling, "BATCH_ROWS", 8)
    try:
        expect = REFERENCE_SUITES[suite](spec, SAMPLES, seed)
    except ValueError:
        with pytest.raises(ValueError):
            checks.run_suite(suite, spec, SAMPLES, seed)
        return
    got = checks.run_suite(suite, spec, SAMPLES, seed)
    assert record_bits(got) == record_bits(expect)


@pytest.mark.parametrize("samples", [30, 1100], ids=["one-batch", "two-batches"])
@pytest.mark.parametrize("suite, counted_name, per_batch",
                         [("nd-properties", "_quotient_table", 1),
                          ("rho-n-props", "rho_plus_directions", 2)])
def test_nd_and_rho_n_suites_evaluate_each_quantity_once(suite, counted_name, per_batch,
                                                         samples, monkeypatch):
    # nd-properties builds only the convexity record's quotient table (nd1
    # is not evaluated), and rho-n-props takes every n and direction at a
    # base point in one rho_plus_directions call: one for x on the spec,
    # one for u on its pd spec
    batches = len(list(sampling.index_batches(samples)))
    assert batches == (1 if samples == 30 else 2)
    calls = []
    f = getattr(derivatives, counted_name)

    def counted(*args, **kwargs):
        calls.append(counted_name)
        return f(*args, **kwargs)

    for module in (derivatives, checks, rho_infinity):
        if hasattr(module, counted_name):
            monkeypatch.setattr(module, counted_name, counted)
    assert cli.main(["check", "--suite", suite, "--norm", "lp:p=2.5:dim=4",
                     "--samples", str(samples), "--seed", "42"]) == 0
    assert len(calls) == per_batch * batches


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
@pytest.mark.parametrize("samples", [0, -3])
def test_suites_refuse_fewer_than_one_sample(suite, samples):
    # over no samples a suite would report its start values as passing evidence
    with pytest.raises(ValueError, match="samples must be >= 1"):
        checks.run_suite(suite, nl.lp(2.5, 3), samples, 7)


@pytest.mark.parametrize("extra", [1, 4])
def test_gaussian_draws_take_the_extra_normals_after_the_pairs(extra):
    indices = [0, 3, 12, 1000]
    x, y, e = sampling.gaussian_draws(3, 9, (), indices, 2, extra)
    assert e.shape == (len(indices), extra)
    for k, i in enumerate(indices):
        rng = rng_for(9, i)
        assert bits(x[k]) == bits(complex_gaussian(rng, 3))
        assert bits(y[k]) == bits(complex_gaussian(rng, 3))
        assert bits(e[k]) == bits(rng.standard_normal(extra))


@pytest.mark.parametrize("threshold", [None, 2.0], ids=["gaussian", "redraws"])
def test_unit_draws_with_extra_equal_the_suite_stream(threshold, monkeypatch):
    # x, y and then the suites' scalars, on stream (seed, i); with the
    # rejection threshold raised, a third of the indices take the redraw
    spec = nl.lp(1, 2)
    if threshold is not None:
        monkeypatch.setattr(sampling, "UNIT_MIN_NORM", threshold)
        first, second = sampling.gaussian_draws(2, 4, (), range(SAMPLES))
        rejected = ((spec.kernel.norm(first) <= threshold)
                    | (spec.kernel.norm(second) <= threshold))
        assert 5 <= rejected.sum() < SAMPLES
    xs, ys, extra = sampling.unit_draws(spec, 4, (), range(SAMPLES), extra=4)
    for i in range(SAMPLES):
        x, y, rng = reference_pair(spec, 4, i)
        assert bits(xs[i]) == bits(x)
        assert bits(ys[i]) == bits(y)
        assert bits(extra[i]) == bits(rng.standard_normal(4))


def reference_quadrature(spec, x, y, tol, n_max):
    """The single-pair trapezoid doubling the stacked quadrature replaced:
    value, abs_error, converged, node counts and estimates."""
    nx = nl.norm(spec, x)
    ny = nl.norm(spec, y)
    scale = nx * ny
    if scale == 0.0:
        return 0j, 0.0, True, (), ()
    xu = x / nx
    yu = y / ny
    n = 8
    phases = np.exp(2j * np.pi * np.arange(n) / n)
    vals = derivatives.rho_plus_rows(spec, xu, phases[:, None] * yu[None, :])[0]
    counts = [n]
    ests = [(2.0 / n) * complex(np.sum(phases * vals))]
    while 2 * n <= n_max:
        n2 = 2 * n
        new_phases = np.exp(2j * np.pi * (2 * np.arange(n) + 1) / n2)
        nvals = derivatives.rho_plus_rows(spec, xu, new_phases[:, None] * yu[None, :])[0]
        phases2 = np.empty(n2, dtype=np.complex128)
        vals2 = np.empty(n2)
        phases2[0::2], phases2[1::2] = phases, new_phases
        vals2[0::2], vals2[1::2] = vals, nvals
        phases, vals, n = phases2, vals2, n2
        counts.append(n)
        ests.append((2.0 / n) * complex(np.sum(phases * vals)))
        gap = abs(ests[-1] - ests[-2])
        if gap < tol:
            break
    return (ests[-1] * scale, float(gap) * scale, bool(gap < tol), tuple(counts),
            tuple(e * scale for e in ests))


def check_quadrature_rows(spec, xs, ys, tol, n_max):
    """Every row of quadrature_pairs, and its one-row call, against the
    reference; returns the levels the rows stopped at."""
    values, errs, conv, ests, levels = rho_infinity.quadrature_pairs(
        spec, xs, ys, tol=tol, n_max=n_max)
    for i, (x, y) in enumerate(zip(xs, ys)):
        value, err, ok, counts, history = reference_quadrature(spec, x, y, tol, n_max)
        assert bits(values[i]) == bits(value), i
        assert bits(errs[i]) == bits(err) and conv[i] == ok, i
        assert bits(ests[:levels[i], i]) == bits(history), i
        fv, trace = nl.quadrature_rho_inf(spec, x, y, tol=tol, n_max=n_max)
        assert bits(fv.value) == bits(value) and fv.converged == ok, i
        assert trace.node_counts == counts and bits(trace.estimates) == bits(history), i
    return set(levels.tolist())


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_stacked_quadrature_equals_the_single_pair_doubling(name):
    # zero rows have no estimates, smooth rows settle at 16 nodes, ties run
    # to the budget
    spec = KERNEL_SPECS[name]
    xs, ys = hard_pairs(spec, np.random.default_rng((23, spec.dim)))
    assert len(check_quadrature_rows(spec, xs, ys, 1e-9, 512)) >= 2


@pytest.mark.parametrize("name", ["lpinf-3", "poly-rows"])
def test_stacked_quadrature_rows_settle_at_every_level(name):
    # at a loose tol, tie rows settle after different doublings, so the
    # active set shrinks several times before the budget
    spec = KERNEL_SPECS[name]
    f = np.eye(3) if spec.functionals is None else spec.functionals
    rng = np.random.default_rng(5)
    xs = np.array([_tie(rng, f, 2 + i % 2)[0] for i in range(40)])
    ys = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    assert len(check_quadrature_rows(spec, xs, ys, 1e-4, 1024)) >= 4


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_stacked_rho_n_and_numeric_limit_equal_the_one_row_calls(name):
    # rows of the stacked forms against one-row calls, and rho_n against its
    # roots-of-unity sum over single rho_plus values
    spec = KERNEL_SPECS[name]
    xs, ys = hard_pairs(spec, np.random.default_rng((24, spec.dim)))
    for path in (None, NUMERIC_LIMIT):
        for n in (3, 16):
            values, errs, conv, _ = rho_infinity.rho_n_pairs(spec, xs, ys, n,
                                                             force_path=path)
            for i, (x, y) in enumerate(zip(xs, ys)):
                one = nl.rho_n(spec, x, y, n, force_path=path)
                assert bits(values[i]) == bits(one.value), (path, n, i)
                assert bits(errs[i]) == bits(one.abs_error), (path, n, i)
                assert conv[i] == one.converged, (path, n, i)
        c = nl.roots_of_unity(16)
        plus = np.array([[nl.rho_plus(spec, x, ck * y, force_path=path).value.real
                          for ck in c] for x, y in zip(xs, ys)])
        assert bits(rho_infinity.rho_n_pairs(spec, xs, ys, 16, force_path=path)[0]) == bits(
            [(2.0 / 16) * np.sum(c * row) for row in plus])
        # every n and both directions of a row in one stack, against the
        # one-n, one-direction calls
        ns = (3, 4, 7, 16)
        dirs = np.stack([ys, xs[::-1]], axis=1)
        stack = rho_infinity.rho_n_stack(spec, xs, dirs, ns, force_path=path)
        assert len(stack) == len(ns)
        for n, (values, errs, conv, _) in zip(ns, stack):
            assert values.shape == errs.shape == conv.shape == (len(xs), 2)
            for j in range(2):
                one = rho_infinity.rho_n_pairs(spec, xs, dirs[:, j], n, force_path=path)
                assert bits(values[:, j]) == bits(one[0]), (path, n, j)
                assert bits(errs[:, j]) == bits(one[1]), (path, n, j)
                assert (conv[:, j] == one[2]).all(), (path, n, j)
        for bad in ((3, 2), (1, 4), (16, 0)):
            with pytest.raises(nl.NTooSmallError):
                rho_infinity.rho_n_stack(spec, xs, dirs, bad, force_path=path)
    tables = derivatives.limit_quotient_tables(spec, xs, ys)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert bits(tables[i]) == bits(derivatives.limit_quotient_table(spec, x, y)), i


def test_roots_of_unity_stay_fresh_arrays():
    # rho_n reads a cached, read-only copy; the public function hands out
    # an array the caller may write to
    c = nl.roots_of_unity(7)
    c[0] = 0.0
    assert nl.roots_of_unity(7)[0] != 0.0
    assert bits(nl.roots_of_unity(7)) == bits(np.exp(2j * np.pi * np.arange(1, 8) / 7))
    with pytest.raises(ValueError):
        rho_infinity._roots(7)[0] = 0.0
