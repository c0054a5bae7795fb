import functools
from operator import itemgetter

import numpy as np
import pytest

import normlab as nl
from normlab import orthogonality
from normlab.orthogonality import (BIRKHOFF_JAMES, RHO_INF, RHO_PLUS, SamplerConfig,
                                  relation_compare)

from conftest import (
    POLY_ROWS,
    VERDICTS,
    family_specs,
    gaussian_pair,
    random_pd_gram,
    unit_pair,
)

L1 = nl.lp(1, 2)
L3 = nl.lp(3, 3)
PD2 = nl.pd_inner(np.eye(2))


def test_perp_rho_inf_examples():
    assert nl.perp_rho_inf(L1, [1, 1], [1, -1]).orthogonal
    v = nl.perp_rho_inf(L1, [1, 0], [1j, 0])
    assert not v.orthogonal and v.residual == pytest.approx(1.0)
    assert not nl.perp_rho_inf(L1, [1, 1], [1, 1]).orthogonal


def test_perp_rho_plus_examples():
    assert nl.perp_rho_plus(L1, [1, 0], [1j, 0]).orthogonal
    assert not nl.perp_rho_plus(L1, [1, 0], [0, 1]).orthogonal
    assert nl.perp_rho_plus(PD2, [1, 0], [0, 5]).orthogonal


def test_zero_vectors_are_orthogonal():
    for fn in (nl.perp_rho_inf, nl.perp_rho_plus, nl.perp_birkhoff_james):
        v = fn(L1, [0, 0], [1, 2])
        assert v.orthogonal and v.residual == 0.0
        assert fn(L1, [1, 2], [0, 0]).orthogonal


def test_verdict_residual_tol_consistency(rng):
    for spec in family_specs():
        x, y = gaussian_pair(rng, spec.dim)
        for fn in (nl.perp_rho_inf, nl.perp_rho_plus, nl.perp_birkhoff_james):
            v = fn(spec, x, y)
            assert v.orthogonal == (v.residual <= v.tol)


def test_perp_birkhoff_james_examples():
    assert nl.perp_birkhoff_james(L1, [0, 1], [2, 1]).orthogonal
    assert not nl.perp_birkhoff_james(PD2, [1, 0], [1, 0]).orthogonal


def test_birkhoff_minimizer_euclidean_oracle(rng):
    # in the euclidean case the minimizer is the orthogonal projection
    # coefficient xi = -<x,y>/|y|^2, an exact closed form
    pd4 = nl.pd_inner(np.eye(4))
    for _ in range(25):
        x, y = gaussian_pair(rng, 4)
        m, xi = nl.birkhoff_minimize(pd4, x, y)
        xi_true = -np.sum(x * np.conj(y)) / np.sum(np.abs(y) ** 2)
        m_true = np.linalg.norm(x + xi_true * y)
        assert m == pytest.approx(m_true, abs=1e-9)
        assert abs(xi - xi_true) <= 1e-4 * (1 + abs(xi_true))


def test_birkhoff_minimizer_never_exceeds_norm_x(rng):
    # xi = 0 is feasible, so the reported minimum is at most |x|
    for spec in family_specs():
        for _ in range(10):
            x, y = gaussian_pair(rng, spec.dim)
            m, _ = nl.birkhoff_minimize(spec, x, y)
            assert m <= nl.norm(spec, x) * (1 + 1e-12)


def _nelder_mead(f, start, edges, xatol: float, maxfev: int = 2000):
    """Nelder-Mead over a complex vector, the reference minimizer of
    _grid_simplex_minimum.

    The initial simplex is start and start + e for each edge e, one edge
    per real dimension.  Standard reflection/expansion/inside-contraction/
    shrink coefficients; the run stops once every vertex lies within xatol
    of the best one (largest coordinate modulus) or after maxfev
    evaluations.  A function-value criterion is deliberately absent: at
    the kinked maxima of norm ratios the value spread never collapses.
    Returns the best (value, vertex).
    """
    value = itemgetter(0)
    n = len(edges)
    simplex = [(f(p), p) for p in [start] + [start + e for e in edges]]
    fev = n + 1
    while fev < maxfev:
        simplex.sort(key=value)  # stable: ties keep their order
        f_best, best = simplex[0]
        f_worst, worst = simplex[n]
        if max([np.abs(p - best).max() for _, p in simplex[1:]]) <= xatol:
            break
        centroid = sum([p for _, p in simplex[1:n]], best) / n
        refl = centroid + (centroid - worst)
        f_refl = f(refl)
        fev += 1
        if f_best <= f_refl < simplex[n - 1][0]:
            simplex[n] = (f_refl, refl)
        elif f_refl < f_best:
            exp = centroid + 2.0 * (centroid - worst)
            f_exp = f(exp)
            fev += 1
            simplex[n] = (f_exp, exp) if f_exp < f_refl else (f_refl, refl)
        else:
            contr = centroid + 0.5 * (worst - centroid)
            f_contr = f(contr)
            fev += 1
            if f_contr < f_worst:
                simplex[n] = (f_contr, contr)
            else:  # shrink toward the best vertex
                for i in range(1, n + 1):
                    p = best + 0.5 * (simplex[i][1] - best)
                    simplex[i] = (f(p), p)
                fev += n
    return min(simplex, key=value)


def _grid_simplex_minimum(spec, x, y):
    """min over xi of |x + xi y| as an earlier minimizer found it: a polar
    grid of 64 angles x 25 log-spaced moduli plus xi = 0, then a simplex
    from the best grid point to 1e-10 diameter; the reference the exact
    minimizers must never lose to."""
    nx, ny = nl.norm(spec, x), nl.norm(spec, y)
    xu, yu = x / nx, y / ny
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    zs = np.concatenate([[0j], (np.logspace(-6, 6, 25)[:, None] * angles).ravel()])
    vals = spec.kernel.norm(xu + zs[:, None] * yu)
    z0 = zs[np.argmin(vals)]
    step = max(0.25 * abs(z0), 1e-3)
    best, _ = _nelder_mead(lambda z: float(spec.kernel.norm(xu + z[0] * yu)),
                           np.array([z0]), (np.array([step]), np.array([1j * step])),
                           1e-10)
    return nx * min(best, vals.min())


def test_birkhoff_minimum_never_above_grid_and_simplex():
    specs = family_specs() + [nl.lp(1, 5), nl.lp(1.5, 3), nl.polyhedral(POLY_ROWS)]
    for spec in specs:
        rng = np.random.default_rng((11, spec.dim))
        for _ in range(20):
            x, y = gaussian_pair(rng, spec.dim)
            m, xi = nl.birkhoff_minimize(spec, x, y)
            assert m <= _grid_simplex_minimum(spec, x, y) + 1e-12, spec
            assert m == pytest.approx(nl.norm(spec, x + xi * y), rel=1e-12)


def construct_bj_pair(spec, x, y):
    """relation_compare's Birkhoff-James construction of one pair."""
    xs, ys = x[None], y[None]
    a, b = orthogonality.construct_pairs(spec, nl.BIRKHOFF_JAMES, xs, ys,
                                         spec.kernel.norm(xs))
    return a[0], b[0]


def test_bj_slope_agrees_with_the_minimum():
    # the closed-form criterion against the minimizer: a negative slope
    # means some xi beats xi = 0, and on the constructed pair, where the
    # slope is >= 0, xi = 0 is already the minimum
    specs = family_specs() + [nl.lp(1, 5), nl.polyhedral(POLY_ROWS)]
    for spec in specs:
        rng = np.random.default_rng((13, spec.dim))
        for _ in range(20):
            x, y = gaussian_pair(rng, spec.dim)
            nx = nl.norm(spec, x)
            assert spec.kernel.bj_slope_pairs(x[None], y[None])[0] < 0, spec
            assert nl.birkhoff_minimize(spec, x, y)[0] < nx * (1 - 1e-9), spec
            a, b = construct_bj_pair(spec, x, y)
            na = nl.norm(spec, a)
            slope = spec.kernel.bj_slope_pairs(a[None], b[None])[0]
            assert slope >= -1e-10 * na * nl.norm(spec, b), spec
            assert nl.birkhoff_minimize(spec, a, b)[0] >= na * (1 - 1e-12), spec


# the families of the BJ-construction acceptance test: every kernel, the
# kinked ones in several dimensions
BJ_FAMILIES = {
    **{f"lpinf-{d}": nl.lp(np.inf, d) for d in (2, 3, 4)},
    "poly-3": nl.polyhedral(POLY_ROWS),
    "poly-2": nl.parse_norm_spec("poly:f=1,0;0,1;0.5+0.5i,0.5:dim=2"),
    **{f"lp1-{d}": nl.lp(1, d) for d in (2, 3, 5)},
    "wl1": nl.weighted_l1([0.5, 1.0, 2.0]),
    "lp3": nl.lp(3, 3),
    "lp1.5": nl.lp(1.5, 3),
    "pd": nl.pd_inner(random_pd_gram(np.random.default_rng(3), 3)),
}


@pytest.mark.parametrize("name", sorted(BJ_FAMILIES))
def test_bj_construction_is_always_accepted(name):
    # the first-order criterion is exact only on the kink itself, so the
    # minimizer must land there exactly; a simplex stops beside it.  Where
    # the minimum is smooth, a minimizer that compares norm values stops
    # near sqrt(eps) (residuals up to ~1e-7); the gradient polish goes on
    # to rounding (~1e-13), far inside the default tolerance of 1e-6
    spec = BJ_FAMILIES[name]
    for index in range(100):
        rng = np.random.default_rng((5, index))
        x, y = gaussian_pair(rng, spec.dim)
        a, b = construct_bj_pair(spec, x, y)
        v = nl.perp_birkhoff_james(spec, a, b)
        assert v.orthogonal and v.converged, (index, v.residual)
        assert v.residual <= 1e-10, (index, v.residual)


def test_bj_residual_is_first_order_like_rho_inf():
    # near a smooth orthogonal pair the BJ residual is the rho_inf residual,
    # not its square: a pair 1e-3 away from rho_inf-orthogonality is
    # not BJ-orthogonal at the default tolerance
    x, y = unit_pair(L3, np.random.default_rng(8))
    z = nl.decomposition_alpha(L3, x, y) * x + y
    z = z + 1e-3 * nl.norm(L3, z) * x
    vi = nl.perp_rho_inf(L3, x, z)
    vb = nl.perp_birkhoff_james(L3, x, z)
    assert 5e-4 <= vi.residual <= 2e-3
    assert vb.residual == pytest.approx(vi.residual, rel=1e-9)
    assert not vb.orthogonal


def test_decomposition_examples():
    assert nl.decomposition_alpha(L1, [1, 0], [1j, 0]) == pytest.approx(-1j)
    assert nl.decomposition_alpha(L1, [1, 1], [0, 0]) == 0j
    assert nl.decomposition_alpha(PD2, [1, 0], [1, 1]) == pytest.approx(-1.0)
    with pytest.raises(nl.ZeroBaseError):
        nl.decomposition_alpha(L1, [0, 0], [1, 0])


@pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family + str(s.p or ""))
def test_decomposition_postcondition(spec, rng):
    for _ in range(15):
        x, y = gaussian_pair(rng, spec.dim)
        a = nl.decomposition_alpha(spec, x, y)
        v = nl.rho_inf(spec, x, a * x + y)
        bound = max(1e-6, 5 * v.abs_error) * nl.norm(spec, x) * nl.norm(spec, y)
        assert abs(v.value) <= max(bound, 1e-6)


def test_perp_semi_refuses_non_smooth():
    for spec in (nl.lp(1, 2), nl.lp(np.inf, 2), nl.weighted_l1([1, 2]),
                 nl.polyhedral(np.eye(2))):
        with pytest.raises(nl.NotSmoothError):
            nl.perp_semi(spec, [1, 0], [0, 1])


def test_perp_semi_zero_base():
    with pytest.raises(nl.ZeroBaseError):
        nl.perp_semi(PD2, [0, 0], [1, 0])


def test_perp_semi_euclidean_is_inner_product(rng):
    for _ in range(20):
        x, y = gaussian_pair(rng, 2)
        sip = nl.semi_inner(PD2, y, x).value
        assert sip == pytest.approx(np.sum(y * np.conj(x)), abs=1e-9)
    assert not nl.perp_semi(PD2, [1, 0], [1, 0]).orthogonal
    assert nl.perp_semi(PD2, [1, 0], [0, 1]).orthogonal


def test_semi_inner_product_axioms(rng):
    # first-slot linearity, second-slot conjugate homogeneity, norm
    # compatibility, and the Cauchy-Schwarz bound, on smooth families
    for spec in (nl.lp(3, 3), nl.lp(1.5, 3), nl.pd_inner(np.eye(3))):
        for _ in range(10):
            u, v = gaussian_pair(rng, 3)
            x, _ = gaussian_pair(rng, 3)
            a = complex(*rng.standard_normal(2))
            lin = nl.semi_inner(spec, a * u + v, x).value
            parts = (a * nl.semi_inner(spec, u, x).value
                     + nl.semi_inner(spec, v, x).value)
            assert lin == pytest.approx(parts, abs=1e-6 * (1 + abs(a)))
            scaled = nl.semi_inner(spec, u, a * x).value
            assert scaled == pytest.approx(
                np.conj(a) * nl.semi_inner(spec, u, x).value,
                abs=1e-6 * (1 + abs(a)) ** 2)
            self_val = nl.semi_inner(spec, x, x).value
            assert self_val == pytest.approx(nl.norm(spec, x) ** 2, rel=1e-6)
            assert abs(nl.semi_inner(spec, u, x).value) <= (
                nl.norm(spec, u) * nl.norm(spec, x) * (1 + 1e-7) + 1e-9)


def test_semi_matches_rho_inf_conjugate_on_smooth(rng):
    # at smooth points rho_inf(x, y) = conj([y, x])
    for _ in range(25):
        x, y = unit_pair(L3, rng)
        sip = nl.semi_inner(L3, y, x).value
        v = nl.rho_inf(L3, x, y).value
        assert v == pytest.approx(np.conj(sip), abs=1e-6)


def test_semi_verdict_matches_rho_inf_verdict(rng):
    for _ in range(25):
        x, y = unit_pair(L3, rng)
        assert (nl.perp_semi(L3, x, y).orthogonal
                == nl.perp_rho_inf(L3, x, y).orthogonal)
        z = nl.decomposition_alpha(L3, x, y) * x + y
        assert nl.perp_semi(L3, x, z, 1e-5).orthogonal


def test_verdict_homogeneity(rng):
    # the boolean (not the residual) is invariant under nonzero scalings
    for spec in (L1, L3):
        for _ in range(10):
            x, y = gaussian_pair(rng, spec.dim)
            z = nl.decomposition_alpha(spec, x, y) * x + y
            a = 0.3 - 0.8j
            b = -2.0 + 0.5j
            for u, v in ((x, z), (x, y)):
                for fn in (nl.perp_rho_inf, nl.perp_rho_plus,
                           nl.perp_birkhoff_james):
                    assert (fn(spec, a * u, b * v).orthogonal
                            == fn(spec, u, v).orthogonal)


def test_verdicts_stable_at_extreme_scales():
    # residuals are computed on normalized inputs, so scales near the
    # float range neither overflow nor drown the decision
    pd = nl.pd_inner(np.eye(2))
    assert nl.perp_rho_inf(pd, [1e200, 0], [0, 1e-200]).orthogonal
    v = nl.perp_rho_inf(pd, [1e200, 1e200j], [1e200j, 1e200])
    assert v.orthogonal and np.isfinite(v.residual)
    w = nl.perp_rho_plus(nl.lp(1, 2), [1e200, 1e200j], [1e-200, 0])
    assert np.isfinite(w.residual) and not w.orthogonal
    # |x| overflows to inf here, and x/inf = 0 must not read as orthogonal
    for fn in (nl.perp_rho_inf, nl.perp_rho_plus, nl.perp_birkhoff_james):
        assert fn(L1, [1e308, 1e308], [1, 0]) == fn(L1, [1e8, 1e8], [1, 0])


def top_binade(zs):
    """Each row of zs times the power of two that puts its largest real or
    imaginary part in [2^1023, 2^1024), the floats' largest binade."""
    _, e = np.frexp(np.maximum(np.abs(zs.real), np.abs(zs.imag)).max(axis=1))
    out = np.empty_like(zs)
    out.real, out.imag = np.ldexp(zs.real, 1024 - e[:, None]), np.ldexp(zs.imag, 1024 - e[:, None])
    return out


@pytest.mark.parametrize("spec", family_specs(2) + family_specs(3), ids=repr)
def test_residuals_where_the_norm_overflows_are_the_unscaled_ones(spec):
    # a power-of-two scaling changes no bit of x/|x| while |x| is finite;
    # at the top of the float range |x| overflows, yet the residuals stay
    # those of the unscaled pairs, bit for bit
    rng = np.random.default_rng((32, spec.dim))
    xs, ys = (rng.standard_normal((2, 100, spec.dim))
              + 1j * rng.standard_normal((2, 100, spec.dim)))
    xs[0], xs[1] = 1.0, 1.5 + 1.5j  # the sum, and then |x_k| itself, overflow
    big_x, big_y = top_binade(xs), top_binade(ys)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(spec.kernel.norm(big_x[:2])).all()
    relations = nl.RELATIONS if spec.kernel.smooth else (RHO_INF, RHO_PLUS, BIRKHOFF_JAMES)
    for relation in relations:
        r = orthogonality.relation_residuals(spec, relation, xs, ys).tobytes()
        for a, b in ((big_x, ys), (xs, big_y), (big_x, big_y)):
            assert orthogonality.relation_residuals(spec, relation, a, b).tobytes() == r, relation


def test_perp_semi_zero_direction_is_orthogonal():
    assert nl.perp_semi(PD2, [1, 0], [0, 0]).orthogonal


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("relation", nl.RELATIONS)
def test_verdicts_reject_a_tol_that_is_not_finite_and_nonnegative(relation, tol):
    # against inf x would be orthogonal to itself, against nan or -1 no
    # pair would be orthogonal
    for verdict in (functools.partial(nl.perp, PD2, relation),
                    functools.partial(VERDICTS[relation], PD2)):
        with pytest.raises(ValueError, match="tol must be finite"):
            verdict([1, 0], [1, 0], tol)


def test_relation_compare_finds_documented_witnesses():
    cfg = SamplerConfig(dim=2, samples=100, seed=42)
    assert relation_compare(L1, nl.RHO_PLUS, nl.RHO_INF, cfg)
    assert relation_compare(L1, nl.BIRKHOFF_JAMES, nl.RHO_INF, cfg)
    assert not relation_compare(L1, nl.RHO_INF, nl.BIRKHOFF_JAMES, cfg)


def test_relation_compare_explicit_paper_pairs():
    # the documented pairs themselves: ((1,0),(i,0)) separates rho_plus
    # from rho_inf, ((0,1),(2,1)) separates bj from rho_inf
    assert nl.perp_rho_plus(L1, [1, 0], [1j, 0]).orthogonal
    assert not nl.perp_rho_inf(L1, [1, 0], [1j, 0]).orthogonal
    assert nl.perp_birkhoff_james(L1, [0, 1], [2, 1]).orthogonal
    assert not nl.perp_rho_inf(L1, [0, 1], [2, 1]).orthogonal
    # and the derived pair for the reverse rho_plus direction
    assert nl.perp_rho_inf(L1, [1, 0], [0, 1]).orthogonal
    assert not nl.perp_rho_plus(L1, [1, 0], [0, 1]).orthogonal


def test_relation_compare_smooth_space_has_no_rho_bj_witnesses():
    cfg = SamplerConfig(dim=3, samples=60, seed=7, tol=1e-5)
    assert not relation_compare(L3, nl.RHO_INF, nl.BIRKHOFF_JAMES, cfg)
    assert not relation_compare(L3, nl.BIRKHOFF_JAMES, nl.RHO_INF, cfg)
    assert not relation_compare(L3, nl.SEMI, nl.RHO_INF, cfg)
    assert not relation_compare(L3, nl.RHO_INF, nl.SEMI, cfg)


def test_relation_compare_deterministic_and_serializable():
    cfg = SamplerConfig(dim=2, samples=50, seed=11)
    first = relation_compare(L1, nl.RHO_PLUS, nl.RHO_INF, cfg)
    second = relation_compare(L1, nl.RHO_PLUS, nl.RHO_INF, cfg)
    assert [w.to_record() for w in first] == [w.to_record() for w in second]
    rec = first[0].to_record()
    assert rec["seed"] == 11 and rec["relation_a"] == "rho_plus"
    x = nl.parse_cvector(rec["x"])
    y = nl.parse_cvector(rec["y"])
    assert nl.perp_rho_plus(L1, x, y).orthogonal
    assert not nl.perp_rho_inf(L1, x, y).orthogonal


def test_relation_compare_max_witnesses():
    cfg = SamplerConfig(dim=2, samples=100, seed=42, max_witnesses=3)
    assert len(relation_compare(L1, nl.RHO_PLUS, nl.RHO_INF, cfg)) == 3


def test_relation_compare_validates():
    with pytest.raises(nl.DimensionMismatchError):
        relation_compare(L1, nl.RHO_PLUS, nl.RHO_INF,
                         SamplerConfig(dim=3, samples=5))
    with pytest.raises(ValueError):
        nl.perp(L1, "sideways", [1, 0], [0, 1])
    for count in (0, -3):
        with pytest.raises(ValueError, match="max_witnesses"):
            relation_compare(L1, nl.RHO_PLUS, nl.RHO_INF,
                             SamplerConfig(dim=2, samples=5, max_witnesses=count))
    # no samples is not the same as no witness
    for samples in (0, -4):
        with pytest.raises(ValueError, match="samples"):
            relation_compare(L1, nl.RHO_INF, nl.BIRKHOFF_JAMES,
                             SamplerConfig(dim=2, samples=samples))
    with pytest.raises(ValueError, match="relation"):
        relation_compare(L1, nl.RHO_INF, "sideways", SamplerConfig(dim=2, samples=5))
