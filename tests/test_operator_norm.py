"""Operator norms |T| = sup |T x|_cod / |x|_dom: the kernels' duality maps,
the polyhedral dual norm certified by its multipliers, the closed forms
against independent formulas, the Riesz-Thorin certificate between lp of
one exponent, the iterated estimates against dense sampling, and the hard
points (rank one, zero columns, extreme scales, dimension one, non-square
maps through the CLI)."""

import functools
import json

import numpy as np
import pytest

import normlab as nl
from normlab import analysis, spaces
from normlab.analysis import NORM_BOUND_RTOL, operator_norm_formula
from normlab.cli import EXIT_VIOLATION, main
from normlab.sampling import gaussian_draws, unit_draws
from normlab.spaces import _conjugate

from conftest import POLY_ROWS, family_specs, random_pd_gram

MAPS = 20
GOLDEN_POLY = nl.parse_norm_spec("poly:f=1,0;0,1;0.5+0.5i,0.5:dim=2")
GRAM = random_pd_gram(np.random.default_rng(5), 3)


def seeded_map(i, rows, cols):
    rng = np.random.default_rng((77, i))
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def ratio(spec_dom, spec_cod, t, x):
    return nl.norm(spec_cod, t @ x) / nl.norm(spec_dom, x)


@functools.cache
def unit_samples(spec):
    """4096 seeded unit vectors of spec."""
    (xs,) = unit_draws(spec, 5, (9,), range(4096), count=1)
    return xs


def best_sampled_ratio(spec_dom, spec_cod, t):
    xs = unit_samples(spec_dom)
    return (spec_cod.kernel.norm(xs @ t.T) / spec_dom.kernel.norm(xs)).max()


def lq(rows, q):
    return (np.abs(rows) ** q).sum(axis=-1) ** (1.0 / q)


# --- the duality maps of every kernel ----------------------------------------


@pytest.mark.parametrize("spec", family_specs() + [nl.lp(2, 3), nl.lp(1.2, 3), nl.lp(7, 3)],
                         ids=repr)
def test_duality_maps(spec):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((40, spec.dim)) + 1j * rng.standard_normal((40, spec.dim))
    xs[:5, 0] = 0  # zero coordinates: kinks of l1
    xs[5:10, 1] = xs[5:10, 0]  # ties of l-inf
    k, nx = spec.kernel, spec.kernel.norm(xs)
    h = k.norming(xs)
    assert np.allclose((h * xs).sum(axis=1), nx, rtol=1e-14, atol=0)
    assert np.allclose(k.dual(h)[1], 1.0, rtol=1e-14, atol=0)
    x, values, settled = k.dual(xs)  # xs as functionals
    assert settled.all()
    assert np.allclose(k.norm(x), 1.0, rtol=1e-14, atol=0)
    assert np.allclose((xs * x).sum(axis=1), values, rtol=1e-14, atol=0)


def test_dual_values_are_the_closed_forms():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    w = np.array([0.5, 1.0, 2.0])
    expected = {
        nl.lp(1, 3): np.abs(g).max(axis=1),
        nl.weighted_l1(w): (np.abs(g) / w).max(axis=1),
        nl.lp(np.inf, 3): np.abs(g).sum(axis=1),
        nl.lp(2.5, 3): lq(g, 2.5 / 1.5),
        nl.lp(1.5, 3): lq(g, 3.0),
        nl.pd_inner(GRAM): np.sqrt(np.einsum("ij,jk,ik->i", g, np.linalg.inv(GRAM),
                                             g.conj()).real),
    }
    for spec, value in expected.items():
        assert np.allclose(spec.kernel.dual(g)[1], value, rtol=1e-13, atol=0), spec
    assert [_conjugate(p) for p in (1.0, 2.0, 4.0, np.inf)] == [np.inf, 2.0, 4.0 / 3.0, 1.0]


# --- the polyhedral dual, certified from outside its solver ------------------

def lpinf_pair_frame(index):
    """Six functionals on C^2: the 6 x 2 frame [x/|x|, y/|y|] of the lp inf
    dim-6 pair of stream seed 42 at index."""
    (x,), (y,) = gaussian_draws(6, 42, (), [index])
    return nl.polyhedral(np.stack((x / np.abs(x).max(), y / np.abs(y).max()), axis=1))


# wide frames, six functionals on C^2: at indices 5 and 16 a single pass of
# the solver (60 KKT steps, barrier to 1e5) leaves 115 and 318 of the
# functionals below unsettled, and 16 is the pair of the poly-to-lp inf
# reproducer below; at 0 every one settles
POLY_NORMS = {"rows": nl.polyhedral(POLY_ROWS), "golden": GOLDEN_POLY,
              "family": family_specs()[5],
              **{f"lpinf6-pair-{i}": lpinf_pair_frame(i) for i in (0, 5, 16)}}


def certified_dual(f, g, x):
    """Bounds on the dual norm of g under max_k |f_k x|, from a claimed
    maximizer x, and the least multiplier relative to their sum.

    Over the functionals active at x, g = sum_k mu_k conj(f_k x) f_k is
    solved for real mu by least squares.  With mu >= 0, lambda_k = mu_k
    conj(f_k x) is dual feasible up to the residual r: dual(g) <= sum
    |lambda_k| + dual(r), and dual(r) <= sqrt(m) |r|_2 / s_min(F), since
    |x|_2 <= sqrt(m) |F x|_inf / s_min(F).  Below, dual(g) >= Re(g x) / N(x).
    """
    z = f @ x
    n = np.abs(z).max()
    act = np.abs(z) >= (1.0 - 1e-9) * n
    a = (z[act].conj()[:, None] * f[act]).T
    mu = np.linalg.lstsq(np.concatenate((a.real, a.imag)),
                         np.concatenate((g.real, g.imag)), rcond=None)[0]
    slack = np.sqrt(len(f)) * np.linalg.norm(g - a @ mu) / np.linalg.svd(f, compute_uv=False)[-1]
    return (g @ x).real / n, (mu * np.abs(z[act])).sum() + slack, mu.min() / mu.sum()


@pytest.mark.parametrize("name", sorted(POLY_NORMS))
def test_the_polyhedral_dual_is_certified(name):
    # 1000 Gaussian functionals, each f_j with a phase, and the coordinate
    # functionals.  Each f_j of the first three norms attains the maximum
    # somewhere, so its dual norm is exactly 1; a wide frame has f_j that
    # attain it nowhere
    spec = POLY_NORMS[name]
    f = spec.functionals
    rng = np.random.default_rng((80, spec.dim))
    gs = rng.standard_normal((1000, spec.dim)) + 1j * rng.standard_normal((1000, spec.dim))
    phased = np.exp(1j * rng.uniform(0, 2 * np.pi, len(f)))[:, None] * f
    gs = np.concatenate((gs, phased, np.eye(spec.dim)))
    xs, values, settled = spec.kernel.dual(gs)
    assert settled.all()
    assert np.allclose(spec.kernel.norm(xs), 1.0, rtol=1e-15, atol=0)
    for i, (g, x, value) in enumerate(zip(gs, xs, values)):
        lower, upper, least = certified_dual(f, g, x)
        assert least >= -1e-12, i
        # the two sides may cross by rounding, and must meet within 1e-12
        assert max(lower, value) <= upper * (1 + 1e-14), i
        assert upper - min(lower, value) <= 1e-12 * upper, i
    if not name.startswith("lpinf6-pair"):
        assert np.abs(values[1000:1000 + len(f)] - 1.0).max() <= 1e-12


def test_the_poly_to_lpinf_reproducer_reaches_the_optimum():
    # |T| = dual((1, 0)) on the wide frame of index 16: a KKT loop that
    # kept one of three near-tied functionals active stopped at
    # 1.2026250375578902, 2.4e-5 low, and called it exact
    t = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    value, _, exact = analysis._operator_norm(lpinf_pair_frame(16), nl.lp(np.inf, 2), t, 30, 0)
    assert value == pytest.approx(1.2026542534302476, rel=0, abs=1e-10)
    assert exact


def test_an_unsettled_row_is_no_exact_value(monkeypatch):
    # a row that settles in neither pass keeps a feasible point, whose value
    # is a lower bound: the closed form and the map analysis do not call it
    # exact.  A re-solve whose barrier Hessian turns singular raises for
    # its whole stack; each row then keeps its first pass
    solve, passes = spaces._dual_pass, []

    def unsettled(f, gs, barrier_t, kkt_steps):
        passes.append(len(gs))
        if barrier_t > spaces.DUAL_BARRIER_T:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(f, gs, barrier_t, kkt_steps)[0], np.zeros(len(gs), dtype=bool)

    monkeypatch.setattr(spaces, "_dual_pass", unsettled)
    t = seeded_map(0, 2, 2)
    gs = GOLDEN_POLY.functionals @ t
    xs, values, settled = GOLDEN_POLY.kernel.dual(gs)
    assert passes == [3, 3, 1, 1, 1]  # the first pass, the stack, then row by row
    assert not settled.any()
    assert xs.tobytes() == solve(GOLDEN_POLY.functionals, gs, spaces.DUAL_BARRIER_T,
                                 spaces.DUAL_KKT_STEPS)[0].tobytes()
    assert values.tobytes() == (gs * xs).sum(axis=1).real.tobytes()
    value, _, exact = operator_norm_formula(GOLDEN_POLY, GOLDEN_POLY, t)
    assert value == values.max() and not exact
    audit = nl.map_preservation_analysis(GOLDEN_POLY, GOLDEN_POLY, t, samples=4)
    assert not audit.operator_norm_exact


# --- exact where a closed form exists ----------------------------------------


def spectral(t, gram_dom, gram_cod):
    """|T| between two Gram norms: the root of the largest eigenvalue of
    G_dom^-1 T^H G_cod T."""
    m = np.linalg.solve(gram_dom, t.conj().T @ gram_cod @ t)
    return np.sqrt(np.linalg.eigvals(m).real.max())


W3 = np.array([0.5, 1.0, 2.0])
EXACT = {
    # (domain, codomain, |T| by an independent formula)
    "lp1": (nl.lp(1, 3), nl.lp(1, 3), lambda t: np.abs(t).sum(axis=0).max()),
    "wl1": (nl.weighted_l1(W3), nl.weighted_l1(W3),
            lambda t: ((W3[:, None] * np.abs(t)).sum(axis=0) / W3).max()),
    "lpinf": (nl.lp(np.inf, 3), nl.lp(np.inf, 3), lambda t: np.abs(t).sum(axis=1).max()),
    "pd-I": (nl.pd_inner(np.eye(3)), nl.pd_inner(np.eye(3)),
             lambda t: spectral(t, np.eye(3), np.eye(3))),
    "pd-gram": (nl.pd_inner(GRAM), nl.pd_inner(GRAM), lambda t: spectral(t, GRAM, GRAM)),
    "lp2-to-pd": (nl.lp(2, 3), nl.pd_inner(GRAM), lambda t: spectral(t, np.eye(3), GRAM)),
    "lp2.5-to-lpinf": (nl.lp(2.5, 3), nl.lp(np.inf, 3), lambda t: lq(t, 2.5 / 1.5).max()),
    "pd-to-lpinf": (nl.pd_inner(GRAM), nl.lp(np.inf, 3), lambda t: np.sqrt(np.einsum(
        "ij,jk,ik->i", t, np.linalg.inv(GRAM), t.conj()).real).max()),
    "wl1-to-lpinf": (nl.weighted_l1(W3), nl.lp(np.inf, 3), lambda t: (np.abs(t) / W3).max()),
    "lp1-to-lp2.5": (nl.lp(1, 3), nl.lp(2.5, 3), lambda t: lq(t.T, 2.5).max()),
    "lp2.5-to-poly": (nl.lp(2.5, 3), nl.polyhedral(POLY_ROWS),
                      lambda t: lq(POLY_ROWS @ t, 2.5 / 1.5).max()),
}


def poly_into_max_modulus(spec_dom, spec_cod):
    """(domain, codomain, max_j dual(f_j T)), each dual norm bounded from
    above by its certificate at the solver's dual point."""
    f = spec_dom.functionals

    def exact(t):
        gs = spec_cod.kernel.m @ t
        bounds = [certified_dual(f, g, x) for g, x in zip(gs, spec_dom.kernel.dual(gs)[0])]
        assert min(least for _, _, least in bounds) >= -1e-12
        return max(upper for _, upper, _ in bounds)
    return spec_dom, spec_cod, exact


EXACT.update({
    "poly": poly_into_max_modulus(nl.polyhedral(POLY_ROWS), nl.polyhedral(POLY_ROWS)),
    "poly-golden": poly_into_max_modulus(GOLDEN_POLY, GOLDEN_POLY),
    "poly-to-lpinf": poly_into_max_modulus(nl.polyhedral(POLY_ROWS), nl.lp(np.inf, 3)),
    "poly-golden-to-lpinf-dim4": poly_into_max_modulus(GOLDEN_POLY, nl.lp(np.inf, 4)),
})


@pytest.mark.parametrize("case", sorted(EXACT))
def test_closed_forms_are_exact(case):
    spec_dom, spec_cod, exact = EXACT[case]
    for i in range(MAPS):
        t = seeded_map(i, spec_cod.dim, spec_dom.dim)
        assert operator_norm_formula(spec_dom, spec_cod, t) is not None
        est, x = nl.operator_norm_estimate(spec_dom, spec_cod, t, samples=30, seed=i)
        assert est == pytest.approx(exact(t), rel=1e-12, abs=0), (case, i)
        assert nl.norm(spec_dom, x) == pytest.approx(1.0, rel=1e-12)
        assert ratio(spec_dom, spec_cod, t, x) == pytest.approx(est, rel=1e-12)


@pytest.mark.parametrize("case", sorted(c for c in EXACT if c.startswith("poly")))
def test_a_poly_closed_form_solves_its_duals_once(case, monkeypatch):
    # the maximizing row's dual point comes from the solve of every row's
    # dual norm: one stacked call per map, over the rows f_j T
    spec_dom, spec_cod, _ = EXACT[case]
    solve, calls = spaces._polyhedral_dual, []

    def counted(f, gs):
        calls.append(len(gs))
        return solve(f, gs)

    monkeypatch.setattr(spaces, "_polyhedral_dual", counted)
    for i in range(MAPS):
        t = seeded_map(i, spec_cod.dim, spec_dom.dim)
        nl.operator_norm_estimate(spec_dom, spec_cod, t, samples=30, seed=i)
        assert calls == [len(spec_cod.kernel.m)], (case, i)
        calls.clear()


# --- iterated elsewhere: attained, and above dense sampling ------------------

ITERATED = {
    "lp2.5": (nl.lp(2.5, 3), nl.lp(2.5, 3)),
    "lp1.5-dim4": (nl.lp(1.5, 4), nl.lp(1.5, 4)),
    "lp2.5-to-lp1": (nl.lp(2.5, 3), nl.lp(1, 3)),
    "lpinf-to-pd": (nl.lp(np.inf, 3), nl.pd_inner(GRAM)),
    "poly-to-lp2.5": (nl.polyhedral(POLY_ROWS), nl.lp(2.5, 3)),
}


@pytest.mark.parametrize("case", sorted(ITERATED))
def test_iterated_estimates_attain_and_beat_sampling(case):
    spec_dom, spec_cod = ITERATED[case]
    for i in range(MAPS):
        t = seeded_map(i, spec_cod.dim, spec_dom.dim)
        assert operator_norm_formula(spec_dom, spec_cod, t) is None
        est, x = nl.operator_norm_estimate(spec_dom, spec_cod, t, samples=30, seed=i)
        assert nl.norm(spec_dom, x) == pytest.approx(1.0, rel=1e-12)
        assert ratio(spec_dom, spec_cod, t, x) == pytest.approx(est, rel=1e-12)
        assert est >= best_sampled_ratio(spec_dom, spec_cod, t), (case, i)


def test_exact_flag_of_the_map_analysis():
    t = seeded_map(0, 3, 3)
    specs = family_specs()
    lp1, lp25, lpinf, wl1, pd, poly = specs
    exact = {(a, b) for a in (lp1, wl1) for b in specs}
    exact |= {(a, b) for a in specs for b in (lpinf, poly)}
    exact |= {(pd, pd)}
    # diag(1, 2, 1) is monomial: on lp2.5 it reaches the Riesz-Thorin bound
    diag = np.diag([1.0, 2.0, 1.0])
    for m, exact_m in ((t, exact), (diag, exact | {(lp25, lp25)})):
        for a in specs:
            for b in specs:
                ma = nl.map_preservation_analysis(a, b, m, samples=4, seed=1)
                assert ma.operator_norm_exact == ((a, b) in exact_m), (a, b)


# --- certified by the Riesz-Thorin bound between lp of one exponent ----------

CERTIFIED_P = (1.1, 1.5, 2.5, 3.0, 7.0)
CERTIFIED_DIMS = [(d, d) for d in range(1, 5)] + [(2, 3)]  # (domain, codomain)


def dims_id(dims):
    return "{}to{}".format(*dims)


def riesz_thorin(t, p):
    """|T|_1^{1/p} |T|_inf^{1-1/p}: the largest column and row abs sums."""
    a = np.abs(t)
    return a.sum(axis=0).max() ** (1 / p) * a.sum(axis=1).max() ** (1 - 1 / p)


def monomial_maps(dom_dim, cod_dim):
    """Scalar multiples of monomial maps: a kernel isometry, 3.7 times it
    and diag(1, 2, 1, ...); a rectangular map sends e_k to a multiple of
    e_{s(k)} for an injective s."""
    if dom_dim != cod_dim:
        t = np.zeros((cod_dim, dom_dim), dtype=np.complex128)
        t[2, 0], t[0, 1] = 1j, -2.0
        return {"monomial": t}
    iso = nl.lp(2.5, dom_dim).kernel.isometry(np.random.default_rng((79, dom_dim)))
    maps = {"isometry": iso, "3.7-isometry": 3.7 * iso}
    if dom_dim > 1:
        maps["diag-1-2"] = np.diag([1.0, 2.0] + [1.0] * (dom_dim - 2))
    return maps


@pytest.mark.parametrize("dims", CERTIFIED_DIMS, ids=dims_id)
@pytest.mark.parametrize("p", CERTIFIED_P)
def test_the_bound_closes_on_monomial_maps(p, dims, monkeypatch):
    spec_dom, spec_cod = nl.lp(p, dims[0]), nl.lp(p, dims[1])
    basis = np.eye(dims[0])
    for name, t in monomial_maps(*dims).items():
        assert operator_norm_formula(spec_dom, spec_cod, t) is None
        best = max(nl.norm(spec_cod, t[:, k]) for k in range(dims[0]))
        ma = nl.map_preservation_analysis(spec_dom, spec_cod, t, samples=4, seed=1)
        assert ma.operator_norm_exact, name
        # certified from the basis vectors alone: no draws and no ascent
        with monkeypatch.context() as m:
            for attr in ("unit_draws", "_power_ascent"):
                m.setattr(analysis, attr, None)
            est, x = nl.operator_norm_estimate(spec_dom, spec_cod, t, samples=30, seed=1)
        assert est == ma.operator_norm_est
        assert abs(est - best) <= NORM_BOUND_RTOL * best, name
        assert abs(est - riesz_thorin(t, p)) <= NORM_BOUND_RTOL * est, name
        assert (basis == x).all(axis=1).any(), name  # a unit basis vector


@pytest.mark.parametrize("p", [1.5, 2.5, 7.0])
def test_the_bound_closes_off_the_basis(p):
    # the all-ones map attains the bound 2 at (1, 1) / 2^{1/p}, where no
    # basis vector does; the ascent reaches it, and stops there
    spec = nl.lp(p, 2)
    t = np.ones((2, 2))
    ma = nl.map_preservation_analysis(spec, spec, t, samples=30, seed=1)
    assert ma.operator_norm_exact
    assert ma.operator_norm_est == pytest.approx(2.0, rel=NORM_BOUND_RTOL, abs=0)
    assert max(nl.norm(spec, t[:, k]) for k in range(2)) < 1.99


@pytest.mark.parametrize("dims", CERTIFIED_DIMS[1:], ids=dims_id)
@pytest.mark.parametrize("p", CERTIFIED_P)
def test_the_bound_caps_the_estimate_where_it_does_not_close(p, dims):
    # the sampled ratios are those of the estimate's own candidates, the
    # basis and its stream-3 draws: the ascent never falls below them, while
    # it can stop at a local maximum below the dense sampling of
    # best_sampled_ratio (at p = 7, on 2 of 60 maps by up to 0.26%)
    spec_dom, spec_cod = nl.lp(p, dims[0]), nl.lp(p, dims[1])
    for i in range(60):
        t = seeded_map(i, dims[1], dims[0])
        ma = nl.map_preservation_analysis(spec_dom, spec_cod, t, samples=30, seed=i)
        (drawn,) = unit_draws(spec_dom, i, (3,), range(30), count=1)
        xs = np.concatenate((np.eye(dims[0]), drawn))
        sampled = (spec_cod.kernel.norm(xs @ t.T) / spec_dom.kernel.norm(xs)).max()
        assert not ma.operator_norm_exact, i
        assert riesz_thorin(t, p) >= ma.operator_norm_est >= sampled, i


# --- hard points -------------------------------------------------------------

HARD = [nl.lp(1, 3), nl.lp(2.5, 3), nl.lp(np.inf, 3), nl.weighted_l1(W3),
        nl.pd_inner(GRAM), nl.polyhedral(POLY_ROWS)]


@pytest.mark.parametrize("spec", HARD, ids=repr)
def test_rank_one_maps(spec):
    # T x = u (v . x), so |T| = |u| dual(v)
    for i in range(MAPS):
        rng = np.random.default_rng((78, i))
        u, v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        est, x = nl.operator_norm_estimate(spec, spec, np.outer(u, v), samples=30, seed=i)
        value = nl.norm(spec, u) * spec.kernel.dual(v[None])[1][0]
        assert est == pytest.approx(value, rel=1e-12)
        assert ratio(spec, spec, np.outer(u, v), x) == pytest.approx(est, rel=1e-12)


@pytest.mark.parametrize("spec", HARD, ids=repr)
def test_zero_columns_and_extreme_scales(spec):
    # every step of the estimate is invariant under scaling up to rounding,
    # and where an exact formula or the power iteration has converged the
    # scaled estimate agrees to rounding as well
    for i in range(5):
        t = seeded_map(i, 3, 3)
        t[:, i % 3] = 0
        est, x = nl.operator_norm_estimate(spec, spec, t, samples=30, seed=i)
        assert est >= best_sampled_ratio(spec, spec, t)
        assert ratio(spec, spec, t, x) == pytest.approx(est, rel=1e-12)
        for scale in (1e150, 1e-150):
            big, y = nl.operator_norm_estimate(spec, spec, scale * t, samples=30, seed=i)
            assert np.isfinite(big) and np.isfinite(y).all()
            assert big == pytest.approx(scale * est, rel=1e-12)


def test_dimension_one():
    # every norm on C^1 is c |x|, so |T| = |t| c_cod / c_dom
    specs = {nl.lp(1, 1): 1.0, nl.lp(3, 1): 1.0, nl.lp(np.inf, 1): 1.0,
             nl.weighted_l1([2.5]): 2.5, nl.pd_inner([[4.0]]): 2.0,
             nl.polyhedral([[1.0], [0.6 + 0.8j], [3j]]): 3.0}
    t = np.array([[0.3 - 1.2j]])
    for a, ca in specs.items():
        for b, cb in specs.items():
            est, x = nl.operator_norm_estimate(a, b, t, samples=5, seed=1)
            assert est == pytest.approx(abs(t[0, 0]) * cb / ca, rel=1e-12), (a, b)
            assert nl.norm(a, x) == pytest.approx(1.0, rel=1e-12)


def analyze(capsys, tmp_path, t, *norms):
    path = tmp_path / "t.txt"
    path.write_text("\n".join(",".join(nl.format_complex(z) for z in row) for row in t))
    code = main(["analyze-map", "--norm", norms[0], "--cod-norm", norms[1],
                 "--matrix", str(path), "--samples", "40", "--format", "jsonl"])
    first = capsys.readouterr().out.splitlines()[0]
    return code, json.loads(first)


def test_analyze_map_between_two_families(capsys, tmp_path):
    t = np.array([[1.0, 0.5j], [-0.25, 2.0], [0.5 + 0.5j, 1.0]])
    # pd to lp inf: the largest row 2-norm, in closed form
    code, rec = analyze(capsys, tmp_path, t, "pd:gram=I:dim=2", "lp:p=inf:dim=3")
    assert code == EXIT_VIOLATION and not rec["preserves"]
    assert rec["operator_norm_est"] == pytest.approx(np.linalg.norm(t, axis=1).max(),
                                                     rel=1e-12)
    assert set(rec) == {"operator_norm_est", "isometry_defect", "scale_identity_defect",
                        "preserves", "witnesses", "samples", "seed"}
    # lp 2.5 to lp 1: iterated
    code, rec = analyze(capsys, tmp_path, t, "lp:p=2.5:dim=2", "lp:p=1:dim=3")
    assert code == EXIT_VIOLATION
    assert rec["operator_norm_est"] >= best_sampled_ratio(nl.lp(2.5, 2), nl.lp(1, 3), t)
