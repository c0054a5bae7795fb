import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import normlab as nl
from normlab.spaces import is_inner_product_family, norm_rows

from conftest import family_specs, gaussian_pair, random_pd_gram


def test_norm_examples():
    assert nl.norm(nl.lp(1, 2), [3, 4j]) == pytest.approx(7.0, abs=1e-15)
    assert nl.norm(nl.pd_inner(np.eye(2)), [1, 1j]) == pytest.approx(np.sqrt(2))
    for spec in family_specs():
        assert nl.norm(spec, np.zeros(3)) == 0.0


def test_euclidean_norm_at_a_subnormal_vector():
    # the norm divides by the largest modulus, which numpy does through its
    # reciprocal; at a subnormal vector that overflowed and gave NaN
    for spec in (nl.lp(2, 2), nl.parse_norm_spec("pd:gram=I:dim=2")):
        assert nl.norm(spec, (1e-310, 1e-310)) == np.hypot(1e-310, 1e-310)
    assert nl.norm(nl.pd_inner(np.diag([2.0, 3.0])), (1e-310, 0)) == pytest.approx(
        np.sqrt(2.0) * 1e-310, rel=1e-9)


@pytest.mark.parametrize("spec", [nl.lp(2, 3), nl.pd_inner(np.eye(3))], ids=repr)
def test_euclidean_norm_rows_scaled_into_the_subnormals(spec, rng):
    # x times 2^k, rounded to the subnormals, has the norm of the same x
    # scaled back up, times 2^k, bit for bit; the rows stacked with it
    # keep the bits they have alone
    xs = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    alone = spec.kernel.norm(xs)
    for k in (-1030, -1060, -1070):
        tiny = np.empty_like(xs)
        tiny.real, tiny.imag = np.ldexp(xs.real, k), np.ldexp(xs.imag, k)
        back = np.empty_like(xs)
        back.real, back.imag = np.ldexp(tiny.real, -k), np.ldexp(tiny.imag, -k)
        assert spec.kernel.norm(tiny).tobytes() == np.ldexp(
            spec.kernel.norm(back), k).tobytes(), k
        mixed = np.concatenate((xs, tiny[:1], np.zeros((1, 3))))
        got = spec.kernel.norm(mixed)
        assert got[:50].tobytes() == alone.tobytes()
        assert got[50] == np.ldexp(spec.kernel.norm(back[0]), k) and got[51] == 0.0
        # one vector gives a scalar, and leading axes are kept
        assert np.ndim(spec.kernel.norm(tiny[0])) == 0
        assert spec.kernel.norm(tiny.reshape(5, 10, 3)).tobytes() == (
            spec.kernel.norm(tiny).tobytes())


@pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family + str(s.p or ""))
def test_triangle_and_homogeneity(spec, rng):
    for _ in range(40):
        x, y = gaussian_pair(rng, spec.dim)
        a = complex(*rng.standard_normal(2))
        nx, ny = nl.norm(spec, x), nl.norm(spec, y)
        assert nl.norm(spec, x + y) <= (nx + ny) * (1 + 1e-12)
        assert nl.norm(spec, a * x) == pytest.approx(abs(a) * nx, rel=1e-12)


@pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family + str(s.p or ""))
def test_definiteness(spec, rng):
    assert nl.norm(spec, np.zeros(spec.dim)) == 0.0
    for j in range(spec.dim):
        e = np.zeros(spec.dim, dtype=complex)
        e[j] = 1e-8
        assert nl.norm(spec, e) > 0.0


def test_pd_norm_no_overflow_at_extreme_scale():
    spec = nl.pd_inner(np.eye(2))
    assert nl.norm(spec, [1e200, 1e200j]) == pytest.approx(np.sqrt(2) * 1e200)
    assert nl.norm(spec, [1e-200, 0]) == pytest.approx(1e-200)


def test_pd_norm_matches_quadratic_form(rng):
    g = random_pd_gram(rng, 4)
    spec = nl.pd_inner(g)
    for _ in range(40):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = np.real(np.conj(x) @ g @ x)
        assert nl.norm(spec, x) ** 2 == pytest.approx(q, rel=1e-12)
        assert nl.gram_inner(spec, x, x) == pytest.approx(q, rel=1e-12)


def test_kernel_norm_matches_norm_rows(rng):
    # the kernel evaluates over the last axis: single vectors (as in the
    # Birkhoff-James simplex) must agree with the batch, and so must the
    # numeric limit's norm_steps, bit for bit
    ts = 0.1 * 4.0 ** -np.arange(13)
    for spec in family_specs():
        xs = rng.standard_normal((5, spec.dim)) + 1j * rng.standard_normal((5, spec.dim))
        ys = rng.standard_normal((5, spec.dim)) + 1j * rng.standard_normal((5, spec.dim))
        batched = norm_rows(spec, xs)
        steps = spec.kernel.norm_steps(xs, ys, ts)
        assert steps.shape == (ts.size, 5)
        for i in range(5):
            assert float(spec.kernel.norm(xs[i])) == pytest.approx(batched[i], rel=1e-14)
            assert steps[:, i].tobytes() == spec.kernel.norm_steps(xs[i], ys[i], ts).tobytes()


def test_norm_rows_batches(rng):
    spec = nl.lp(3, 4)
    xs = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    batched = norm_rows(spec, xs)
    for i in range(7):
        assert batched[i] == pytest.approx(nl.norm(spec, xs[i]), rel=1e-14)


def test_construction_validation():
    with pytest.raises(ValueError):
        nl.lp(0.5, 2)
    with pytest.raises(ValueError):
        nl.weighted_l1([1.0, 0.0])
    with pytest.raises(ValueError):
        nl.weighted_l1([1.0, -2.0])
    with pytest.raises(ValueError):
        nl.pd_inner([[1, 1], [0, 1]])  # not Hermitian
    with pytest.raises(ValueError):
        nl.pd_inner([[1, 0], [0, -1]])  # not positive definite
    with pytest.raises(ValueError):
        nl.polyhedral([[1, 0]])  # rank deficient in dim 2
    with pytest.raises(ValueError):
        nl.vector([np.nan, 1.0])
    with pytest.raises(ValueError):
        nl.vector([])


def test_dimension_mismatch():
    with pytest.raises(nl.DimensionMismatchError):
        nl.norm(nl.lp(2, 3), [1, 2])


def test_dual_segment_constants():
    assert nl.dual_segment_constant(nl.lp(2, 3)).r_dual == 0.0
    assert nl.dual_segment_constant(nl.lp(1, 3)).r_dual == 2.0
    assert nl.dual_segment_constant(nl.lp(np.inf, 3)).r_dual == 2.0
    assert nl.dual_segment_constant(nl.weighted_l1([1, 2])).r_dual == 2.0
    assert nl.dual_segment_constant(nl.pd_inner(np.eye(3))).r_dual == 0.0
    poly = nl.polyhedral(np.eye(2))
    assert nl.dual_segment_constant(poly).r_dual is None
    # every one-dimensional norm is a multiple of the modulus
    for spec in (nl.lp(1, 1), nl.polyhedral([[2.0]]), nl.weighted_l1([3.0])):
        assert nl.dual_segment_constant(spec).r_dual == 0.0
        assert nl.is_smooth_family(spec)


def test_smoothness_flags():
    assert nl.is_smooth_family(nl.lp(1.5, 2))
    assert nl.is_smooth_family(nl.pd_inner(np.eye(2)))
    assert not nl.is_smooth_family(nl.lp(1, 2))
    assert not nl.is_smooth_family(nl.lp(np.inf, 2))
    assert not nl.is_smooth_family(nl.weighted_l1([1, 2]))
    assert not nl.is_smooth_family(nl.polyhedral(np.eye(2)))
    # the inner-product norms: every |M x|_2, and every norm on C^1
    inner = [nl.pd_inner(np.eye(2)), nl.pd_inner(random_pd_gram(np.random.default_rng(6), 3)),
             nl.lp(2, 3), nl.lp(1, 1), nl.lp(3, 1), nl.lp(np.inf, 1),
             nl.weighted_l1([3.0]), nl.pd_inner([[2.0]]), nl.polyhedral([[2.0], [1j]])]
    others = [nl.lp(1, 2), nl.lp(3, 2), nl.lp(np.inf, 2), nl.weighted_l1([1, 2]),
              nl.polyhedral(np.eye(2))]
    assert all(is_inner_product_family(s) for s in inner)
    assert not any(is_inner_product_family(s) for s in others)


def test_spec_text_roundtrip():
    texts = [
        "lp:p=1.5:dim=4",
        "lp:p=inf:dim=2",
        "wl1:w=1.0,2.0,0.5:dim=3",
        "pd:gram=I:dim=3",
        "poly:f=1.0,0;0,1.0;0.5+0.5i,0.5:dim=2",
    ]
    for text in texts:
        spec = nl.parse_norm_spec(text)
        again = nl.parse_norm_spec(nl.format_norm_spec(spec))
        assert again.family == spec.family and again.dim == spec.dim


def test_spec_parse_errors():
    for bad in ("nope:dim=2", "lp:p=2", "lp:p=0.2:dim=2", "pd:gram=I",
                "wl1:w=1,2:dim=3", "lp:p=2:dim=x"):
        with pytest.raises(nl.SpecParseError):
            nl.parse_norm_spec(bad)


@pytest.mark.parametrize("text", [
    "wl1:w=1,2:p=7",  # a field the family does not read
    "lp:p=2:dim=2:bogus=1",
    "pd:gram=I:dim=2:f=1,0",
    "lp:p=1:p=3:dim=2",  # a repeated field
    "poly:f=1,0;0,1:dim=2:dim=2",
])
def test_spec_fields_that_are_unread_or_repeated_are_rejected(text):
    with pytest.raises(nl.SpecParseError):
        nl.parse_norm_spec(text)


def test_dim_is_accepted_on_every_family():
    for text in ("lp:p=3:dim=2", "wl1:w=1,2:dim=2", "pd:gram=2,0;0,1:dim=2",
                 "poly:f=1,0;0,1;1,1:dim=2"):
        assert nl.parse_norm_spec(text).dim == 2


def test_complex_literal_examples():
    assert nl.parse_complex("1") == 1.0
    assert nl.parse_complex("-2.5") == -2.5
    assert nl.parse_complex("0+1i") == 1j
    assert nl.parse_complex("1.5-0.25i") == 1.5 - 0.25j
    with pytest.raises(nl.SpecParseError):
        nl.parse_complex("1 + 2i")  # no spaces in the grammar
    with pytest.raises(nl.SpecParseError):
        nl.parse_complex("2i")
    assert nl.format_complex(complex(-0.0, 0.0)) == "0"
    np.testing.assert_array_equal(nl.parse_cvector("1,0+1i"), [1, 1j])


@pytest.mark.parametrize("text, value", [
    ("0.5i", None),
    ("1.5i", None),
    ("1.5e3i", None),
    ("2i", None),
    ("-0.5i", None),
    ("1-2.5i", 1 - 2.5j),
    ("0+0.5i", 0.5j),
    ("3", 3.0),
])
def test_bare_imaginary_literals_are_rejected(text, value):
    # the imaginary part follows a real part and starts with its sign; a
    # decimal point must not split a bare one into two parts
    if value is None:
        with pytest.raises(nl.SpecParseError):
            nl.parse_complex(text)
    else:
        assert nl.parse_complex(text) == value


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_complex_literal_roundtrip(z):
    assert nl.parse_complex(nl.format_complex(z)) == complex(z)


@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_cvector_roundtrip(values):
    vec = nl.vector(values)
    np.testing.assert_array_equal(nl.parse_cvector(nl.format_cvector(vec)), vec)


@pytest.mark.parametrize("spec", family_specs(4), ids=lambda s: s.family + str(s.p or ""))
def test_kernel_isometry_preserves_the_norm(spec, rng):
    t = spec.kernel.isometry(np.random.default_rng(5))
    assert t.shape == (4, 4) and t.dtype == np.complex128
    xs = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    np.testing.assert_allclose(norm_rows(spec, xs @ t.T), norm_rows(spec, xs),
                               rtol=1e-12)
