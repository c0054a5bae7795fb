"""Named theorem suites behind the ``check`` command.

Each suite maps to one Invariants block of the library: it draws seeded
samples, evaluates the assertion, and returns one record per assertion
with the observed and reference values.  A record passes when the
observed side satisfies its comparison against the reference within tol;
the direction of the comparison is baked in per assertion.

Every suite evaluates its samples a batch at a time
(sampling.index_batches): nd-properties, rho-n-props, homogeneity,
translation, lp1-closed-form and smooth-equivalence draw a batch with
unit_draws and evaluate it through the stacked forms, namely the kernels'
pairs methods, rho_plus_directions (the numeric limit included),
limit_quotient_tables, rho_n_stack, quadrature_pairs and
relation_residuals, with the directions taken at one base point in one
stack; bounds, symmetry-detector and preservation run the batched audits
of analysis.  Sample i draws x, y and then any scalars from stream
(seed, i), and every record has the bits of a loop over the samples with
the single-pair functions; nd1 holds by definition and is not evaluated.
"""

from __future__ import annotations

import numpy as np

from . import analysis
from .derivatives import (
    NUMERIC_LIMIT,
    QUOTIENT_NOISE,
    limit_quotient_tables,
    rho_plus_directions,
)
from .orthogonality import (
    BIRKHOFF_JAMES,
    DEFAULT_TOL,
    RHO_INF,
    construct_pairs,
    relation_residuals,
)
from .rho_infinity import quadrature_pairs, rho_n_stack
from .sampling import index_batches, rng_for, unit_draws
from .spaces import (
    NormSpec,
    _modulus,
    dual_segment_constant,
    is_inner_product_family,
    is_smooth_family,
    lp,
    pd_inner,
)


def record(suite: str, assertion: str, lhs: float, rhs: float, tol: float,
           passed: bool, seed: int) -> dict:
    return {"suite": suite, "assertion": assertion, "lhs": float(lhs),
            "rhs": float(rhs), "tol": float(tol), "pass": bool(passed),
            "seed": int(seed)}


def _pairs(spec: NormSpec, seed: int, batch: range, scalars: int = 0):
    """The unit pairs x, y of the batch's samples, sample i on stream
    (seed, i), followed by `scalars` complex scalars per sample, each
    complex(re, im) of the next two standard normals of its stream, as
    (len(batch),) arrays."""
    x, y, *extra = unit_draws(spec, seed, (), batch, extra=2 * scalars)
    out = [x, y]
    for k in range(scalars):
        z = np.empty(len(batch), dtype=np.complex128)  # complex(re, im)
        z.real, z.imag = extra[0][:, 2 * k], extra[0][:, 2 * k + 1]
        out.append(z)
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise as Python multiplies two complex numbers; numpy's
    complex product of arrays may fuse the multiply-adds."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _rho_plus(spec: NormSpec, xs: np.ndarray, ys: np.ndarray,
              force_path: str | None = None):
    """rho_plus and its abs_error for each row pair of xs and ys."""
    vals, errs, _, _ = rho_plus_directions(spec, xs, ys[:, None, :],
                                           force_path=force_path)
    return vals[:, 0], errs[:, 0]


def check_nd_properties(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """(nd1)-(nd4) plus convexity monotonicity of the quotient steps.

    nd1 holds by definition (derivatives.rho_minus is -rho_plus(x, -y)),
    so it is not evaluated and reads 0; ROADMAP.md item 4 owns its replacement.
    """
    suite = "nd-properties"
    nd2 = nd3 = nd4 = mono = 0.0
    for batch in index_batches(int(samples)):
        x, y, a, b = _pairs(spec, seed, batch, scalars=2)
        # nd2: rho_plus(x, a x + y) = Re(a) |x|^2 + rho_plus(x, y), and
        # nd3: rho_plus(a x, b y) = |ab| rho_plus(x, e^{i(arg b - arg a)} y),
        # with the three directions at x in one stack
        phase = np.exp(1j * (np.angle(b) - np.angle(a)))
        vals, errs = rho_plus_directions(spec, x, np.stack(
            [a[:, None] * x + y, y, phase[:, None] * y], axis=1))[:2]
        (va, vb, vr), (ea, eb, er) = vals.T, errs.T
        allow = np.maximum(1e-8, 2.0 * (ea + eb))
        nd2 = max(nd2, float((np.abs(va - (a.real + vb)) / allow).max()))
        vl, el = _rho_plus(spec, a[:, None] * x, b[:, None] * y)
        ab = _modulus(_product(a, b))
        allow = np.maximum(1e-8, 2.0 * (el + ab * er)) * np.maximum(1.0, ab)
        nd3 = max(nd3, float((np.abs(vl - ab * vr) / allow).max()))
        # nd4: |rho_plus| <= |x| |y| (unit samples)
        nd4 = max(nd4, float((np.abs(vb) - 1.0).max()))
        # convexity: the difference quotient is nondecreasing in t, so the
        # table along the decreasing schedule must not rise beyond noise
        quot = limit_quotient_tables(spec, x, y)
        mono = max(mono, float((quot[:, 1:] - quot[:, :-1]).max()))
    return [
        record(suite, "nd1-independent-limits", 0.0, 0.0, 1e-12, True, seed),
        record(suite, "nd2-translation", nd2, 1.0, 0.0, nd2 <= 1.0, seed),
        record(suite, "nd3-phase-homogeneity", nd3, 1.0, 0.0, nd3 <= 1.0, seed),
        record(suite, "nd4-cauchy-schwarz", nd4, 0.0, 1e-9, nd4 <= 1e-9, seed),
        record(suite, "quotient-monotone-in-t", mono, 0.0, QUOTIENT_NOISE,
               mono <= QUOTIENT_NOISE, seed),
    ]


def check_rho_n_props(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """rho_n properties for n in {3,4,7,16}: norm recovery, bound, inner product."""
    suite = "rho-n-props"
    ns = (3, 4, 7, 16)
    d_self = d_bound = d_ip = 0.0
    pd_spec = spec if spec.gram is not None else pd_inner(np.eye(spec.dim))
    for batch in index_batches(int(samples)):
        x, y = _pairs(spec, seed, batch)
        u, v = _pairs(pd_spec, seed, batch)
        inner = pd_spec.kernel.rho_inf_pairs(u, v)
        # every n at once: directions x and y at x, and v at u on pd_spec
        stack = rho_n_stack(spec, x, np.stack([x, y], axis=1), ns)
        ips = rho_n_stack(pd_spec, u, v[:, None, :], ns)
        for (vals, *_), (ip, *_) in zip(stack, ips):
            d_self = max(d_self, float(_modulus(vals[:, 0] - 1.0).max()))
            d_bound = max(d_bound, float((_modulus(vals[:, 1]) - 2.0).max()))
            d_ip = max(d_ip, float(_modulus(ip[:, 0] - inner).max()))
    return [
        record(suite, "rho-n-self-is-norm-squared", d_self, 0.0, 1e-6,
               d_self <= 1e-6, seed),
        record(suite, "rho-n-bound-two", d_bound, 0.0, 1e-9, d_bound <= 1e-9, seed),
        record(suite, "rho-n-inner-product-recovery", d_ip, 0.0, 1e-8,
               d_ip <= 1e-8, seed),
    ]


def _homogeneity_defect(spec: NormSpec, samples: int, seed: int) -> float:
    # the closed forms are exact (abs_error 0), so each allowance is its floor
    k = spec.kernel
    worst = 0.0
    for batch in index_batches(int(samples)):
        x, y, a, b = _pairs(spec, seed, batch, scalars=2)
        va = k.rho_inf_pairs(a[:, None] * x, b[:, None] * y)
        vb = k.rho_inf_pairs(x, y)
        ab = _product(a, b.conj())
        allow = 1e-7 * (1.0 + _modulus(ab))
        worst = max(worst, float((_modulus(va - _product(ab, vb)) / allow).max()))
    return worst


def _translation_defect(spec: NormSpec, samples: int, seed: int) -> float:
    k = spec.kernel
    worst = 0.0
    for batch in index_batches(int(samples)):
        x, y, a = _pairs(spec, seed, batch, scalars=1)
        va = k.rho_inf_pairs(x, a[:, None] * x + y)
        vb = k.rho_inf_pairs(x, y)
        allow = 1e-7 * (1.0 + _modulus(a)) * 2.0
        worst = max(worst, float((_modulus(va - (a.conj() + vb)) / allow).max()))
    return worst


def check_homogeneity(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    d = _homogeneity_defect(spec, samples, seed)
    return [record("homogeneity", "rho-inf-homogeneity", d, 1.0, 0.0,
                   d <= 1.0, seed)]


def check_translation(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    d = _translation_defect(spec, samples, seed)
    return [record("translation", "rho-inf-translation", d, 1.0, 0.0,
                   d <= 1.0, seed)]


def check_bounds(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """Universal 4/pi bound, plus the dual-constant bound when R(X*) is known."""
    suite = "bounds"
    audit = analysis.cs_bound_audit(spec, spec.dim, samples, seed,
                                    analysis.UNIVERSAL_4_OVER_PI)
    out = [record(suite, "universal-4-over-pi", audit.max_ratio,
                  audit.bound_used, 1e-6,
                  audit.max_ratio <= audit.bound_used + 1e-6, seed)]
    r = dual_segment_constant(spec).r_dual
    if r is not None:
        bound = 1.0 + 2.0 * r
        out.append(record(suite, "dual-segment-constant", audit.max_ratio,
                          bound, 1e-6, audit.max_ratio <= bound + 1e-6, seed))
    return out


def check_lp1_closed_form(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """Numeric limit and quadrature against the l1 closed forms."""
    suite = "lp1-closed-form"
    l1 = lp(1.0, spec.dim)
    d_plus = d_inf = 0.0
    for batch in index_batches(int(samples)):
        x, y = _pairs(l1, seed, batch)
        closed = _rho_plus(l1, x, y)[0]
        numeric = _rho_plus(l1, x, y, NUMERIC_LIMIT)[0]
        d_plus = max(d_plus, float(np.abs(closed - numeric).max()))
        ci = l1.kernel.rho_inf_pairs(x, y)
        qi = quadrature_pairs(l1, x, y)[0]
        d_inf = max(d_inf, float(_modulus(ci - qi).max()))
    return [
        record(suite, "rho-plus-numeric-vs-closed", d_plus, 0.0, 1e-6,
               d_plus <= 1e-6, seed),
        record(suite, "rho-inf-quadrature-vs-closed", d_inf, 0.0, 1e-6,
               d_inf <= 1e-6, seed),
    ]


def check_smooth_equivalence(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """At smooth points perp_rho_inf and perp_bj agree; quadrature matches
    the closed form.

    A smooth kernel's BJ criterion is min_t rho_plus(x, e^{it} y) =
    -|rho_inf(x, y)|, so both verdicts read the same first-order residual:
    the agreement records check the BJ verdict's wiring and the
    decomposition's construction, not an independent minimization.
    """
    suite = "smooth-equivalence"
    if not is_smooth_family(spec):
        raise ValueError("smooth-equivalence requires a smooth norm family")
    verdict_tol = 1e-5
    disagreements = 0
    d_path = 0.0
    for batch in index_batches(int(samples)):
        x, y = _pairs(spec, seed, batch)
        vi = relation_residuals(spec, RHO_INF, x, y) <= verdict_tol
        vb = relation_residuals(spec, BIRKHOFF_JAMES, x, y) <= verdict_tol
        disagreements += int(np.count_nonzero(vi != vb))
        # constructed rho_inf-orthogonal pair must be BJ-orthogonal too
        _, z = construct_pairs(spec, RHO_INF, x, y, spec.kernel.norm(x))
        disagreements += int(np.count_nonzero(
            ~(relation_residuals(spec, BIRKHOFF_JAMES, x, z) <= verdict_tol)))
        closed = spec.kernel.rho_inf_pairs(x, y)
        quad = quadrature_pairs(spec, x, y)[0]
        d_path = max(d_path, float(_modulus(closed - quad).max()))
    return [
        record(suite, "verdict-agreement-rho-inf-vs-bj", disagreements, 0.0,
               0.0, disagreements == 0, seed),
        record(suite, "quadrature-vs-closed-form", d_path, 0.0, 1e-6,
               d_path <= 1e-6, seed),
    ]


def check_symmetry_detector(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """Inner-product families show ~0 defect (conjugate reading); the
    others separate with a raw defect of at least 0.1."""
    suite = "symmetry-detector"
    rep = analysis.symmetry_defect(spec, spec.dim, samples, seed)
    out = []
    if is_inner_product_family(spec):
        best = min(rep.raw_defect, rep.conj_defect)
        out.append(record(suite, "ips-defect-small", best, 0.0, 1e-7,
                          best <= 1e-7, seed))
        out.append(record(suite, "parallelogram-law", rep.parallelogram_defect,
                          0.0, 1e-7, rep.parallelogram_defect <= 1e-7, seed))
    else:
        out.append(record(suite, "non-ips-raw-defect-separates",
                          rep.raw_defect, 0.1, 0.0, rep.raw_defect >= 0.1, seed))
        out.append(record(suite, "parallelogram-defect-separates",
                          rep.parallelogram_defect, 1e-3, 0.0,
                          rep.parallelogram_defect >= 1e-3, seed))
    return out


def check_preservation(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """Both directions of the preservation theorem on generated maps."""
    suite = "preservation"
    tol = DEFAULT_TOL
    maps = [spec.kernel.isometry(rng_for(seed, 9000))]
    if spec.dim > 1:
        t = np.eye(spec.dim, dtype=np.complex128)
        t[1, 1] = 2.0
        maps.append(t)
    # both maps in one pass over the domain samples
    ma, *rest = analysis._map_analyses(spec, spec, maps, samples, seed, tol)
    out = [
        record(suite, "isometry-defect-small", ma.isometry_defect, 0.0, 1e-8,
               ma.isometry_defect <= 1e-8, seed),
        record(suite, "isometry-scale-identity",
               ma.scale_identity_defect, 0.0,
               10.0 * tol * ma.operator_norm_est**2,
               ma.scale_identity_defect
               <= 10.0 * tol * ma.operator_norm_est**2, seed),
        record(suite, "isometry-preserves", 0.0 if ma.preserves else 1.0,
               0.0, 0.0, ma.preserves, seed),
    ]
    for mb in rest:
        out.append(record(suite, "non-isometry-has-witness",
                          len(mb.witnesses), 1.0, 0.0,
                          len(mb.witnesses) >= 1, seed))
        out.append(record(suite, "non-isometry-contrapositive",
                          mb.isometry_defect, tol, 0.0,
                          mb.isometry_defect > tol, seed))
    return out


SUITES = {
    "nd-properties": check_nd_properties,
    "rho-n-props": check_rho_n_props,
    "homogeneity": check_homogeneity,
    "translation": check_translation,
    "bounds": check_bounds,
    "lp1-closed-form": check_lp1_closed_form,
    "smooth-equivalence": check_smooth_equivalence,
    "symmetry-detector": check_symmetry_detector,
    "preservation": check_preservation,
}


def suite_applies(name: str, spec: NormSpec) -> bool:
    """Whether the named suite makes sense for the spec's family."""
    if name == "smooth-equivalence":
        return is_smooth_family(spec)
    return True


def run_suite(name: str, spec: NormSpec, samples: int, seed: int) -> list[dict]:
    if name not in SUITES:
        raise KeyError(name)
    # a suite over no samples would report its start values as evidence
    analysis._check_samples(samples)
    return SUITES[name](spec, samples, seed)
