"""Named theorem suites behind the ``check`` command.

Each suite maps to one Invariants block of the library: it draws seeded
samples, evaluates the assertion, and returns one record per assertion
with the observed and reference values.  A record passes when the
observed side satisfies its comparison against the reference within tol;
the direction of the comparison is baked in per assertion.
"""

from __future__ import annotations

import numpy as np

from . import analysis
from .derivatives import (
    NUMERIC_LIMIT,
    QUOTIENT_NOISE,
    limit_quotient_table,
    rho_minus,
    rho_plus,
)
from .orthogonality import (
    DEFAULT_TOL,
    decomposition_alpha,
    perp_birkhoff_james,
    perp_rho_inf,
)
from .rho_infinity import QUADRATURE, rho_inf, rho_n
from .sampling import complex_gaussian, rng_for, sample_unit
from .spaces import (
    LP,
    PD_INNER,
    WEIGHTED_L1,
    NormSpec,
    dual_segment_constant,
    gram_inner,
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


def _pair(spec: NormSpec, seed: int, index: int):
    rng = rng_for(seed, index)
    return sample_unit(spec, rng), sample_unit(spec, rng), rng


def check_nd_properties(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """(nd1)-(nd4) plus convexity monotonicity of the quotient steps."""
    suite = "nd-properties"
    nd1 = nd2 = nd3 = nd4 = mono = 0.0
    for i in range(samples):
        x, y, rng = _pair(spec, seed, i)
        # nd1 through independent numeric-limit evaluation of both sides
        lhs = rho_minus(spec, x, y, force_path=NUMERIC_LIMIT).value.real
        rhs = -rho_plus(spec, x, -y, force_path=NUMERIC_LIMIT).value.real
        nd1 = max(nd1, abs(lhs - rhs))
        # nd2: rho_plus(x, a x + y) = Re(a) |x|^2 + rho_plus(x, y)
        a = complex(*rng.standard_normal(2))
        va = rho_plus(spec, x, a * x + y)
        vb = rho_plus(spec, x, y)
        allow = max(1e-8, 2.0 * (va.abs_error + vb.abs_error))
        nd2 = max(nd2, abs(va.value.real - (a.real + vb.value.real)) / allow)
        # nd3: rho_plus(a x, b y) = |ab| rho_plus(x, e^{i(arg b - arg a)} y)
        b = complex(*rng.standard_normal(2))
        vl = rho_plus(spec, a * x, b * y)
        phase = np.exp(1j * (np.angle(b) - np.angle(a)))
        vr = rho_plus(spec, x, phase * y)
        allow = max(1e-8, 2.0 * (vl.abs_error + abs(a * b) * vr.abs_error)) \
            * max(1.0, abs(a * b))
        nd3 = max(nd3, abs(vl.value.real - abs(a * b) * vr.value.real) / allow)
        # nd4: |rho_plus| <= |x| |y| (unit samples)
        nd4 = max(nd4, abs(vb.value.real) - 1.0)
        # convexity: the difference quotient is nondecreasing in t, so the
        # table along the decreasing schedule must not rise beyond noise
        quot = limit_quotient_table(spec, x, y)
        mono = max(mono, float(np.max(quot[1:] - quot[:-1])))
    return [
        record(suite, "nd1-independent-limits", nd1, 0.0, 1e-12, nd1 <= 1e-12, seed),
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
    d_self = d_bound = 0.0
    pd_spec = spec if spec.gram is not None else pd_inner(np.eye(spec.dim))
    d_ip = 0.0
    for i in range(samples):
        x, y, _ = _pair(spec, seed, i)
        for n in ns:
            d_self = max(d_self, abs(rho_n(spec, x, x, n).value - 1.0))
            d_bound = max(d_bound, abs(rho_n(spec, x, y, n).value) - 2.0)
        u, v, _ = _pair(pd_spec, seed, i)
        for n in ns:
            d_ip = max(d_ip, abs(rho_n(pd_spec, u, v, n).value
                                 - gram_inner(pd_spec, u, v)))
    return [
        record(suite, "rho-n-self-is-norm-squared", d_self, 0.0, 1e-6,
               d_self <= 1e-6, seed),
        record(suite, "rho-n-bound-two", d_bound, 0.0, 1e-9, d_bound <= 1e-9, seed),
        record(suite, "rho-n-inner-product-recovery", d_ip, 0.0, 1e-8,
               d_ip <= 1e-8, seed),
    ]


def _homogeneity_defect(spec: NormSpec, samples: int, seed: int) -> float:
    worst = 0.0
    for i in range(samples):
        x, y, rng = _pair(spec, seed, i)
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        va = rho_inf(spec, a * x, b * y)
        vb = rho_inf(spec, x, y)
        ab = a * b.conjugate()
        allow = max(1e-7, 3.0 * (va.abs_error + abs(ab) * vb.abs_error)) \
            * (1.0 + abs(ab))
        worst = max(worst, abs(va.value - ab * vb.value) / allow)
    return worst


def _translation_defect(spec: NormSpec, samples: int, seed: int) -> float:
    worst = 0.0
    for i in range(samples):
        x, y, rng = _pair(spec, seed, i)
        a = complex(*rng.standard_normal(2))
        va = rho_inf(spec, x, a * x + y)
        vb = rho_inf(spec, x, y)
        allow = max(1e-7, 3.0 * (va.abs_error + vb.abs_error)) * (1.0 + abs(a)) * 2.0
        worst = max(worst, abs(va.value - (a.conjugate() + vb.value)) / allow)
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
    for i in range(samples):
        x, y, _ = _pair(l1, seed, i)
        closed = rho_plus(l1, x, y).value.real
        numeric = rho_plus(l1, x, y, force_path=NUMERIC_LIMIT).value.real
        d_plus = max(d_plus, abs(closed - numeric))
        ci = rho_inf(l1, x, y).value
        qi = rho_inf(l1, x, y, force_path=QUADRATURE).value
        d_inf = max(d_inf, abs(ci - qi))
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
    for i in range(samples):
        x, y, _ = _pair(spec, seed, i)
        vi = perp_rho_inf(spec, x, y, verdict_tol)
        vb = perp_birkhoff_james(spec, x, y, verdict_tol)
        if vi.orthogonal != vb.orthogonal:
            disagreements += 1
        # constructed rho_inf-orthogonal pair must be BJ-orthogonal too
        z = decomposition_alpha(spec, x, y) * x + y
        if not perp_birkhoff_james(spec, x, z, verdict_tol).orthogonal:
            disagreements += 1
        closed = rho_inf(spec, x, y).value
        quad = rho_inf(spec, x, y, force_path=QUADRATURE).value
        d_path = max(d_path, abs(closed - quad))
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


def _isometry_for(spec: NormSpec, seed: int) -> np.ndarray:
    """A deterministic norm isometry of the spec's family."""
    d = spec.dim
    rng = rng_for(seed, 9000)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d))
    if spec.family == LP:
        perm = rng.permutation(d)
        return (np.diag(phases)[:, perm]).astype(np.complex128)
    if spec.family == PD_INNER:
        # conjugate a unitary into the Gram geometry: A^{-1} Q A with G = A^H A
        a = np.linalg.cholesky(spec.gram).conj().T
        q, _ = np.linalg.qr(complex_gaussian(rng, d * d).reshape(d, d))
        return np.linalg.solve(a, q @ a)
    if spec.family == WEIGHTED_L1:
        # per-coordinate phases preserve any absolute norm; permutations
        # would have to permute the weights as well
        return np.diag(phases)
    # polyhedral: only a global phase is an isometry in general
    return phases[0] * np.eye(d, dtype=np.complex128)


def check_preservation(spec: NormSpec, samples: int, seed: int) -> list[dict]:
    """Both directions of the preservation theorem on generated maps."""
    suite = "preservation"
    tol = DEFAULT_TOL
    iso = _isometry_for(spec, seed)
    ma = analysis.map_preservation_analysis(spec, spec, iso,
                                            samples=samples, seed=seed, tol=tol)
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
    if spec.dim > 1:
        t = np.eye(spec.dim, dtype=np.complex128)
        t[1, 1] = 2.0
        mb = analysis.map_preservation_analysis(spec, spec, t,
                                                samples=samples, seed=seed,
                                                tol=tol)
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
    return SUITES[name](spec, samples, seed)
