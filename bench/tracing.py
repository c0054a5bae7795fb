"""Per-layer tracing of normlab from outside the package.

Every public module-level function of normlab (plus two private helpers
the per-layer metrics need) is replaced by a wrapper in every normlab
module namespace that bound it, because modules such as orthogonality and
analysis import names like rho_inf at import time.  A wrapper records one
span (name, start, end, parent) on a stack; spans stay in memory until the
run ends, and a span's self time is its duration minus its children's.
Layers are the modules.  Counts that need a return value (rows, paths,
quadrature nodes, verdicts) are taken by small hooks on the return.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# private helpers that carry per-layer metrics, with the layer they count in
EXTRA = {("normlab.analysis", "_rng"): "sampling",
         ("normlab.orthogonality", "_construct_pair"): "orthogonality"}
SAMPLING = {"rng_for", "complex_gaussian", "sample_unit", "sample_unit_pair"}
VERDICTS = {"perp", "perp_rho_inf", "perp_rho_plus", "perp_birkhoff_james",
            "perp_semi"}
SUITE_NAMES = ("nd-properties", "rho-n-props", "homogeneity", "translation",
               "bounds", "lp1-closed-form", "smooth-equivalence",
               "symmetry-detector", "preservation")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.layer_of: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.construct_pending = False
        self.patched: list = []

    # --- recording -------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        spans, stack = self.spans, self.stack
        label = (lambda args: f"checks.{args[0]}") if name == "checks.run_suite" else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, kwargs, out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (label(args) if label else name, t0, t1, parent)

        return traced

    def install(self) -> None:
        """Wrap the functions and patch every namespace that bound them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "normlab" or n.startswith("normlab."))]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or not fn.__module__.startswith("normlab"):
                    continue
                key = (fn.__module__, fn.__name__)
                if fn.__name__.startswith("_") and key not in EXTRA:
                    continue
                if id(fn) not in wrapped:
                    module = fn.__module__.rsplit(".", 1)[-1]
                    name = f"{module}.{fn.__name__}"
                    self.layer_of[name] = EXTRA.get(key) or (
                        "sampling" if fn.__name__ in SAMPLING else module)
                    wrapped[id(fn)] = self._wrap(fn, name, HOOKS.get(fn.__name__))
                self.patched.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])
        for name in SUITE_NAMES:
            self.layer_of[f"checks.{name}"] = "checks"

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.patched):
            setattr(mod, attr, fn)
        self.patched.clear()

    # --- aggregation -----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = defaultdict(float)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = Counter()
        self_by_name = defaultdict(float)
        total_by_name = defaultdict(float)
        self_by_layer = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(spans):
            own = (t1 - t0) - child[i]
            calls[name] += 1
            self_by_name[name] += own
            total_by_name[name] += t1 - t0
            self_by_layer[self.layer_of[name]] += own
        c = self.counts
        m = {
            "spaces.norm_rows.calls": calls["spaces.norm_rows"],
            "spaces.norm_rows.rows": c["norm_rows.rows"],
            "spaces.norm_rows.self_s": self_by_name["spaces.norm_rows"],
            "spaces.vector.calls": calls["spaces.vector"],
            "spaces.vector.self_s": self_by_name["spaces.vector"],
            "spaces.norm.calls": calls["spaces.norm"],
            "sampling.draws": calls["sampling.complex_gaussian"],
            "sampling.self_s": self_by_layer["sampling"],
            "derivatives.closed_form.rows": c["closed_form.rows"],
            "derivatives.numeric_limit.calls": c["numeric_limit.calls"],
            "derivatives.numeric_limit.rows": c["numeric_limit.rows"],
            "derivatives.numeric_limit.nonconverged_rows": c["numeric_limit.nonconverged_rows"],
            "derivatives.rho_plus_rows.self_s": self_by_name["derivatives.rho_plus_rows"],
            "rho_infinity.calls.closed_form": c["rho_inf.closed_form"],
            "rho_infinity.calls.smooth_fast_path": c["rho_inf.smooth_fast_path"],
            "rho_infinity.calls.quadrature": c["rho_inf.quadrature"],
            "rho_infinity.quadrature.nodes": c["quadrature.nodes"],
            "rho_infinity.quadrature.at_budget": c["quadrature.at_budget"],
            "rho_infinity.quadrature.nonconverged": c["quadrature.nonconverged"],
            "rho_infinity.rho_n.calls": calls["rho_infinity.rho_n"],
            "rho_infinity.self_s": self_by_layer["rho_infinity"],
            "orthogonality.birkhoff_minimize.calls": calls["orthogonality.birkhoff_minimize"],
            "orthogonality.birkhoff_minimize.self_s": self_by_name["orthogonality.birkhoff_minimize"],
            "orthogonality.perp.calls": sum(calls[f"orthogonality.{v}"] for v in VERDICTS),
            "orthogonality.verdict.unknown": c["verdict.unknown"],
            "orthogonality.construct.accept_ratio": (
                c["construct.accepted"] / calls["orthogonality._construct_pair"]
                if calls["orthogonality._construct_pair"] else 0.0),
            "orthogonality.self_s": self_by_layer["orthogonality"],
            "analysis.operator_norm_estimate.self_s": self_by_name["analysis.operator_norm_estimate"],
            "analysis.self_s": self_by_layer["analysis"],
            "cli.render.self_s": self_by_name["cli.render"],
            "cli.main.total_s": total_by_name["cli.main"],
        }
        for name in SUITE_NAMES:
            m[f"checks.{name}.total_s"] = total_by_name[f"checks.{name}"]
        return m


# --- return hooks ------------------------------------------------------------


def _norm_rows(tr: Tracer, kwargs, out) -> None:
    tr.counts["norm_rows.rows"] += len(out)


def _rho_plus_rows(tr: Tracer, kwargs, out) -> None:
    vals, _, conv, path = out
    if path == "closed_form":
        tr.counts["closed_form.rows"] += len(vals)
    else:
        tr.counts["numeric_limit.calls"] += 1
        tr.counts["numeric_limit.rows"] += len(vals)
        tr.counts["numeric_limit.nonconverged_rows"] += int((~conv).sum())


def _rho_inf_traced(tr: Tracer, kwargs, out) -> None:
    tr.counts[f"rho_inf.{out[0].path}"] += 1


def _quadrature_rho_inf(tr: Tracer, kwargs, out) -> None:
    from normlab.rho_infinity import DEFAULT_N_MAX

    fv, trace = out
    if trace.node_counts:
        tr.counts["quadrature.nodes"] += trace.node_counts[-1]
        tr.counts["quadrature.at_budget"] += (
            trace.node_counts[-1] >= kwargs.get("n_max", DEFAULT_N_MAX))
    tr.counts["quadrature.nonconverged"] += not fv.converged


def _verdict(tr: Tracer, kwargs, out) -> None:
    tr.counts["verdict.unknown"] += not out.converged
    if tr.construct_pending:  # relation_compare's re-check of relation_a
        tr.construct_pending = False
        tr.counts["construct.accepted"] += out.orthogonal and out.converged


def _construct_pair(tr: Tracer, kwargs, out) -> None:
    tr.construct_pending = True


HOOKS = {
    "norm_rows": _norm_rows,
    "rho_plus_rows": _rho_plus_rows,
    "rho_inf_traced": _rho_inf_traced,
    "quadrature_rho_inf": _quadrature_rho_inf,
    "_construct_pair": _construct_pair,
    **{v: _verdict for v in VERDICTS},
}
