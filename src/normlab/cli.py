"""Command-line front end.

Subcommands: ``eval`` (one functional value), ``check`` (named theorem
suite), ``search`` (orthogonality-relation witnesses), ``analyze-map``
(preservation audit of a matrix), ``report`` (every applicable suite).

Exit codes: 0 success/pass, 1 internal error, 2 usage or precondition
violation, 3 nonconvergence, 4 property-violation verdict.  Identical
command lines (including seed) produce byte-identical output; the
NORMLAB_SEED environment variable overrides the default seed 42.  A seed
(from --seed or NORMLAB_SEED) must be an int >= 0, else the command exits 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import checks
from .analysis import map_preservation_analysis
from .derivatives import rho_lambda, rho_lambda_upsilon, rho_milicic, rho_minus, rho_plus
from .errors import NormLabError, SpecParseError
from .orthogonality import (
    DEFAULT_TOL,
    RELATIONS,
    SamplerConfig,
    check_tol,
    relation_compare,
)
from .rho_infinity import (
    DEFAULT_N_MAX,
    DEFAULT_QUAD_TOL,
    check_quad_tol,
    rho_inf_traced,
    rho_n,
)
from .sampling import draw_scope
from .spaces import (
    QUADRATURE,
    format_complex,
    parse_complex,
    parse_cvector,
    parse_norm_spec,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_VIOLATION = 4

TABLE = "table"
CSV = "csv"
JSON_LINES = "jsonl"

DEFAULT_NORM = "lp:p=2.5:dim=4"


def _int_at_least(low: int):
    """An argparse type: an int >= low."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return parse


_positive_int = _int_at_least(1)
# a seed is a stream key, and numpy's streams take non-negative ints only
_seed_int = _int_at_least(0)


def _checked_float(check):
    """An argparse type: a float that check accepts (it raises ValueError)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _seed_int(os.environ.get("NORMLAB_SEED", "42"))
    except argparse.ArgumentTypeError as exc:
        raise SpecParseError(f"NORMLAB_SEED: {exc}") from None


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return format_complex(v)
    return str(v)


def render(records: list[dict], fmt: str) -> str:
    """Render records deterministically in the chosen output format."""
    if not records:
        return ""
    keys = list(records[0].keys())
    if fmt == JSON_LINES:
        lines = []
        for r in records:
            clean = {k: (format_complex(v) if isinstance(v, complex) else v)
                     for k, v in r.items()}
            lines.append(json.dumps(clean, ensure_ascii=True))
        return "\n".join(lines) + "\n"
    if fmt == CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for r in records:
            writer.writerow([_fmt_cell(r[k]) for k in keys])
        return buf.getvalue()
    if fmt == TABLE:
        cells = [[_fmt_cell(r[k]) for k in keys] for r in records]
        widths = [max(len(keys[j]), *(row[j].__len__() for row in cells))
                  for j in range(len(keys))]
        out = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
        for row in cells:
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(out) + "\n"
    raise SpecParseError(f"unknown output format {fmt!r}")


def _eval_options(args: argparse.Namespace) -> dict:
    """The eval options, defaulted; one the functional does not read exits 2."""
    name = args.functional
    quadrature = name == "rho_inf" and args.force_path == QUADRATURE
    # option: (default, whether the functional reads it); of the rho_inf
    # paths only the quadrature oracle has a tolerance and a node budget
    options = {
        "lam": (0.5, name in ("rho_lambda", "rho_lambda_upsilon")),
        "k": (1, name == "rho_lambda_upsilon"),
        "n": (8, name == "rho_n"),
        "quad_tol": (DEFAULT_QUAD_TOL, quadrature),
        "nmax": (DEFAULT_N_MAX, quadrature),
    }
    unread = ["--" + dest.replace("_", "-") for dest, (_, read) in options.items()
              if getattr(args, dest) is not None and not read]
    if unread:
        raise SpecParseError(
            f"--functional {name} does not read {', '.join(unread)}"
            + (" without --force-path quadrature" if name == "rho_inf" else ""))
    return {dest: default if getattr(args, dest) is None else getattr(args, dest)
            for dest, (default, _) in options.items()}


def cmd_eval(args: argparse.Namespace) -> int:
    opt = _eval_options(args)
    spec = parse_norm_spec(args.norm)
    x = parse_cvector(args.x)
    y = parse_cvector(args.y)
    name = args.functional
    trace = None
    if name == "rho_plus":
        value = rho_plus(spec, x, y, force_path=args.force_path)
    elif name == "rho_minus":
        value = rho_minus(spec, x, y, force_path=args.force_path)
    elif name == "rho":
        value = rho_milicic(spec, x, y, force_path=args.force_path)
    elif name == "rho_lambda":
        value = rho_lambda(spec, x, y, opt["lam"], force_path=args.force_path)
    elif name == "rho_lambda_upsilon":
        value = rho_lambda_upsilon(spec, x, y, opt["lam"], opt["k"],
                                   force_path=args.force_path)
    elif name == "rho_n":
        value = rho_n(spec, x, y, opt["n"], force_path=args.force_path)
    elif name == "rho_inf":
        value, trace = rho_inf_traced(spec, x, y, tol=opt["quad_tol"],
                                      n_max=opt["nmax"],
                                      force_path=args.force_path)
    else:
        raise SpecParseError(f"unknown functional {name!r}")

    rec = {
        "functional": name,
        "value": format_complex(value.value),
        "abs_error": float(value.abs_error),
        "path": value.path,
        "converged": bool(value.converged),
    }
    if trace is not None:
        rec["quad_nodes"] = int(trace.node_counts[-1]) if trace.node_counts else 0
    sys.stdout.write(render([rec], args.format))
    return EXIT_OK if value.converged else EXIT_NONCONVERGED


def cmd_check(args: argparse.Namespace) -> int:
    if args.suite not in checks.SUITES:
        raise SpecParseError(f"unknown suite {args.suite!r}; choose from "
                             + ", ".join(sorted(checks.SUITES)))
    spec = parse_norm_spec(args.norm)
    # a suite may draw one stream twice (rho-n-props: on the spec and its pd)
    with draw_scope():
        records = checks.run_suite(args.suite, spec, args.samples, _seed(args))
    out = render(records, args.format)
    passed = sum(1 for r in records if r["pass"])
    sys.stdout.write(out)
    sys.stdout.write(f"passed {passed}/{len(records)}\n")
    return EXIT_OK if passed == len(records) else EXIT_VIOLATION


def cmd_search(args: argparse.Namespace) -> int:
    spec = parse_norm_spec(args.norm)
    sampler = SamplerConfig(dim=spec.dim, samples=args.samples, seed=_seed(args),
                            tol=args.tol, max_witnesses=args.max_witnesses)
    witnesses = relation_compare(spec, args.a, args.b, sampler)
    records = [w.to_record() for w in witnesses]
    sys.stdout.write(render(records, args.format))
    sys.stdout.write(f"witnesses {len(witnesses)}/{args.samples}\n")
    return EXIT_OK


def _read_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise SpecParseError(f"matrix file {path!r} is empty")
    return np.array([[parse_complex(p) for p in row.split(",")] for row in rows])


def cmd_analyze_map(args: argparse.Namespace) -> int:
    spec_dom = parse_norm_spec(args.norm)
    spec_cod = parse_norm_spec(args.cod_norm) if args.cod_norm else spec_dom
    t = _read_matrix(args.matrix)
    ma = map_preservation_analysis(spec_dom, spec_cod, t,
                                   samples=args.samples, seed=_seed(args),
                                   tol=args.tol)
    rec = {
        "operator_norm_est": ma.operator_norm_est,
        "isometry_defect": ma.isometry_defect,
        "scale_identity_defect": ma.scale_identity_defect,
        "preserves": ma.preserves,
        "witnesses": len(ma.witnesses),
        "samples": ma.samples,
        "seed": ma.seed,
    }
    sys.stdout.write(render([rec], args.format))
    if ma.witnesses:
        sys.stdout.write(render([w.to_record() for w in ma.witnesses],
                                args.format))
    return EXIT_OK if ma.preserves else EXIT_VIOLATION


def cmd_report(args: argparse.Namespace) -> int:
    spec = parse_norm_spec(args.norm)
    seed = _seed(args)
    records: list[dict] = []
    # the suites draw the same streams; each is drawn once per report
    with draw_scope():
        for name in checks.SUITES:
            if not checks.suite_applies(name, spec):
                continue
            records.extend(checks.run_suite(name, spec, args.samples, seed))
    sys.stdout.write(render(records, args.format))
    passed = sum(1 for r in records if r["pass"])
    sys.stdout.write(f"passed {passed}/{len(records)}\n")
    return EXIT_OK if passed == len(records) else EXIT_VIOLATION


def _add_common(p: argparse.ArgumentParser, sampling: bool = True) -> None:
    p.add_argument("--norm", default=DEFAULT_NORM,
                   help="norm spec record, e.g. lp:p=1:dim=2")
    if sampling:
        p.add_argument("--samples", type=_positive_int, default=200)
        p.add_argument("--seed", type=_seed_int, default=None,
                       help="an int >= 0; default 42, overridable via NORMLAB_SEED")
    p.add_argument("--format", choices=[TABLE, CSV, JSON_LINES], default=TABLE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="norm derivatives and orthogonality in complex normed spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a functional")
    _add_common(p_eval, sampling=False)
    p_eval.add_argument("--x", required=True, help="vector, e.g. 1,0+1i")
    p_eval.add_argument("--y", required=True)
    p_eval.add_argument("--functional", required=True,
                        choices=["rho_plus", "rho_minus", "rho", "rho_lambda",
                                 "rho_lambda_upsilon", "rho_n", "rho_inf"])
    # None marks an option left out; _eval_options supplies its default
    p_eval.add_argument("--lam", type=float, default=None)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--n", type=int, default=None)
    p_eval.add_argument("--force-path", default=None,
                        choices=["closed_form", "numeric_limit", "quadrature"])
    p_eval.add_argument("--quad-tol", type=_checked_float(check_quad_tol),
                        default=None)
    p_eval.add_argument("--nmax", type=int, default=None)

    p_check = sub.add_parser("check", help="run a named theorem suite")
    _add_common(p_check)
    p_check.add_argument("--suite", required=True)

    p_search = sub.add_parser("search", help="search for relation witnesses")
    _add_common(p_search)
    p_search.add_argument("--a", required=True, choices=list(RELATIONS))
    p_search.add_argument("--b", required=True, choices=list(RELATIONS))
    p_search.add_argument("--tol", type=_checked_float(check_tol),
                          default=DEFAULT_TOL)
    p_search.add_argument("--max-witnesses", type=_positive_int, default=None)

    p_map = sub.add_parser("analyze-map",
                           help="audit a linear map for orthogonality preservation")
    _add_common(p_map)
    p_map.add_argument("--matrix", required=True,
                       help="file of row-major complex entries, one row per line")
    p_map.add_argument("--cod-norm", default=None,
                       help="codomain norm spec (default: same as --norm)")
    p_map.add_argument("--tol", type=_checked_float(check_tol),
                       default=DEFAULT_TOL)

    p_report = sub.add_parser("report", help="run every applicable suite")
    _add_common(p_report)

    return parser


# built by the first main call, not at import, and reused by later calls
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # the handler is looked up at call time, so a patched cmd_* is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (NormLabError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure path
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
