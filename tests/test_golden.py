"""Golden CLI outputs: a fixed set of commands must reproduce byte for byte.

Each command runs in-process through ``normlab.cli.main``; its stdout plus a
trailing ``# exit <code>`` line is compared with ``tests/golden/<name>.out``.
The set covers ``report`` on every family (pd twice: Gram I and a
non-identity Gram), ``search`` between the
Birkhoff-James and rho_inf relations on lp1, lp:inf and poly and from
rho_plus to semi on lp3, ``analyze-map`` of diag(1, 2) on lp1, lp2.5 and
the golden poly and across two frames (wl1 into the golden poly, a
non-identity Gram into lp2, the golden poly into lp:inf, all in dim 2),
``eval`` of all seven functionals on each family (the
lp:inf eval is the pinned false-convergence reproducer x = 1,1,1), and
``eval`` of rho_plus and rho_inf on the non-identity Gram.

A change that alters numerics on purpose rewrites them with

    PYTHONPATH=src python tests/test_golden.py

which lists on stderr the goldens whose bytes changed and those that did
not (a new golden counts as changed), and prints each changed golden's
moved lines on stdout, the old lines then the new, as a unified diff
without context.
"""

import contextlib
import difflib
import io
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from normlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

REPORT_NORMS = {
    "lp1": "lp:p=1:dim=2",
    "lp2.5": "lp:p=2.5:dim=4",
    "lpinf": "lp:p=inf:dim=3",
    "wl1": "wl1:w=0.5,1.0,2.0:dim=3",
    "pd": "pd:gram=I:dim=3",
    "poly": "poly:f=1,0;0,1;0.5+0.5i,0.5:dim=2",
    "pdG": "pd:gram=2,0.5+0.3i,0.1;0.5-0.3i,1.5,0-0.2i;0.1,0+0.2i,1:dim=3",
}

# (norm, x, y) per family; lp:inf is the pinned reproducer
EVAL_PAIRS = {
    "lp1": ("lp:p=1:dim=2", "1,0", "0.3-0.7i,1+1i"),
    "lp2.5": ("lp:p=2.5:dim=4", "1,0+1i,0.5,-0.25", "0.25,1,-1,0.5+0.5i"),
    "lpinf": ("lp:p=inf:dim=3", "1,1,1", "0.8+0.9i,-0.4+0.1i,-1.5-0.8i"),
    "wl1": ("wl1:w=0.5,1.0,2.0:dim=3", "1,0,-0.5+0.5i", "0.2+0.1i,-1,0+0.7i"),
    "pd": ("pd:gram=I:dim=3", "1,0+1i,0.5", "0.25,1,-1"),
    "poly": ("poly:f=1,0;0,1;0.5+0.5i,0.5:dim=2", "1,0.5-0.5i", "0.3+0.2i,-1"),
}

# a non-identity Gram matrix, whose norm |A x|_2 goes through its Cholesky
# factor: rho_plus and rho_inf only
EVAL_PAIRS_GRAM = {"pdG": (REPORT_NORMS["pdG"], *EVAL_PAIRS["pd"][1:])}

SEARCH_NORMS = {**REPORT_NORMS, "lp3": "lp:p=3:dim=3"}

# (relation a, relation b, key in SEARCH_NORMS, samples)
SEARCHES = (
    ("rho_inf", "bj", "lp1", 200),
    ("bj", "rho_inf", "lp1", 200),
    ("rho_plus", "semi", "lp3", 100),
    ("rho_inf", "bj", "lpinf", 200),
    ("bj", "rho_inf", "lpinf", 200),
    ("rho_inf", "bj", "poly", 200),
    ("bj", "rho_inf", "poly", 200),
)

FUNCTIONALS = {
    "rho_plus": [],
    "rho_minus": [],
    "rho": [],
    "rho_lambda": ["--lam", "0.25"],
    "rho_lambda_upsilon": ["--lam", "0.25", "--k", "2"],
    "rho_n": ["--n", "12"],
    "rho_inf": [],
}


def commands() -> dict[str, list[str]]:
    cmds = {}
    for key, text in REPORT_NORMS.items():
        cmds[f"report-{key}"] = ["report", "--norm", text, "--samples", "6",
                                 "--seed", "7", "--format", "jsonl"]
    for a, b, key, samples in SEARCHES:
        cmds[f"search-{key}-{a}-{b}"] = [
            "search", "--norm", SEARCH_NORMS[key], "--a", a, "--b", b,
            "--samples", str(samples), "--seed", "42", "--format", "jsonl"]
    # diag(1, 2) on lp1 (closed form), on lp2.5 (the Riesz-Thorin bound)
    # and on the golden poly (closed form through the certified dual norm)
    for key, norm in (("lp1", "lp:p=1:dim=2"), ("lp2.5", "lp:p=2.5:dim=2"),
                      ("poly", REPORT_NORMS["poly"])):
        cmds[f"analyze-map-{key}-diag12"] = [
            "analyze-map", "--norm", norm,
            "--matrix", str(GOLDEN / "diag_1_2.txt"), "--samples", "100",
            "--seed", "42", "--format", "jsonl"]
    # diag(1, 2) across two frames: the abs-sum domain, the Euclidean pair
    # through both Cholesky factors, and the poly dual into lp inf
    for key, norm, cod in (("wl1-poly", "wl1:w=0.5,2.0:dim=2", REPORT_NORMS["poly"]),
                           ("pdG-lp2", "pd:gram=2,0.5+0.3i;0.5-0.3i,1.5:dim=2",
                            "lp:p=2:dim=2"),
                           ("poly-lpinf", REPORT_NORMS["poly"], "lp:p=inf:dim=2")):
        cmds[f"analyze-map-{key}-diag12"] = [
            "analyze-map", "--norm", norm, "--cod-norm", cod,
            "--matrix", str(GOLDEN / "diag_1_2.txt"), "--samples", "100",
            "--seed", "42", "--format", "jsonl"]
    for key, (norm, x, y) in EVAL_PAIRS.items():
        for name, extra in FUNCTIONALS.items():
            cmds[f"eval-{key}-{name}"] = [
                "eval", "--norm", norm, "--x", x, "--y", y,
                "--functional", name, *extra, "--format", "jsonl"]
    for key, (norm, x, y) in EVAL_PAIRS_GRAM.items():
        for name in ("rho_plus", "rho_inf"):
            cmds[f"eval-{key}-{name}"] = [
                "eval", "--norm", norm, "--x", x, "--y", y,
                "--functional", name, "--format", "jsonl"]
    return cmds


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue() + f"# exit {code}\n"


COMMANDS = commands()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="ascii").splitlines()
    got = run(COMMANDS[name]).splitlines()
    # pytest's own diff of two long outputs takes minutes to render, so the
    # failure names the first differing line instead
    for i, (a, b) in enumerate(zip_longest(got, expected)):
        if a != b:
            pytest.fail(f"line {i + 1} differs:\n  got      {a}\n  expected {b}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    changed, same = [], []
    for name, argv in sorted(COMMANDS.items()):
        path = GOLDEN / f"{name}.out"
        text = run(argv)
        old = path.read_text(encoding="ascii") if path.exists() else None
        if text == old:
            same.append(name)
        else:
            changed.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                (old or "").splitlines(keepends=True), text.splitlines(keepends=True),
                f"{name} (old)", f"{name} (new)", n=0))
        path.write_text(text, encoding="ascii")
    print(f"wrote {len(COMMANDS)} goldens to {GOLDEN}", file=sys.stderr)
    print(f"changed ({len(changed)}): {' '.join(changed) or '-'}",
          file=sys.stderr)
    print(f"unchanged ({len(same)}): {' '.join(same) or '-'}",
          file=sys.stderr)
