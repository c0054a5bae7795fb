import json
import subprocess
import sys
from pathlib import Path

import pytest

from normlab.cli import main

# diag(1, 2), not an isometry of any lp norm in dimension 2
DIAG_1_2 = Path(__file__).parent / "golden" / "diag_1_2.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_l1_worked_example(capsys):
    code, out, _ = run_cli(capsys, "eval", "--norm", "lp:p=1:dim=2",
                           "--x", "1,0", "--y", "0+1i,0",
                           "--functional", "rho_inf", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["value"] == "0-1.0i"
    assert rec["path"] == "closed_form"
    assert rec["abs_error"] == 0.0


def test_eval_lp2_self(capsys):
    code, out, _ = run_cli(capsys, "eval", "--norm", "lp:p=2:dim=2",
                           "--x", "1,0", "--y", "1,0",
                           "--functional", "rho_inf", "--format", "jsonl")
    assert code == 0
    value = json.loads(out.splitlines()[0])["value"]
    import normlab as nl

    assert nl.parse_complex(value) == pytest.approx(1.0, abs=1e-7)


def test_eval_rho_n_too_small_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--norm", "lp:p=1:dim=2",
                             "--x", "1,0", "--y", "0+1i,0",
                             "--functional", "rho_n", "--n", "2")
    assert code == 2
    assert "n > 2" in err


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--norm", "lp:p=1:dim=2",
                           "--x", "1,zebra", "--y", "1,0",
                           "--functional", "rho_plus")
    assert code == 2 and "error" in err


def test_eval_bad_lambda_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--norm", "lp:p=1:dim=2",
                           "--x", "1,0", "--y", "0,1",
                           "--functional", "rho_lambda", "--lam", "1.5")
    assert code == 2 and "lambda" in err


def test_report_skips_inapplicable_suites(capsys):
    # non-smooth norm: the smooth-equivalence suite must be skipped, the
    # rest must run and pass
    code, out, _ = run_cli(capsys, "report", "--norm", "lp:p=1:dim=2",
                           "--samples", "8", "--format", "jsonl")
    assert code == 0
    assert "smooth-equivalence" not in out


def test_eval_nonconverged_exits_3(capsys):
    # three tied max components with the refinement budget capped
    code, out, _ = run_cli(capsys, "eval", "--norm", "lp:p=inf:dim=3",
                           "--x", "1,0+1i,-1", "--y", "0.3+0.2i,-1.1+0.7i,0.4-0.9i",
                           "--functional", "rho_inf", "--force-path", "quadrature",
                           "--nmax", "16", "--format", "jsonl")
    assert code == 3
    rec = json.loads(out.splitlines()[0])
    assert rec["converged"] is False
    assert rec["quad_nodes"] == 16


def test_eval_deterministic_output(capsys):
    args = ("eval", "--norm", "lp:p=2.5:dim=3", "--x", "1,0+1i,0.5",
            "--y", "0.25,1,-1", "--functional", "rho_plus")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_eval_lambda_upsilon_flags(capsys):
    code, out, _ = run_cli(capsys, "eval", "--norm", "lp:p=1:dim=2",
                           "--x", "1,1", "--y", "1,-1",
                           "--functional", "rho_lambda_upsilon",
                           "--lam", "0.25", "--k", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("functional,value")


EVAL_L1 = ("eval", "--norm", "lp:p=1:dim=2", "--x", "1,2", "--y", "1,1")


@pytest.mark.parametrize("argv", [
    ("eval", "--norm", "lp:p=1:dim=2", "--x", "1,0", "--y", "0,1",
     "--functional", "rho_plus", "--dim", "7"),
    ("report", "--norm", "lp:p=1:dim=2", "--samples", "2", "--tol", "1"),
    (*EVAL_L1, "--functional", "rho_plus", "--lam", "0.3", "--nmax", "3",
     "--quad-tol", "5"),
    (*EVAL_L1, "--functional", "rho_n", "--lam", "0.3"),
    (*EVAL_L1, "--functional", "rho_lambda", "--k", "2"),
    (*EVAL_L1, "--functional", "rho_inf", "--n", "12"),
    (*EVAL_L1, "--functional", "rho_inf", "--quad-tol", "1e-3"),
    (*EVAL_L1, "--functional", "rho_inf", "--force-path", "closed_form",
     "--nmax", "16"),
    (*EVAL_L1, "--functional", "rho_n", "--force-path", "quadrature",
     "--nmax", "16"),
], ids=["eval-dim", "report-tol", "eval-rho_plus-lam-nmax-quad_tol",
        "eval-rho_n-lam", "eval-rho_lambda-k", "eval-rho_inf-n",
        "eval-rho_inf-quad_tol", "eval-rho_inf-closed_form-nmax",
        "eval-rho_n-quadrature-nmax"])
def test_ignored_flags_are_rejected(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2 and out == ""


def test_check_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "rho-n-props",
                           "--norm", "lp:p=3:dim=3", "--samples", "10")
    assert code == 0
    assert out.strip().endswith("passed 3/3")


def test_check_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "--suite", "nonesuch")
    assert code == 2 and "unknown suite" in err


def test_check_jsonl_record_schema(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "bounds",
                           "--norm", "lp:p=1:dim=2", "--samples", "20",
                           "--format", "jsonl")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert set(rec) == {"suite", "assertion", "lhs", "rhs", "tol", "pass", "seed"}


def test_search_finds_witnesses(capsys):
    code, out, _ = run_cli(capsys, "search", "--norm", "lp:p=1:dim=2",
                           "--a", "rho_plus", "--b", "rho_inf",
                           "--samples", "20", "--format", "jsonl")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("witnesses ")
    assert len(lines) > 1
    rec = json.loads(lines[0])
    assert rec["relation_a"] == "rho_plus"


def test_search_empty_is_still_success(capsys):
    code, out, _ = run_cli(capsys, "search", "--norm", "lp:p=1:dim=2",
                           "--a", "rho_inf", "--b", "bj", "--samples", "30")
    assert code == 0
    assert out.strip().endswith("witnesses 0/30")


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NORMLAB_SEED", "123")
    code, out, _ = run_cli(capsys, "search", "--norm", "lp:p=1:dim=2",
                           "--a", "rho_plus", "--b", "rho_inf",
                           "--samples", "5", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["seed"] == 123


def _write_matrix(path, rows):
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="ascii")


def test_analyze_map_permutation_passes(capsys, tmp_path):
    mat = tmp_path / "perm.txt"
    _write_matrix(mat, [["0", "1"], ["1", "0"]])
    code, out, _ = run_cli(capsys, "analyze-map", "--norm", "lp:p=1:dim=2",
                           "--matrix", str(mat), "--samples", "50")
    assert code == 0
    assert "true" in out


def test_analyze_map_diag_fails_with_witness(capsys, tmp_path):
    mat = tmp_path / "diag.txt"
    _write_matrix(mat, [["1", "0"], ["0", "2"]])
    code, out, _ = run_cli(capsys, "analyze-map", "--norm", "lp:p=1:dim=2",
                           "--matrix", str(mat), "--samples", "50",
                           "--format", "jsonl")
    assert code == 4
    head = json.loads(out.splitlines()[0])
    assert head["preserves"] is False and head["witnesses"] >= 1
    witness = json.loads(out.splitlines()[1])
    assert "domain_residual" in witness


def test_analyze_map_zero_matrix_exits_2(capsys, tmp_path):
    mat = tmp_path / "zero.txt"
    _write_matrix(mat, [["0", "0"], ["0", "0"]])
    code, _, err = run_cli(capsys, "analyze-map", "--norm", "lp:p=1:dim=2",
                           "--matrix", str(mat))
    assert code == 2 and "zero map" in err


def test_report_runs_applicable_suites(capsys):
    code, out, _ = run_cli(capsys, "report", "--norm", "lp:p=2.5:dim=3",
                           "--samples", "8")
    assert code == 0
    assert "passed" in out.splitlines()[-1]


def test_table_format_is_aligned(capsys):
    code, out, _ = run_cli(capsys, "eval", "--norm", "lp:p=1:dim=2",
                           "--x", "1,0", "--y", "0+1i,0",
                           "--functional", "rho_inf")
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.startswith("functional")
    assert "closed_form" in row


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "normlab", "eval", "--norm", "lp:p=1:dim=2",
         "--x", "1,0", "--y", "0+1i,0", "--functional", "rho_inf"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "closed_form" in proc.stdout


def test_forced_smooth_path_on_kinked_norm_exits_2(capsys):
    # the smooth identity is no path of rho_inf; the closed form is exact
    code, out, err = run_cli(capsys, "eval", "--norm", "lp:p=inf:dim=3",
                             "--x", "1,1,1", "--y", "0.8+0.9i,-0.4+0.1i,-1.5-0.8i",
                             "--functional", "rho_inf",
                             "--force-path", "smooth_fast_path")
    assert code == 2 and out == ""
    assert "invalid choice: 'smooth_fast_path'" in err


def test_forced_quadrature_at_zero_reports_its_path(capsys):
    code, out, _ = run_cli(capsys, "eval", "--norm", "lp:p=1:dim=2",
                           "--x", "0,0", "--y", "1,0+1i", "--functional",
                           "rho_inf", "--force-path", "quadrature",
                           "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["path"] == "quadrature" and rec["quad_nodes"] == 0
    assert rec["value"] == "0" and rec["converged"] is True


@pytest.mark.parametrize("nmax", ["4", "-5"])
def test_quadrature_budget_below_one_refinement_exits_2(capsys, nmax):
    code, out, err = run_cli(capsys, "eval", "--norm", "lp:p=inf:dim=3",
                             "--x", "1,0+1i,-1", "--y", "0.3+0.2i,-1.1+0.7i,0.4-0.9i",
                             "--functional", "rho_inf",
                             "--force-path", "quadrature", "--nmax", nmax)
    assert code == 2 and out == ""
    assert "n_max must be >= 16" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("argv", [
    ("search", "--a", "rho_inf", "--b", "bj"),
    ("analyze-map", "--matrix", str(DIAG_1_2)),
], ids=["search", "analyze-map"])
def test_tolerance_that_is_not_finite_and_nonnegative_exits_2(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, "--norm", "lp:p=1:dim=2",
                             "--samples", "50", "--tol", tol)
    assert code == 2 and out == ""
    assert "--tol" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_max_witnesses_below_one_exits_2(capsys, count):
    code, out, err = run_cli(capsys, "search", "--norm", "lp:p=1:dim=2",
                             "--a", "rho_inf", "--b", "bj",
                             "--max-witnesses", count)
    assert code == 2 and out == ""
    assert "--max-witnesses" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("check", "--suite", "bounds", "--norm", "lp:p=1:dim=2"),
    ("report", "--norm", "lp:p=1:dim=2"),
    ("search", "--norm", "lp:p=1:dim=2", "--a", "rho_inf", "--b", "bj"),
    ("analyze-map", "--norm", "lp:p=1:dim=2", "--matrix", "unread.txt"),
], ids=["check", "report", "search", "analyze-map"])
def test_sample_count_below_one_exits_2(capsys, argv, samples):
    code, out, err = run_cli(capsys, *argv, "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples" in err
