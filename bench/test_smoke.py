"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every declared metric is emitted with its unit, that the
oracle is right and counts the pinned false-convergence reproducer as
wrong, and that the benchmark refuses to run without this checkout's src.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import normlab as nl  # noqa: E402
from oracle import max_modulus_rho_inf  # noqa: E402
from workloads import PINNED_X, PINNED_Y, POLY_ROWS, RhoInfKinked, TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    if workload == "rho-inf-kinked":
        checks = next(line for line in proc.stdout.splitlines()
                      if line.startswith("checks "))
        assert json.loads(checks[len("checks "):])["pinned_failed"] is True
        if not trace:
            assert result["metrics"]["pass_share"]["value"] < 1.0


def test_oracle_counts_the_pinned_reproducer_as_wrong():
    spec = nl.lp(np.inf, 3)
    v = nl.rho_inf(spec, PINNED_X, PINNED_Y)
    ref, ref_err = max_modulus_rho_inf(np.eye(3), PINNED_X, PINNED_Y)
    assert v.converged
    assert abs(v.value - ref) > v.abs_error + ref_err


def test_oracle_agrees_with_a_fine_roots_of_unity_sum():
    """rho_n converges to rho_inf like 1/n^2 at kinks; n = 2^14 is ~1e-8 off."""
    wl = RhoInfKinked(nl, TINY)
    wl.setup()
    wl.make_inputs(5)
    for j in (0, 1, 5, 10, 15):
        spec = wl.specs[wl.norm_of[j]]
        f = (np.eye(3), POLY_ROWS)[wl.norm_of[j]]
        ref, _ = max_modulus_rho_inf(f, wl.xs[j], wl.ys[j])
        fine = nl.rho_n(spec, wl.xs[j], wl.ys[j], 2**14).value
        assert abs(fine - ref) <= 1e-7 * max(1.0, abs(ref)), j


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "rho-inf-kinked", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
