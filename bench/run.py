"""normlab benchmark: one workload, one run, metrics as JSON on the last line.

    python3 bench/run.py --workload search-l1 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there): search-l1,
report-smooth, rho-inf-kinked.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
from a separate traced pass.  Every number comes from fresh interpreters
started here, with BLAS and OpenMP pinned to one thread; the package is
taken from this checkout's ``src`` and from nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# fresh interpreters whose set-up time is measured per run (median reported)
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: argparse.Namespace, mode: str) -> tuple[float, dict]:
    """Start one worker; return (monotonic start, its JSON result)."""
    cmd = [sys.executable, str(WORKER), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    started = time.monotonic()
    proc = _run(cmd, mode)
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _run(cmd: list[str], what: str) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc


def import_times() -> dict[str, float]:
    """Cumulative seconds per module of ``import normlab`` in a fresh
    interpreter, from ``-X importtime``."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import normlab"],
                "import probe")
    out = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative) / 1e6
    return out


def source_record() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "normlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": git_rev, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0))}


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    setups = []  # (raw seconds, slowdown) per fresh interpreter
    for _ in range(SETUP_PROBES - 1):
        started, res = spawn(args, "setup")
        setups.append((res["ready"] - started, res["setup_slowdown"]))
    started, res = spawn(args, "run")
    setups.append((res["ready"] - started, res["setup_slowdown"]))
    if not res["units"]:
        raise BenchError(f"every call raised a normlab error ({res['failed']})")
    values = {
        "setup_s": statistics.median(raw / s for raw, s in setups),
        "samples_per_s": res["call_units"] / res["scaled_busy_s"],
        "call_p50_ms": res["call_p50_ms"],
        "call_p99_ms": res["call_p99_ms"],
        "pass_share": 1.0 - res["wrong"] / res["units"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        "setup_s raw/slowdown per fresh interpreter: "
        + ", ".join(f"{raw:.4f}/{s:.3f}" for raw, s in setups),
        f"calls {res['calls']} for call_p50_ms/call_p99_ms, each the fastest of "
        f"{res['runs'] // res['calls']} runs; units {res['units']} "
        f"(unit: {res['unit']}), "
        f"busy {res['busy_s']:.3f} s in the fastest runs, slowdown {res['busy_s'] / res['scaled_busy_s']:.4f}",
        f"raw samples_per_s {res['call_units'] / res['busy_s']:.6g}, "
        f"call_p50_ms {res['raw_call_p50_ms']:.6g}, "
        f"call_p99_ms {res['raw_call_p99_ms']:.6g}",
        f"fail_share {res['wrong'] / res['units']:.6g} "
        f"({res['wrong']} of {res['units']} units nonconverged or wrong)",
        f"runs that raised a normlab error: {res['failed']} of {res['runs']}",
    ]
    return values, res, notes


def per_layer(args) -> tuple[dict, dict, list[str]]:
    normlab_s, scipy_s = [], []
    for _ in range(IMPORT_PROBES):
        t = import_times()
        normlab_s.append(t["normlab"])
        scipy_s.append(t.get("scipy.optimize", 0.0))
    _, res = spawn(args, "trace")
    values = dict(res["layers"])
    values["setup.import_normlab_s"] = statistics.median(normlab_s)
    values["setup.import_scipy_optimize_s"] = statistics.median(scipy_s)
    notes = [f"traced calls {res['calls']} (same calls untraced first), "
             f"units {res['units']} (unit: {res['unit']})"]
    return values, res, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the smoke test only")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "normlab" / "__init__.py").is_file():
        print(f"error: no normlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        values, res, notes = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {**source_record(), **res["env"]}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(record, sort_keys=True))
    for line in notes:
        print(line)
    if res["stats"]:
        print("checks " + json.dumps(res["stats"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not res["fatal"], "attempted": res["runs"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
