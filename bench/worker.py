"""One fresh interpreter of the benchmark: set up, then run one pass.

Started by run.py, never by hand.  Modes:

* ``setup``: import, build the workload's specs and warm up, then report
  the monotonic clock reading at which the first timed call could start;
* ``run``: set up, then call the workload in a closed loop for
  ``--seconds`` and check every output;
* ``trace``: set up, then make the same fixed list of calls twice, first
  untraced and then traced, and report the per-layer metrics.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import REF_SHARE, REFERENCES, SLICE_S, reference_time, scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXIT_WRONG_PACKAGE = 3
# reference-loop time sampled right after set-up, to scale set-up time
SETUP_REF_S = 0.2


def load_normlab():
    """Import normlab and refuse any copy that is not this checkout's src."""
    try:
        import normlab  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import normlab from {SRC}: {exc}")
    import normlab.cli
    import normlab.errors
    import normlab.orthogonality
    import normlab.rho_infinity
    import normlab.spaces

    where = Path(normlab.__file__).resolve()
    if where != (SRC / "normlab" / "__init__.py").resolve():
        print(f"error: normlab resolved to {where}, not under {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_WRONG_PACKAGE)
    return normlab


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(normlab) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas_threads": blas_threads(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "normlab": str(Path(normlab.__file__).resolve().parent),
    }


def run_pass(wl, error: type, *, seconds: float | None = None,
             calls: int | None = None, repeats: int = 1) -> dict:
    """Closed loop over wl.call(k); times each call, then checks it.

    Each call is made ``repeats`` times back to back on the same input,
    and its latency is the fastest of them.  Throughput is taken from
    those: ``busy_s`` sums the fastest times, and ``call_units`` counts the
    units of one run of each call.  A run that raises
    ``error`` is counted in ``failed`` and not checked.  The runs are cut
    into slices of about SLICE_S with the workload's reference loop run
    between slices, and latencies are scaled by it (see speed.py).
    """
    loop, nominal_s = REFERENCES[wl.reference]
    refs = [reference_time(0.0, loop)]
    slice_ends: list[int] = []
    latencies: list[float] = []
    units = wrong = failed = 0
    fatal = False
    start = slice_start = perf_counter()
    e = 0
    while True:
        k = e // repeats
        t0 = perf_counter()
        try:
            out = wl.call(k)
        except error:
            latencies.append(perf_counter() - t0)
            failed += 1
        else:
            latencies.append(perf_counter() - t0)
            o = wl.check(k, out)
            units += o.units
            wrong += o.wrong
            fatal |= o.fatal
        e += 1
        now = perf_counter()
        done = e % repeats == 0 and (
            e // repeats >= calls if calls is not None else now - start >= seconds)
        if done or now - slice_start >= SLICE_S:
            refs.append(reference_time(REF_SHARE * (now - slice_start), loop))
            slice_ends.append(e)
            slice_start = perf_counter()
        if done:
            break
    raw = np.asarray(latencies)
    scaled = np.asarray(scale(latencies, slice_ends, refs, nominal_s,
                              wl.smooth_slices))
    raw_ms = raw.reshape(-1, repeats).min(axis=1) * 1e3
    scaled_ms = scaled.reshape(-1, repeats).min(axis=1) * 1e3
    return {"runs": e, "calls": e // repeats, "units": units,
            "call_units": units / repeats, "wrong": wrong,
            "failed": failed, "fatal": fatal,
            "busy_s": float(raw_ms.sum() / 1e3),
            "scaled_busy_s": float(scaled_ms.sum() / 1e3),
            "call_p50_ms": float(np.percentile(scaled_ms, 50)),
            "call_p99_ms": float(np.percentile(scaled_ms, 99)),
            "raw_call_p50_ms": float(np.percentile(raw_ms, 50)),
            "raw_call_p99_ms": float(np.percentile(raw_ms, 99))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=["setup", "run", "trace"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    normlab = load_normlab()
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](normlab, sizes)
    wl.setup()
    ready = time.monotonic()
    for loop, _ in REFERENCES.values():
        loop()  # untimed: its first run pays one-off costs
    setup_loop, setup_nominal_s = REFERENCES["python"]
    result: dict = {"ready": ready, "setup_slowdown":
                    reference_time(SETUP_REF_S, setup_loop) / setup_nominal_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    wl.make_inputs(args.seed)
    error = normlab.errors.NormLabError
    if args.mode == "run":
        p = run_pass(wl, error, seconds=args.seconds,
                     repeats=wl.repeats)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracing

        n = sizes.trace_calls[args.workload]
        plain = run_pass(wl, error, calls=n)
        wl.make_inputs(args.seed)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p = run_pass(wl, error, calls=n)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["layers"]["trace.overhead_ratio"] = (
            plain["scaled_busy_s"] / p["scaled_busy_s"])
    end = wl.finish()
    result.update(p)
    result["wrong"] += end.wrong
    result["fatal"] |= end.fatal
    result["unit"] = wl.unit
    result["stats"] = getattr(wl, "stats", {})
    result["env"] = environment(normlab)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
