"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes, and a run only ever sees one stretch
of that drift.  So every timed pass is cut into slices of about SLICE_S,
and between slices a fixed reference loop that does not touch normlab
runs for REF_SHARE of the slice.  A slice's slowdown is the mean time of
the reference loop before and after it over the loop's nominal time; each
call's latency is divided by its slice's slowdown, so timings read as
seconds on a machine where each loop takes its nominal time.  The raw
timings are printed next to the scaled ones.

Host load slows different kinds of work by different amounts, so each
workload is scaled by the loop closer to its own work:

* ``python``: Python calls on two-element numpy arrays, as in a simplex
  step, and one extended-precision array pass (search-l1, report-smooth,
  and set-up time);
* ``wide``: difference quotients of a max-modulus norm over a few hundred
  rotated directions at 20 step sizes, in extended precision, as in the
  numeric limit under quadrature (rho-inf-kinked).

The choice was made by timing a fixed block of each workload's calls
between the loops for 3-4 minutes of varying host load, and fitting the
log of the block's time to the log of each loop's time over 5-10 s
windows.  Slopes: rho-inf-kinked 1.0 on ``wide`` and 0.8 on ``python``;
search-l1 0.95 on ``python``; report-smooth 0.83 on ``python`` and 1.04
on ``wide``.  For report-smooth a half-and-half loop fitted best (0.95),
but in whole runs under heavier load it over-corrected more than
``python`` did, so report-smooth stays on ``python``.

A slice's slowdown can also be taken as the mean reference time over
``smooth`` slices on either side of it.  That tracks drift over seconds
instead of per slice, and helps where a call is a long slice of its own:
on report-smooth (0.6 s calls) ten runs gave call_p99_ms spreads of
0.09 smoothed over 5 slices against up to 0.24 unsmoothed.  On search-l1
and rho-inf-kinked the same smoothing made call_p50_ms spread more (0.03
to 0.1 and 0.04 to 0.14), so they are scaled per slice.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# reference time per unit of workload time, and the slice it follows
REF_SHARE = 0.05
SLICE_S = 0.1

_WIDE = (np.linspace(-1.0, 1.0, 3 * 4096) + 0.5j).astype(np.clongdouble).reshape(4096, 3)
_QX = np.array([0.6 + 0.2j, -0.3 + 0.7j, 0.9 - 0.1j]).astype(np.clongdouble)
_QY = (np.exp(2j * np.pi * np.arange(512) / 512)[:, None]
       * np.array([0.1 - 0.8j, 0.5 + 0.5j, -0.7 + 0.2j])[None, :])
_QT = (2.0 ** -np.arange(8.0, 28.0)).astype(np.longdouble)


def reference_loop() -> float:
    z = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    pts = [0j, 1 + 0j, 1j]
    acc = 0.0
    for _ in range(150):
        vals = [float(np.abs(z + p * z).sum()) for p in pts]
        order = sorted(range(3), key=lambda j: vals[j])
        acc += vals[order[0]] + pts[order[1]].real
    return acc + float(np.abs(_WIDE).max(axis=-1)[0])


def wide_loop() -> float:
    ys = _QY.astype(np.clongdouble)
    shifted = _QX[None, None, :] + _QT[:, None, None] * ys[None, :, :]
    quotients = np.abs(shifted).max(axis=-1).astype(float)
    return float(np.diff(quotients, axis=0).sum())


# loop and its time in seconds on the 2-vCPU x86-64 VM the bounds were set on
REFERENCES = {"python": (reference_loop, 0.0018), "wide": (wide_loop, 0.0020)}


def reference_time(budget_s: float, loop=reference_loop) -> float:
    """Mean seconds per loop over at least budget_s (one loop minimum)."""
    loops = 0
    start = perf_counter()
    while True:
        loop()
        loops += 1
        elapsed = perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / loops


def scale(latencies: list[float], slice_ends: list[int],
          refs: list[float], nominal_s: float, smooth: int = 0) -> list[float]:
    """Latencies divided by their slice's slowdown.

    Calls slice_ends[i-1]..slice_ends[i]-1 form slice i, which refs[i] and
    refs[i+1] were measured before and after; its slowdown is the mean of
    the refs from ``smooth`` before to ``smooth`` after those two.
    """
    out = []
    begin = 0
    for i, end in enumerate(slice_ends):
        window = refs[max(0, i - smooth):i + 2 + smooth]
        slowdown = sum(window) / (len(window) * nominal_s)
        out += [t / slowdown for t in latencies[begin:end]]
        begin = end
    return out
