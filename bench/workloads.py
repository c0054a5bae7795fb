"""The benchmark's three workloads.

Each workload makes its inputs from a seed, exposes one independent call
(the unit whose latency is reported) and checks every call's output.  The
caller is a single closed loop: the next call starts when the previous one
returned.  normlab is always reached through module attributes at call
time, so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from oracle import max_modulus_rho_inf

# Per-call seeds: call k of a run with seed s uses s * SEED_STRIDE + k, so
# runs with different seeds never share a call's inputs.  Seeds are taken
# modulo SEED_MODULUS, because numpy accepts only non-negative seeds.
SEED_STRIDE = 100_000
SEED_MODULUS = 1 << 32

# `normlab report` exit codes: all records pass / some record fails
EXIT_OK, EXIT_VIOLATION = 0, 4


@dataclass(frozen=True)
class Sizes:
    search_separation_samples: int = 1000
    search_inclusion_samples: int = 250
    report_samples: int = 30
    kinked_pool: int = 20_000
    # calls made by each of the two passes of a traced run
    trace_calls: dict | None = None


FULL = Sizes(trace_calls={"search-l1": 12, "report-smooth": 8,
                          "rho-inf-kinked": 3000})
TINY = Sizes(search_separation_samples=50, search_inclusion_samples=20,
             report_samples=10, kinked_pool=60,
             trace_calls={"search-l1": 1, "report-smooth": 1,
                          "rho-inf-kinked": 30})


@dataclass
class Outcome:
    """What the checks found for one call."""

    units: int
    # units whose value is flagged nonconverged or fails the check; they
    # are measured (pass_share), not a failure of the run
    wrong: int
    # the output could not be checked or did not reproduce
    fatal: bool = False


class SearchL1:
    """The criterion-8 audit on lp:p=1:dim=2, through relation_compare.

    One call is one audit: rho_plus -> rho_inf and bj -> rho_inf to the
    first witness, then rho_inf -> bj over the inclusion sample count.
    A unit is one relation_compare index.
    """

    name = "search-l1"
    reference = "python"  # speed.py loop its timings are scaled by
    unit = "relation_compare index"
    # an audit takes about 0.2 s: long enough for the host's speed to change
    # within it, so its latency is the fastest of two runs
    repeats = 2
    smooth_slices = 0  # see speed.py
    norm_text = "lp:p=1:dim=2"

    def __init__(self, nl, sizes: Sizes):
        self.orth = nl.orthogonality
        self.spaces = nl.spaces
        self.sizes = sizes

    def setup(self) -> None:
        self.spec = self.spaces.parse_norm_spec(self.norm_text)
        for a, b, _ in self._searches():
            self._search(a, b, 1, 0, None)

    def make_inputs(self, seed: int) -> None:
        self.seed = int(seed) % SEED_MODULUS

    def _searches(self):
        o = self.orth
        sep = self.sizes.search_separation_samples
        return ((o.RHO_PLUS, o.RHO_INF, sep), (o.BIRKHOFF_JAMES, o.RHO_INF, sep),
                (o.RHO_INF, o.BIRKHOFF_JAMES, None))

    def _search(self, a, b, samples, seed, max_witnesses):
        cfg = self.orth.SamplerConfig(dim=self.spec.dim, samples=samples,
                                      seed=seed, max_witnesses=max_witnesses)
        return self.orth.relation_compare(self.spec, a, b, cfg)

    def call(self, k: int):
        s = self.seed * SEED_STRIDE + k
        inc = self.sizes.search_inclusion_samples
        return [self._search(a, b, n if n else inc, s, 1 if n else None)
                for a, b, n in self._searches()]

    def check(self, k: int, out) -> Outcome:
        perp = self.orth.perp
        units = wrong = 0
        for (a, b, n), found in zip(self._searches(), out):
            if n is None:  # inclusion: no pair may separate the relations
                units += self.sizes.search_inclusion_samples
                wrong += len(found)
                continue
            units += found[0].index + 1 if found else n
            ok = len(found) == 1
            if ok:
                w = found[0]
                va = perp(self.spec, a, w.x, w.y)
                vb = perp(self.spec, b, w.x, w.y)
                ok = (va.orthogonal and va.converged
                      and vb.converged and not vb.orthogonal)
            wrong += not ok
        return Outcome(units, wrong)

    def finish(self) -> Outcome:
        return Outcome(0, 0)


class ReportSmooth:
    """`normlab report` on lp:p=2.5:dim=4, in-process through cli.main.

    One call is one report; a unit is one suite sample, i.e. the sample
    count times the number of suites the report ran.
    """

    name = "report-smooth"
    reference = "python"  # speed.py loop its timings are scaled by
    unit = "suite sample"
    repeats = 3  # as for search-l1; a report takes about 0.6 s
    smooth_slices = 5
    norm_text = "lp:p=2.5:dim=4"

    def __init__(self, nl, sizes: Sizes):
        self.cli = nl.cli
        self.spaces = nl.spaces
        self.sizes = sizes

    def _report(self, samples: int, seed: int) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["report", "--norm", self.norm_text,
                                "--samples", str(samples), "--seed", str(seed)])
        return rc, buf.getvalue()

    def setup(self) -> None:
        self.spaces.parse_norm_spec(self.norm_text)
        self._report(1, 0)

    def make_inputs(self, seed: int) -> None:
        self.seed = int(seed) % SEED_MODULUS

    def call(self, k: int):
        return self._report(self.sizes.report_samples,
                            self.seed * SEED_STRIDE + k)

    def check(self, k: int, out) -> Outcome:
        rc, text = out
        lines = text.splitlines()
        header = lines[0].split() if lines else []
        rows = [line.split() for line in lines[1:-1]]
        suites = {r[0] for r in rows}
        units = self.sizes.report_samples * max(len(suites), 1)
        if k == 0:
            self.first_output, self.first_units = text, units
        if "pass" not in header or not lines[-1].startswith("passed "):
            return Outcome(units, units, fatal=True)
        col = header.index("pass")
        bad = {r[0] for r in rows if r[col] != "true"}
        passed, total = map(int, lines[-1].split()[1].split("/"))
        expected_rc = EXIT_OK if not bad else EXIT_VIOLATION
        fatal = (rc != expected_rc or total != len(rows)
                 or passed != sum(r[col] == "true" for r in rows))
        return Outcome(units, self.sizes.report_samples * len(bad), fatal)

    def finish(self) -> Outcome:
        """Re-run the first report: its stdout must be byte-identical."""
        _, text = self._report(self.sizes.report_samples,
                               self.seed * SEED_STRIDE)
        if text == self.first_output:
            return Outcome(0, 0)
        return Outcome(0, self.first_units, fatal=True)


# Polyhedral norm of the kinked workload: six fixed functionals on C^3.
POLY_ROWS = np.array([
    [1.0, 0.3, 0.0],
    [0.0, 1.0, 0.3j],
    [0.3, 0.0, 1.0],
    [0.5 + 0.5j, -0.5, 0.4],
    [0.2, 0.6j, -0.6],
    [-0.4j, 0.3, 0.5 + 0.3j],
], dtype=np.complex128)

# Every TIE_EVERY-th pair puts x at a tie (20% of the pairs); the tie joins
# two or three coordinates (lp:inf) or functionals (poly), alternating.
TIE_EVERY = 5

# The false-convergence reproducer on lp:p=inf:dim=3; it is pair 0.
PINNED_X = np.array([1, 1, 1], dtype=np.complex128)
PINNED_Y = np.array([0.8 + 0.9j, -0.4 + 0.1j, -1.5 - 0.8j])


def _gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def _lpinf_tie(rng: np.random.Generator, size: int) -> np.ndarray:
    """x in C^3 whose first `size` coordinates (shuffled) share modulus 1."""
    x = _unit_phases(rng, 3)
    x[size:] *= rng.uniform(0.0, 0.9, 3 - size)
    return x[rng.permutation(3)]


def _poly_tie(rng: np.random.Generator, size: int) -> np.ndarray:
    """x with |f_j x| = 1 for `size` functionals and < 1 for the rest."""
    m = POLY_ROWS.shape[0]
    while True:
        rows = rng.choice(m, 3, replace=False)
        target = _unit_phases(rng, 3)
        target[size:] *= rng.uniform(0.0, 0.8, 3 - size)
        x = np.linalg.solve(POLY_ROWS[rows], target)
        others = np.delete(np.abs(POLY_ROWS @ x), rows[:size])
        if others.max() < 1.0 - 1e-6:
            return x


class RhoInfKinked:
    """rho_inf one pair at a time on lp:p=inf:dim=3 and a poly norm in dim 3.

    Pairs alternate between the two norms; every fifth one has x at a tie,
    the others are complex Gaussian.  Values are checked against the
    closed-form envelope integral in oracle.py.
    """

    name = "rho-inf-kinked"
    reference = "wide"  # speed.py loop its timings are scaled by
    unit = "rho_inf call"
    repeats = 1
    smooth_slices = 0

    def __init__(self, nl, sizes: Sizes):
        self.rhoinf = nl.rho_infinity
        self.spaces = nl.spaces
        self.sizes = sizes

    def setup(self) -> None:
        sp = self.spaces
        self.specs = (sp.lp(np.inf, 3), sp.polyhedral(POLY_ROWS))
        self.functionals = (np.eye(3, dtype=np.complex128), POLY_ROWS)
        for spec in self.specs:
            self.rhoinf.rho_inf(spec, PINNED_Y, PINNED_Y[::-1])

    def make_inputs(self, seed: int) -> None:
        n = self.sizes.kinked_pool
        rng = np.random.default_rng((int(seed) % SEED_MODULUS, 7))
        self.xs = _gaussian(rng, n, 3)
        self.ys = _gaussian(rng, n, 3)
        self.norm_of = np.arange(n) % 2
        self.tie = np.arange(n) % TIE_EVERY == 0
        for j in np.flatnonzero(self.tie):
            size = 2 + (j // (2 * TIE_EVERY)) % 2
            self.xs[j] = (_lpinf_tie if self.norm_of[j] == 0 else _poly_tie)(rng, size)
        self.xs[0], self.ys[0], self.norm_of[0] = PINNED_X, PINNED_Y, 0
        self.oracle: dict[int, tuple[complex, float]] = {}
        self.stats = {"nonconverged": 0, "wrong_converged": 0,
                      "tie_failed": 0, "tie_calls": 0, "pinned_failed": None}

    def call(self, k: int):
        j = k % self.sizes.kinked_pool
        return self.rhoinf.rho_inf(self.specs[self.norm_of[j]], self.xs[j],
                                   self.ys[j])

    def check(self, k: int, v) -> Outcome:
        j = k % self.sizes.kinked_pool
        if j not in self.oracle:
            self.oracle[j] = max_modulus_rho_inf(
                self.functionals[self.norm_of[j]], self.xs[j], self.ys[j])
        ref, ref_err = self.oracle[j]
        wrong = bool(abs(complex(v.value) - ref) > v.abs_error + ref_err)
        failed = not v.converged or wrong
        st = self.stats
        st["nonconverged"] += not v.converged
        st["wrong_converged"] += v.converged and wrong
        if self.tie[j]:
            st["tie_calls"] += 1
            st["tie_failed"] += failed
        if j == 0:
            st["pinned_failed"] = bool(failed)
        return Outcome(1, int(failed))

    def finish(self) -> Outcome:
        return Outcome(0, 0)


WORKLOADS = {w.name: w for w in (SearchL1, ReportSmooth, RhoInfKinked)}
