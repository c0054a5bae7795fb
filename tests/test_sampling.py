"""The stacked stream states against numpy's own seeding, bit for bit.

gaussian_draws hashes every index's SeedSequence at once and writes each
index's PCG64 words into its thread's generator in turn; rng_for(seed,
*keys, i) is the definition of the stream it must reproduce.  The seeds,
keys and indices cover every entropy layout the hash distinguishes: one- and multi-word seeds, entropy
shorter than the 4-word pool and longer (keys (1, 2, 3, 4, 5)), past the
precomputed hash constants (40 keys), and indices on both sides of 2**32.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

import normlab as nl
from normlab import cli, sampling
from normlab.cli import main
from normlab.sampling import _stream_states, gaussian_draws, rng_for, unit_draws

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70 + 5]
KEYS = [(), (3,), (1, 2, 3, 4, 5)]
INDEX_SETS = {
    "single": [11],
    "range": range(5, 37),
    "unsorted": [40, 2, 17, 0, 3, 9],
    "two-word": [7, 2**32 - 1, 2**32, 2**32 + 5],
}


# the multiplier of PCG64's 128-bit LCG
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def reference_state(seed, keys, i):
    state = rng_for(seed, *keys, i).bit_generator.state["state"]
    return state["state"], state["inc"]


def seeded_state(words):
    """The (state, inc) one LCG step after a row of _stream_states."""
    pre_lo, pre_hi, inc_lo, inc_hi = map(int, words)
    inc = inc_lo | inc_hi << 64
    return ((pre_lo | pre_hi << 64) * PCG_MULT + inc) % 2**128, inc


def check_streams(seed, keys, indices):
    indices = list(indices)
    words = _stream_states(seed, keys, indices)
    assert words.shape == (len(indices), 4) and words.dtype == np.uint64
    assert [seeded_state(w) for w in words] == [
        reference_state(seed, keys, i) for i in indices]
    for count in (1, 2):
        dim = 3
        got = gaussian_draws(dim, seed, keys, indices, count)
        assert len(got) == count
        for k, i in enumerate(indices):
            g = rng_for(seed, *keys, i).standard_normal(2 * count * dim)
            g = g.reshape(count, 2, dim)
            for j, z in enumerate(got):
                assert z.shape == (len(indices), dim)
                assert z[k].tobytes() == (g[j, 0] + 1j * g[j, 1]).tobytes(), (j, i)


@pytest.mark.parametrize("indices", INDEX_SETS.values(), ids=INDEX_SETS.keys())
@pytest.mark.parametrize("keys", KEYS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_streams_equal_rng_for(seed, keys, indices):
    check_streams(seed, keys, indices)


def test_entropy_past_the_precomputed_constants():
    keys = tuple(range(40))
    assert 1 + 4 * (len(keys) + 2) > len(sampling._MIX_CONSTANTS)
    check_streams(2**64 + 3, keys, [0, 2**32 + 1, 8])


def test_no_indices_give_empty_draws():
    assert _stream_states(1, (2,), []).shape == (0, 4)
    (z,) = gaussian_draws(3, 1, (2,), [], count=1)
    assert z.shape == (0, 3)


@pytest.mark.parametrize("seed, keys, indices", [
    (-1, (), [0]),
    (5, (-1,), [0]),
    (5, (2, -(2**40)), [0]),
    (5, (), [3, -1, 4]),
], ids=["seed", "key", "large-key", "index"])
def test_negative_seeds_keys_and_indices_raise(seed, keys, indices):
    # a bare 32-bit split would turn -1 into a valid stream silently
    with pytest.raises(ValueError, match=">= 0"):
        _stream_states(seed, keys, indices)
    with pytest.raises(ValueError):
        rng_for(seed, *keys, *indices)


def stream_draws(seed, keys, indices):
    """gaussian_draws(3, seed, keys, indices, extra=2) through rng_for."""
    g = np.array([rng_for(seed, *keys, i).standard_normal(14) for i in indices])
    return [(g[:, 0:3] + 1j * g[:, 3:6]).tobytes(),
            (g[:, 6:9] + 1j * g[:, 9:12]).tobytes(), g[:, 12:].tobytes()]


def serial_draws(seed, keys, indices):
    return [z.tobytes() for z in gaussian_draws(3, seed, keys, indices, extra=2)]


def test_threads_draw_their_own_streams():
    # each thread writes the words of its own generator; batches drawn
    # concurrently by more threads than cores, switching threads every
    # microsecond, keep every bit
    jobs = [(5, (1,), range(0, 40)), (2**64 + 3, (7, 8), [2**32 + 1, 3, 90]),
            (0, (), range(7, 12))]
    expected = [stream_draws(*job) for job in jobs]
    assert [serial_draws(*job) for job in jobs] == expected
    start = threading.Barrier(len(jobs))
    failures = []

    def run(job, want):
        start.wait()
        for _ in range(200):
            if serial_draws(*job) != want:
                failures.append(job)
                return

    threads = [threading.Thread(target=run, args=pair) for pair in zip(jobs, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_probed_word_order_reads_back_in_a_fresh_thread():
    seen = {}

    def run():
        writer = sampling._stream_writer()
        seen["kept"] = writer is sampling._stream_writer()
        words = _stream_states(9, (4,), [17])[0]
        writer.words[:] = words[writer.order]
        state = writer.bit_generator.state
        pre_lo, pre_hi, inc_lo, inc_hi = map(int, words)
        seen["read"] = state["state"]["state"], state["state"]["inc"]
        seen["written"] = pre_lo | pre_hi << 64, inc_lo | inc_hi << 64
        writer.bit_generator.random_raw()
        seen["stepped"] = writer.bit_generator.state
        seen["writer"] = writer

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and seen["kept"]
    assert seen["read"] == seen["written"]
    assert seen["stepped"] == rng_for(9, 4, 17).bit_generator.state
    assert seen["stepped"]["has_uint32"] == 0
    assert seen["writer"] is not sampling._stream_writer()


def test_a_word_order_that_does_not_read_back_raises(monkeypatch):
    # the words of inc where those of the state belong: the probe finds
    # no order and raises before it writes anything
    monkeypatch.setattr(sampling, "_WORD_ORDERS", ([2, 3, 0, 1],))
    with pytest.raises(RuntimeError, match="word order"):
        sampling._StreamWriter()


def test_a_failed_probe_falls_back_to_rng_for(monkeypatch):
    # a numpy whose state words the probe cannot find: a fresh thread
    # chooses the fallback once and draws every index through rng_for, with
    # the bits of the fast path in this thread
    def fail(self):
        raise RuntimeError("no known word order")

    spec = nl.lp(2.5, 3)
    jobs = [(seed, keys, indices) for seed in (0, 2**32, 2**70 + 5)
            for keys in ((), (3,), (1, 2, 3, 4, 5))
            for indices in (range(5, 13), [7, 2**32 - 1, 2**32, 2**32 + 5])]

    def draws(job):
        seed, keys, indices = job
        return [a.tobytes() for a in (*gaussian_draws(3, seed, keys, indices, extra=2),
                                      *unit_draws(spec, seed, keys, indices, extra=1))]

    fast = [draws(job) for job in jobs]
    monkeypatch.setattr(sampling._StreamWriter, "_probe", fail)
    seen = {}

    def run():
        seen["draws"] = [draws(job) for job in jobs]
        seen["writer"] = sampling._stream_writer()

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    assert seen["writer"] is None
    assert seen["draws"] == fast


# --- the draw scope of a report ---------------------------------------------


@pytest.fixture
def hashed(monkeypatch):
    """The (seed, keys, indices) of every _stream_states call, in order."""
    calls = []

    def counting(seed, keys, indices):
        calls.append((seed, tuple(keys), indices))
        return _stream_states(seed, keys, indices)

    monkeypatch.setattr(sampling, "_stream_states", counting)
    return calls


def test_a_report_hashes_each_stream_batch_once(hashed, capsys):
    # its suites draw 12 times, from 6 stream batches: 7 draws of stream
    # (seed, i) and one of each key of the bounds and preservation audits
    argv = ["report", "--norm", "lp:p=2.5:dim=4", "--samples", "30", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(hashed) == len(set(hashed)) == 6
    # nothing outlives the report: the next one hashes every stream again
    assert getattr(sampling._per_thread, "memo", None) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert hashed[6:] == hashed[:6]


def test_a_check_hashes_its_stream_batch_once(hashed, capsys, monkeypatch):
    # rho-n-props draws x, y on the spec and u, v on its pd spec from the
    # batch of stream (seed, i); check opens a scope, as report does
    argv = ["check", "--suite", "rho-n-props", "--norm", "lp:p=2.5:dim=4",
            "--samples", "30", "--seed", "42"]
    assert main(argv) == 0
    scoped = capsys.readouterr().out
    assert hashed.count((42, (), range(0, 30))) == 1
    # without the scope each draw hashes again, and prints the same
    monkeypatch.setattr(cli, "draw_scope", contextlib.nullcontext)
    hashed.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == scoped
    assert hashed.count((42, (), range(0, 30))) == 2


def test_a_scope_serves_prefixes_and_redraws_wider(hashed):
    # outside a scope nothing is kept: the narrow draw hashes again
    wide = [z.tobytes() for z in gaussian_draws(2, 5, (3,), range(6), extra=7)]
    narrow = [z.tobytes() for z in gaussian_draws(3, 5, (3,), range(6), count=1)]
    assert len(hashed) == 2
    with sampling.draw_scope():
        # count 1 of dim 3 reads the first 6 of the 15 normals of dim 2
        assert [z.tobytes() for z in gaussian_draws(2, 5, (3,), range(6), extra=7)] == wide
        assert [z.tobytes() for z in gaussian_draws(3, 5, (3,), range(6), count=1)] == narrow
        assert len(hashed) == 3
        # a wider request draws again; other keys and ranges are their own
        z, g = gaussian_draws(1, 5, (3,), range(6), count=1, extra=15)
        want = np.array([rng_for(5, 3, i).standard_normal(17) for i in range(6)])
        assert z.tobytes() == (want[:, :1] + 1j * want[:, 1:2]).tobytes()
        assert g.tobytes() == want[:, 2:].tobytes()
        serial_draws(5, (4,), range(6))
        serial_draws(5, (3,), range(1, 6))
        # an index list is drawn every time
        serial_draws(5, (3,), [0, 1])
        serial_draws(5, (3,), [0, 1])
        assert len(hashed) == 8
    assert sampling._per_thread.memo is None


def test_a_scope_keeps_at_most_its_entry_cap(hashed):
    cap = sampling.DRAW_MEMO_ENTRIES
    with sampling.draw_scope():
        for start in range(cap + 3):
            gaussian_draws(3, 1, (), range(start, start + 2))
        assert len(sampling._per_thread.memo) == cap
        # the least recently used went first: the last cap ranges are kept
        for start in range(3, cap + 3):
            gaussian_draws(3, 1, (), range(start, start + 2))
        assert len(hashed) == cap + 3
        gaussian_draws(3, 1, (), range(0, 2))
        assert len(hashed) == cap + 4


def test_a_nested_scope_restores_the_outer_memo(hashed):
    with sampling.draw_scope():
        outer = sampling._per_thread.memo
        serial_draws(2, (), range(3))
        with sampling.draw_scope():
            serial_draws(2, (), range(3))
        assert sampling._per_thread.memo is outer
        serial_draws(2, (), range(3))
    assert len(hashed) == 2


def test_each_thread_has_its_own_memo(hashed):
    seen = {}

    def run():
        seen["outside"] = getattr(sampling._per_thread, "memo", None)
        serial_draws(0, (2,), range(5))
        with sampling.draw_scope():
            serial_draws(0, (2,), range(5))
            seen["own"] = sampling._per_thread.memo

    with sampling.draw_scope():
        serial_draws(0, (2,), range(5))
        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        # this thread's memo is untouched, and still serves its draw
        mine = sampling._per_thread.memo
        assert seen["outside"] is None and seen["own"] is not mine
        assert list(mine) == [(0, (2,), range(5))]
        serial_draws(0, (2,), range(5))
    assert len(hashed) == 3


@pytest.mark.parametrize("indices", [range(1), range(3, 8)], ids=["one-row", "five-rows"])
def test_returned_draws_do_not_alias_the_memo(indices):
    # on one row the extra normals g[:, width:] are contiguous already, and
    # a view of them would carry the writes below into the memo
    want = stream_draws(4, (), indices)
    with sampling.draw_scope():
        for _ in range(2):
            got = gaussian_draws(3, 4, (), indices, extra=2)
            assert [z.tobytes() for z in got] == want
            for z in got:
                z[...] = np.nan
        (x,) = gaussian_draws(3, 4, (), indices, count=1)
        assert x.tobytes() == want[0]
