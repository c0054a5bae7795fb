"""The stacked stream states against numpy's own seeding, bit for bit.

gaussian_draws hashes every index's SeedSequence at once and writes each
index's PCG64 words into its thread's generator in turn; rng_for(seed,
*keys, i) is the definition of the stream it must reproduce.  The seeds,
keys and indices cover every entropy layout the hash distinguishes: one-
and multi-word seeds, entropy shorter than the 4-word pool and longer
(keys (1, 2, 3, 4, 5)), past the precomputed hash constants (40 keys),
and indices on both sides of 2**32.  Each layout is also hashed in one
call stacked with the others, as a draw scope hashes its streams.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

import normlab as nl
from normlab import cli, sampling
from normlab.cli import main
from normlab.sampling import (
    _stream_states,
    gaussian_draws,
    rng_for,
    sample_unit,
    unit_draws,
)

from test_golden import REPORT_NORMS

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
    # alone, and stacked in one call with streams of every other layout
    # (() beside (k,), entropy inside the pool and past it)
    stacked = [keys, *(k for k in KEYS if k != keys)]
    for streams in ([keys], stacked):
        words = _stream_states(seed, streams, indices)
        assert words.shape == (len(streams), len(indices), 4)
        assert words.dtype == np.uint64
        for keys_k, words_k in zip(streams, words):
            assert [seeded_state(w) for w in words_k] == [
                reference_state(seed, keys_k, i) for i in indices], keys_k
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
    assert _stream_states(1, [(2,)], []).shape == (1, 0, 4)
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
        _stream_states(seed, [keys], indices)
    with pytest.raises(ValueError, match=">= 0"):
        _stream_states(seed, [(), keys], indices)
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
        words = _stream_states(9, [(4,)], [17])[0, 0]
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
    """The (seed, streams, indices) of every _stream_states call, in order."""
    calls = []

    def counting(seed, streams, indices):
        calls.append((seed, tuple(map(tuple, streams)), indices))
        return _stream_states(seed, streams, indices)

    monkeypatch.setattr(sampling, "_stream_states", counting)
    return calls


def test_a_report_hashes_each_stream_batch_once(hashed, capsys):
    # its suites draw 12 times, from 6 stream batches of one index range:
    # 7 draws of stream (seed, i) and one of each key of the symmetry,
    # bounds and preservation audits; one call hashes all 6
    assert set(sampling.STREAM_KEYS) == {(), (0,), (1,), (4,), (5,), (6,)}
    argv = ["report", "--norm", "lp:p=2.5:dim=4", "--samples", "30", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert hashed == [(7, sampling.STREAM_KEYS, range(0, 30))]
    # nothing outlives the report: the next one hashes every stream again
    assert getattr(sampling._per_thread, "memo", None) is None
    assert getattr(sampling._per_thread, "states", None) is None
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert hashed[1:] == hashed[:1]


def test_a_check_hashes_its_stream_batch_once(hashed, capsys, monkeypatch):
    # rho-n-props draws x, y on the spec and u, v on its pd spec from the
    # batch of stream (seed, i); check opens a scope, as report does, and
    # its one hash covers every registered stream of the range
    argv = ["check", "--suite", "rho-n-props", "--norm", "lp:p=2.5:dim=4",
            "--samples", "30", "--seed", "42"]
    assert main(argv) == 0
    scoped = capsys.readouterr().out
    assert hashed == [(42, sampling.STREAM_KEYS, range(0, 30))]
    # without the scope each draw hashes its own stream again, and prints
    # the same
    monkeypatch.setattr(cli, "draw_scope", contextlib.nullcontext)
    hashed.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == scoped
    assert hashed == [(42, (sampling.PAIRS_KEY,), range(0, 30))] * 2


# every report golden's norm at 30 samples, one batch, and one norm at
# 1100, two batches: the scope hashes the streams of each range together
SCOPE_CASES = {key: (norm, 30) for key, norm in REPORT_NORMS.items()}
SCOPE_CASES["lp2.5-samples1100"] = (REPORT_NORMS["lp2.5"], 1100)


@pytest.mark.parametrize("norm, samples", SCOPE_CASES.values(), ids=SCOPE_CASES.keys())
def test_a_report_prints_the_same_without_its_scope(norm, samples, capsys, monkeypatch):
    # inside the scope its suites read shared states, normals and unit
    # rows; without it every draw is hashed, made and normalized again,
    # with the same bits
    argv = ["report", "--norm", norm, "--samples", str(samples), "--seed", "7",
            "--format", "jsonl"]
    code = main(argv)
    scoped = capsys.readouterr().out
    monkeypatch.setattr(cli, "draw_scope", contextlib.nullcontext)
    assert main(argv) == code
    assert capsys.readouterr().out == scoped


def reference_units(spec, seed, keys, indices, count, extra):
    """unit_draws(spec, seed, keys, indices, count, extra) as bytes, each
    index through sample_unit on its rng_for stream."""
    rows = []
    for i in indices:
        rng = rng_for(seed, *keys, i)
        rows.append([sample_unit(spec, rng) for _ in range(count)]
                    + ([rng.standard_normal(extra)] if extra else []))
    return [np.array(col).tobytes() for col in zip(*rows)]


@pytest.mark.parametrize("redraw", [False, True], ids=["kept", "redrawn"])
def test_unit_rows_in_a_scope_have_the_bits_of_fresh_ones(redraw, monkeypatch):
    # counts 1 and 2 with 0, 2 and then 4 extra normals: the first call of
    # each count normalizes and keeps the rows, the later ones read them,
    # also after the wider draw of extra 4.  With a redrawn index (norm at
    # or below UNIT_MIN_NORM) the batch keeps no unit rows
    spec, seed, keys, indices = nl.lp(2.5, 2), 11, (2,), range(3, 43)
    if redraw:
        monkeypatch.setattr(sampling, "UNIT_MIN_NORM", 0.9)
        z = gaussian_draws(2, seed, keys, indices, count=2)
        assert 0 < sum((spec.kernel.norm(u) <= 0.9).sum() for u in z) < 20
    calls = [(count, extra) for count in (1, 2) for extra in (0, 2, 4)]
    want = {call: reference_units(spec, seed, keys, indices, *call) for call in calls}
    for call in calls:
        got = unit_draws(spec, seed, keys, indices, *call)
        assert [a.tobytes() for a in got] == want[call], call
    with sampling.draw_scope():
        for _ in range(2):
            for call in calls:
                got = unit_draws(spec, seed, keys, indices, *call)
                assert [a.tobytes() for a in got] == want[call], call
                # every returned array is new: writes do not reach the memo
                for a in got:
                    a[...] = np.nan
        (_, kept), = sampling._per_thread.memo.values()
        assert sorted(count for _, count in kept) == ([] if redraw else [1, 2])


def test_a_scope_serves_prefixes_and_redraws_wider(hashed):
    key, other = sampling.SYMMETRY_KEY, sampling.MAP_PAIR_KEY
    # outside a scope nothing is kept: the narrow draw hashes again, and
    # each call hashes its own stream
    wide = [z.tobytes() for z in gaussian_draws(2, 5, key, range(6), extra=7)]
    narrow = [z.tobytes() for z in gaussian_draws(3, 5, key, range(6), count=1)]
    assert hashed == [(5, (key,), range(6))] * 2
    hashed.clear()
    with sampling.draw_scope():
        # count 1 of dim 3 reads the first 6 of the 15 normals of dim 2;
        # the first draw hashed every registered stream of the range
        assert [z.tobytes() for z in gaussian_draws(2, 5, key, range(6), extra=7)] == wide
        assert [z.tobytes() for z in gaussian_draws(3, 5, key, range(6), count=1)] == narrow
        assert hashed == [(5, sampling.STREAM_KEYS, range(6))]
        # a wider request draws again, and another registered stream of
        # the range is drawn, both from the states kept
        z, g = gaussian_draws(1, 5, key, range(6), count=1, extra=15)
        want = np.array([rng_for(5, *key, i).standard_normal(17) for i in range(6)])
        assert z.tobytes() == (want[:, :1] + 1j * want[:, 1:2]).tobytes()
        assert g.tobytes() == want[:, 2:].tobytes()
        assert serial_draws(5, other, range(6)) == stream_draws(5, other, range(6))
        assert len(hashed) == 1
        # another range hashes its registered streams together; a key
        # that is not registered hashes its own stream, and an index list
        # is hashed and drawn every time
        serial_draws(5, key, range(1, 6))
        serial_draws(5, (9,), range(6))
        serial_draws(5, (9,), range(6))
        serial_draws(5, key, [0, 1])
        assert serial_draws(5, key, [0, 1]) == stream_draws(5, key, [0, 1])
        assert hashed[1:] == [(5, sampling.STREAM_KEYS, range(1, 6)),
                              (5, ((9,),), range(6)),
                              (5, (key,), [0, 1]), (5, (key,), [0, 1])]
    assert sampling._per_thread.memo is None
    assert sampling._per_thread.states is None


def test_a_scope_keeps_at_most_its_entry_cap(hashed):
    cap = sampling.DRAW_MEMO_ENTRIES
    with sampling.draw_scope():
        for start in range(cap + 3):
            gaussian_draws(3, 1, (), range(start, start + 2))
        assert len(sampling._per_thread.memo) == cap
        assert len(sampling._per_thread.states) == cap
        # the least recently used went first: the last cap ranges are kept
        for start in range(3, cap + 3):
            gaussian_draws(3, 1, (), range(start, start + 2))
        assert len(hashed) == cap + 3
        # each range's registered streams were hashed in one call
        assert {streams for _, streams, _ in hashed} == {sampling.STREAM_KEYS}
        gaussian_draws(3, 1, (), range(0, 2))
        assert len(hashed) == cap + 4


def test_a_nested_scope_restores_the_outer_memo(hashed):
    with sampling.draw_scope():
        outer = sampling._per_thread.memo, sampling._per_thread.states
        serial_draws(2, (), range(3))
        with sampling.draw_scope():
            # the inner scope starts empty: it hashes the range again
            serial_draws(2, (), range(3))
            serial_draws(2, (0,), range(3))
        assert (sampling._per_thread.memo, sampling._per_thread.states) == outer
        serial_draws(2, (), range(3))
        serial_draws(2, (1,), range(3))
    assert hashed == [(2, sampling.STREAM_KEYS, range(3))] * 2


def test_each_thread_has_its_own_memo(hashed):
    seen = {}

    def run():
        seen["outside"] = (getattr(sampling._per_thread, "memo", None),
                           getattr(sampling._per_thread, "states", None))
        serial_draws(0, (), range(5))
        with sampling.draw_scope():
            serial_draws(0, (), range(5))
            seen["own"] = sampling._per_thread.memo, sampling._per_thread.states

    with sampling.draw_scope():
        serial_draws(0, (), range(5))
        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        # this thread's memo is untouched, and still serves its draws
        mine = sampling._per_thread.memo, sampling._per_thread.states
        assert seen["outside"] == (None, None)
        assert seen["own"][0] is not mine[0] and seen["own"][1] is not mine[1]
        assert list(mine[0]) == [(0, (), range(5))]
        assert list(mine[1]) == [(0, range(5))]
        serial_draws(0, (), range(5))
        serial_draws(0, (4,), range(5))
    # this scope, the other thread's own draw and its scope
    assert sorted(hashed, key=str) == sorted(
        [(0, sampling.STREAM_KEYS, range(5))] * 2 + [(0, ((),), range(5))], key=str)


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
