"""Deterministic seeded sampling helpers.

Samples are complex-Gaussian coordinate vectors, optionally normalized to
the unit sphere of a norm spec.  Independent draws use per-index
generators derived from (seed, index), so results are reproducible and
order-independent no matter how the sample loop is scheduled.

The sampled audits draw a batch of indices at once (gaussian_draws,
unit_draws), with the same numbers as complex_gaussian and sample_unit on
each index's stream.  rng_for stays the definition of a stream.  The
batch runs numpy's SeedSequence hash on every index at once and returns,
per index, the PCG64 words one LCG step before the seeded state
(_stream_states).  Each thread keeps one PCG64, built on its first draw,
whose state words it writes in place; numpy's own step (one random_raw
call) then finishes the seeding, so no index builds a generator, sets a
state dict or multiplies 128-bit ints in Python.  A thread whose numpy
keeps the words where the writer's probe cannot find them draws each index
through rng_for instead: the same numbers, only slower.

A report runs several suites on the same streams.  Inside draw_scope, a
thread's gaussian_draws serves each (seed, keys, index range) from the
normals it already drew for it: a stream's standard normals come in one
order, so a narrower request reads a prefix of a wider draw bit for bit,
and a wider request draws again.  The memo belongs to the scope, holds at
most DRAW_MEMO_ENTRIES index ranges, hands out fresh arrays and is gone
when the scope closes; outside any scope nothing is kept.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from .spaces import NormSpec, norm

# sample_unit redraws a vector of norm at most this; it guards the
# normalization, and a Gaussian draw is astronomically unlikely to hit it
UNIT_MIN_NORM = 1e-8

# most indices one batch of a sampled audit evaluates at once; bounds the
# memory of a batch, which otherwise grows with the sample count
BATCH_ROWS = 1024

# most index ranges a draw_scope keeps, the least recently used going
# first; a report draws 6, and the cap bounds the memo whatever the
# sample count
DRAW_MEMO_ENTRIES = 8


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding:
# a pool of 4 uint32 words; every hashmix call XORs with the next constant
# of its sequence and multiplies by the one after it
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count, as a (count, 1) column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _round_constants(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The XOR and multiplier columns of the 4 pool-mixing rounds: round
    src hashes pool word src with 3 consecutive constants, one for each
    other word in order (the src row of the columns is never used)."""
    rounds = []
    for src in range(_POOL_SIZE):
        k = _POOL_SIZE + (_POOL_SIZE - 1) * src
        rows = [d for d in range(_POOL_SIZE) if d != src]
        xor = np.zeros((_POOL_SIZE, 1), dtype=np.uint32)
        mult = np.zeros((_POOL_SIZE, 1), dtype=np.uint32)
        xor[rows] = a[k:k + _POOL_SIZE - 1]
        mult[rows] = a[k + 1:k + _POOL_SIZE]
        rounds.append((xor, mult))
    return rounds


# the pool takes 4 + 12 hashmix calls and 4 more per entropy word past
# the pool: this covers 32 words, longer entropy computes its own
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, 1 + 4 * 32)
_MIX_ROUNDS = _round_constants(_MIX_CONSTANTS)
# generate_state(4, uint64) hashes 8 words, cycling twice through the pool
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 9)
_STATE_XOR = _STATE_CONSTANTS[:8].reshape(2, _POOL_SIZE, 1)
_STATE_MULT = _STATE_CONSTANTS[1:].reshape(2, _POOL_SIZE, 1)


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of an int."""
    value = int(value)
    if value < 0:
        raise ValueError(f"stream seeds, keys and indices must be >= 0, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ r >> _XSHIFT


def _mixed_pool(entropy: np.ndarray, words: np.ndarray) -> np.ndarray:
    """SeedSequence's mix_entropy on each column of a (rows, n) array,
    whose column j holds words[j] entropy words and zeros below them.

    A zero in the pool is hashed as SeedSequence hashes its padding, so
    only the rows past the pool need the word counts.
    """
    rows = len(entropy)
    # row r >= 4 is hashed after _POOL_SIZE * r hashmix calls
    needed = 1 + _POOL_SIZE * max(rows, _POOL_SIZE)
    a = (_MIX_CONSTANTS if needed <= len(_MIX_CONSTANTS)
         else _hash_constants(_INIT_A, _MULT_A, needed))
    pool = _hashmix(entropy[:_POOL_SIZE], a[:_POOL_SIZE], a[1:_POOL_SIZE + 1])
    for src, (xor, mult) in enumerate(_MIX_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    for r in range(_POOL_SIZE, rows):
        k = _POOL_SIZE * r
        h = _hashmix(entropy[r], a[k:k + _POOL_SIZE], a[k + 1:k + _POOL_SIZE + 1])
        pool = np.where(r < words, _mix(pool, h), pool)
    return pool


def _stream_states(seed: int, keys: Sequence[int],
                   indices: Sequence[int]) -> np.ndarray:
    """The PCG64 words of rng_for(seed, *keys, i) for each i in indices
    (each below 2**63), computed for all indices at once, as an (n, 4)
    uint64 array: the low and high words of S + inc, then of inc.

    PCG64 seeds the 128-bit words (S, q) of generate_state(4, uint64) as
    inc = 2q + 1 and state = (S + inc) * M + inc (mod 2**128), so S + inc
    and inc are its words one LCG step before the seeded state.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and idx.min() < 0:
        raise ValueError(f"stream seeds, keys and indices must be >= 0, "
                         f"got {int(idx.min())}")
    shared = [w for v in (seed, *keys) for w in _uint32_words(v)]
    m = len(shared)
    # an index is one word, or two when it reaches 2**32
    entropy = np.zeros((max(m + 2, _POOL_SIZE), len(idx)), dtype=np.uint32)
    entropy[:m] = np.array(shared, dtype=np.uint32)[:, None]
    entropy[m] = idx & _MASK32
    entropy[m + 1] = idx >> 32
    pool = _mixed_pool(entropy, m + 1 + (idx > _MASK32))
    # generate_state(4, uint64): little-endian pairs of the 8 hashed words,
    # S_hi, S_lo, q_hi, q_lo; reversed, each pair is low word first
    out = _hashmix(pool, _STATE_XOR, _STATE_MULT)
    u64 = np.ascontiguousarray(out.reshape(8, -1).T, dtype="<u4").view("<u8")
    q, s = u64[:, :1:-1], u64[:, 1::-1]
    words = np.empty((len(idx), 4), dtype=np.uint64)
    pre, inc = words[:, :2], words[:, 2:]
    np.left_shift(q, 1, out=inc)
    inc[:, 0] |= 1
    inc[:, 1] |= q[:, 0] >> 63
    np.add(s, inc, out=pre)
    pre[:, 1] += pre[:, 0] < s[:, 0]  # the carry out of the low word
    return words


# the orders numpy may keep the 4 words of _stream_states in, as the word
# in each slot of its state struct: a __uint128_t is stored low word
# first (on a little-endian machine), the struct that emulates one high
# word first
_WORD_ORDERS = ([0, 1, 2, 3], [1, 0, 3, 2])
# the known words the probe writes, in _stream_states order (inc is odd)
_PROBE_WORDS = np.array([0x0011223344556677, 0x0123456789ABCDEF,
                         0x0F1E2D3C4B5A6979, 0x8899AABBCCDDEEFF], dtype=np.uint64)


def _pcg_words(state: dict) -> np.ndarray:
    """The state and inc of a PCG64 state dict as 4 words in
    _stream_states order."""
    pcg = state["state"]
    return np.array([v >> shift & 0xFFFFFFFFFFFFFFFF
                     for v in (pcg["state"], pcg["inc"]) for shift in (0, 64)],
                    dtype=np.uint64)


class _StreamWriter:
    """One PCG64 and a view of its 4 state words.

    bit_generator.ctypes.state_address is numpy's pcg64_state, whose first
    field points to the state struct inside the PCG64 object.  A probe
    fixes the word order once: the view must lie inside the object and
    hold the current state in one of _WORD_ORDERS, and known words written
    in that order must read back through the bit_generator.state getter.
    Anything else raises RuntimeError, and the thread draws through
    rng_for instead (see _stream_writer).
    """

    def __init__(self):
        # its seed 0 is never drawn from: each index writes the state first
        self.bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(self.bit_generator)
        start = id(self.bit_generator)
        address = ctypes.c_void_p.from_address(
            self.bit_generator.ctypes.state_address).value
        if not (address and start <= address
                and address + 32 <= start + sys.getsizeof(self.bit_generator)):
            raise RuntimeError("the PCG64 state words are not inside the bit "
                               "generator: this numpy's layout is not supported")
        # the view does not own its memory; the PCG64 kept beside it does
        self.words = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
        self.order = self._probe()

    def _probe(self) -> np.ndarray:
        """The word order of _WORD_ORDERS that round-trips."""
        current = _pcg_words(self.bit_generator.state)
        for order in _WORD_ORDERS:
            if (self.words == current[order]).all():
                self.words[:] = _PROBE_WORDS[order]
                if (_pcg_words(self.bit_generator.state) == _PROBE_WORDS).all():
                    return np.array(order)
                break
        raise RuntimeError("the PCG64 state words do not read back through "
                           "bit_generator.state in any known word order")


_per_thread = threading.local()


def _stream_writer() -> _StreamWriter | None:
    """This thread's _StreamWriter, built on its first draw, or None for
    good where this numpy's layout fails its probe."""
    try:
        return _per_thread.writer
    except AttributeError:
        try:
            _per_thread.writer = _StreamWriter()
        except RuntimeError:
            _per_thread.writer = None
        return _per_thread.writer


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """The generator of stream (seed, *keys), e.g. (seed, index)."""
    return np.random.default_rng((int(seed), *map(int, keys)))


def complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def sample_unit(spec: NormSpec, rng: np.random.Generator) -> np.ndarray:
    """A draw on the unit sphere of the spec's norm."""
    while True:
        z = complex_gaussian(rng, spec.dim)
        n = norm(spec, z)
        if n > UNIT_MIN_NORM:
            return z / n


def index_batches(samples: int, doubling: bool = False) -> Iterator[range]:
    """Consecutive ranges covering range(samples), at most BATCH_ROWS long.

    With doubling they hold 1, 2, 4, ... indices, for a search that stops
    at its first witnesses: it evaluates at most about twice the indices
    up to the one it stops at.
    """
    start = 0
    size = 1 if doubling else BATCH_ROWS
    while start < samples:
        stop = min(samples, start + size)
        yield range(start, stop)
        start = stop
        size = min(2 * size, BATCH_ROWS)


@contextmanager
def draw_scope():
    """Share this thread's draws within the with block (see the module
    docstring); a nested scope starts empty, and the outer one's memo is
    back when it closes."""
    outer = getattr(_per_thread, "memo", None)
    _per_thread.memo = {}
    try:
        yield
    finally:
        _per_thread.memo = outer


def _draw_normals(seed: int, keys: Sequence[int], indices: Sequence[int],
                  width: int) -> np.ndarray:
    """The first width standard normals of stream (seed, *keys, i) for
    each i in indices, as a (len(indices), width) array; where the thread
    has no _StreamWriter, each index builds its generator with rng_for,
    the same numbers, only slower."""
    writer = _stream_writer()
    g = np.empty((len(indices), width))
    if writer is None:
        for row, i in zip(g, indices):
            row[:] = rng_for(seed, *keys, i).standard_normal(width)
        return g
    view, raw = writer.words, writer.bit_generator.random_raw
    normal = writer.generator.standard_normal
    # each index: write the words one step before its seeded state, let
    # random_raw take numpy's LCG step onto it, then draw (the generator
    # never draws 32-bit values, so has_uint32 stays 0)
    for row, words in zip(g, _stream_states(seed, keys, indices)[:, writer.order]):
        view[:] = words
        raw()
        normal(out=row)
    return g


def _normals(seed: int, keys: Sequence[int], indices: Sequence[int],
             width: int) -> np.ndarray:
    """_draw_normals, or at least its width columns: inside a draw_scope
    an index range is served from the widest draw of it so far.  The
    result may be the memo's own array, so the caller only reads it."""
    memo = getattr(_per_thread, "memo", None)
    if memo is None or not isinstance(indices, range):
        return _draw_normals(seed, keys, indices, width)
    key = (int(seed), tuple(map(int, keys)), indices)
    g = memo.pop(key, None)
    if g is None or g.shape[1] < width:
        g = _draw_normals(seed, keys, indices, width)
        if len(memo) >= DRAW_MEMO_ENTRIES:
            del memo[next(iter(memo))]
    memo[key] = g  # the most recently used is last
    return g


def gaussian_draws(dim: int, seed: int, keys: Sequence[int],
                   indices: Sequence[int], count: int = 2,
                   extra: int = 0) -> list[np.ndarray]:
    """The first count complex_gaussian draws of stream (seed, *keys, i)
    for each i in indices, as count arrays of shape (len(indices), dim),
    followed, when extra > 0, by the next extra standard normals of each
    stream as one (len(indices), extra) array.  Every array is new.

    One standard_normal call per index gives the same numbers as count
    complex_gaussian calls and then standard_normal(extra) on that stream.
    """
    width = 2 * count * dim
    g = _normals(seed, keys, indices, width + extra)
    z = g[:, :width].reshape(-1, count, 2, dim)
    z = z[:, :, 0] + 1j * z[:, :, 1]
    draws = [np.ascontiguousarray(z[:, j]) for j in range(count)]
    if extra:
        # a copy: on one row the slice is contiguous already, and
        # ascontiguousarray would return a view of g
        draws.append(g[:, width:width + extra].copy())
    return draws


def unit_draws(spec: NormSpec, seed: int, keys: Sequence[int],
               indices: Sequence[int], count: int = 2,
               extra: int = 0) -> list[np.ndarray]:
    """The first count sample_unit draws of stream (seed, *keys, i) for
    each i in indices, and the extra standard normals drawn after them,
    stacked as in gaussian_draws.

    An index where a draw falls at or below UNIT_MIN_NORM is drawn again
    with sample_unit, whose redraw shifts the rest of that stream, its
    extra normals included.
    """
    drawn = gaussian_draws(spec.dim, seed, keys, indices, count, extra)
    zs, extras = drawn[:count], drawn[count:]
    norms = [spec.kernel.norm(z) for z in zs]
    ok = np.logical_and.reduce([n > UNIT_MIN_NORM for n in norms])
    units = [z / np.where(ok, n, 1.0)[:, None] for z, n in zip(zs, norms)]
    for k in np.flatnonzero(~ok):
        rng = rng_for(seed, *keys, indices[k])
        for u in units:
            u[k] = sample_unit(spec, rng)
        for e in extras:
            e[k] = rng.standard_normal(extra)
    return units + extras
