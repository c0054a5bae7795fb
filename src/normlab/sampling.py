"""Deterministic seeded sampling helpers.

Samples are complex-Gaussian coordinate vectors, optionally normalized to
the unit sphere of a norm spec.  Independent draws use per-index
generators derived from (seed, index), so results are reproducible and
order-independent no matter how the sample loop is scheduled.

The sampled audits draw a batch of indices at once (gaussian_draws,
unit_draws), with the same numbers as complex_gaussian and sample_unit on
each index's stream.  rng_for stays the definition of a stream.  One
_stream_states call runs numpy's SeedSequence hash on every index of one
or more streams at once and returns, per stream and index, the PCG64
words one LCG step before the seeded state.  Each thread keeps one
PCG64, built on its first draw, whose 32 state bytes it overwrites with
one bytes slice per index; numpy's own step (one random_raw call) then
finishes the seeding, so no index builds a generator, sets a state dict
or multiplies 128-bit ints in Python.  A thread whose numpy keeps the
words where the writer's probe cannot find them draws each index through
rng_for instead: the same numbers, only slower.

The audits' streams are named by their keys (PAIRS_KEY ...), and a report
draws those of STREAM_KEYS.  Inside draw_scope, the first draw of a
(seed, index range) from a STREAM_KEYS stream hashes all of them over
that range in one call, and the later draws of the range read their
states from it; an index list or another key hashes its own stream per
draw, as every draw does outside a scope.  A thread's gaussian_draws
serves each (seed, keys, index range) from the normals it already drew
for it: a stream's standard normals come in one order, so a narrower
request reads a prefix of a wider draw bit for bit, and a wider request
draws again.  The same entry keeps unit_draws' unit rows of each (spec,
count), keyed by the spec object, so a second suite that draws the same
unit pairs reads them instead of normalizing the stream again; a wider
redraw keeps them, since its first 2 count dim normals are unchanged,
and a batch with a redrawn row (sample_unit's guard) keeps none.  The
memo belongs to the scope, holds at most DRAW_MEMO_ENTRIES index ranges
of normals and as many of states, hands out fresh arrays and is gone
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

# most index ranges a draw_scope keeps the normals of, each with its unit
# rows, and the stacked states of, the least recently used going first; a
# report draws 6 streams of each range, and the cap bounds the memo
# whatever the sample count
DRAW_MEMO_ENTRIES = 8

# the keys of the audits' streams: sample i of an audit draws from stream
# (seed, *key, i)
PAIRS_KEY = ()  # the checks' unit pairs and the relation searches
SYMMETRY_KEY = (0,)  # symmetry_defect
BOUNDS_KEY = (1,)  # cs_bound_audit
EQUIVALENCE_KEY = (2,)  # norm_equivalence_constant
OPERATOR_NORM_KEY = (3,)  # the sampled operator-norm estimate of a map
MAP_POINT_KEY = (4,)  # preservation: the points of the isometry defect
MAP_PAIR_KEY = (5,)  # preservation: the pairs of the scale identity
MAP_CONSTRUCT_KEY = (6,)  # preservation: the orthogonal pairs constructed
# the streams a report draws, which a draw_scope hashes together
STREAM_KEYS = (PAIRS_KEY, SYMMETRY_KEY, BOUNDS_KEY, MAP_POINT_KEY,
               MAP_PAIR_KEY, MAP_CONSTRUCT_KEY)


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


def _mixed_pool(entropy: np.ndarray, words: np.ndarray | None) -> np.ndarray:
    """SeedSequence's mix_entropy on each column of a (rows, n) array,
    whose column j holds words[j] entropy words and zeros below them.

    A zero in the pool is hashed as SeedSequence hashes its padding, so
    only the rows past the pool need the word counts; without such rows
    words may be None.
    """
    rows = len(entropy)
    # row r >= 4 is hashed after _POOL_SIZE * r hashmix calls
    needed = 1 + _POOL_SIZE * max(rows, _POOL_SIZE)
    a = (_MIX_CONSTANTS if needed <= len(_MIX_CONSTANTS)
         else _hash_constants(_INIT_A, _MULT_A, needed))
    pool = _hashmix(entropy[:_POOL_SIZE], a[:_POOL_SIZE], a[1:_POOL_SIZE + 1])
    h, mixed = np.empty_like(pool), np.empty_like(pool)
    for src, (xor, mult) in enumerate(_MIX_ROUNDS):
        # in place: h = _hashmix(pool[src], xor, mult), mixed = _mix(pool, h)
        np.bitwise_xor(pool[src], xor, out=h)
        np.multiply(h, mult, out=h)
        np.right_shift(h, _XSHIFT, out=mixed)
        np.bitwise_xor(h, mixed, out=h)
        np.multiply(h, _MIX_MULT_R, out=h)
        np.multiply(pool, _MIX_MULT_L, out=mixed)
        np.subtract(mixed, h, out=mixed)
        np.right_shift(mixed, _XSHIFT, out=h)
        np.bitwise_xor(mixed, h, out=mixed)
        mixed[src] = pool[src]
        pool, mixed = mixed, pool
    for r in range(_POOL_SIZE, rows):
        k = _POOL_SIZE * r
        h = _hashmix(entropy[r], a[k:k + _POOL_SIZE], a[k + 1:k + _POOL_SIZE + 1])
        pool = np.where(r < words, _mix(pool, h), pool)
    return pool


def _stream_states(seed: int, streams: Sequence[Sequence[int]],
                   indices: Sequence[int]) -> np.ndarray:
    """The PCG64 words of rng_for(seed, *keys, i) for each keys in streams
    and each i in indices (each below 2**63), all hashed at once, as a
    (len(streams), len(indices), 4) uint64 array: the low and high words
    of S + inc, then of inc.

    PCG64 seeds the 128-bit words (S, q) of generate_state(4, uint64) as
    inc = 2q + 1 and state = (S + inc) * M + inc (mod 2**128), so S + inc
    and inc are its words one LCG step before the seeded state.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and idx.min() < 0:
        raise ValueError(f"stream seeds, keys and indices must be >= 0, "
                         f"got {int(idx.min())}")
    seed_words = _uint32_words(seed)
    shared = [seed_words + [w for v in keys for w in _uint32_words(v)]
              for keys in streams]
    # entropy[:, k, j] is that of stream k at index j: its shared words,
    # the low and high words of the index, then zeros; an index is one
    # word, or two when it reaches 2**32
    rows = max(max(map(len, shared)) + 2, _POOL_SIZE)
    entropy = np.empty((rows, len(shared), len(idx)), dtype=np.uint32)
    entropy[...] = np.array([words + [0] * (rows - len(words)) for words in shared],
                            dtype=np.uint32).T[:, :, None]
    lo_hi = idx.astype("<u8").view("<u4").reshape(-1, 2).T
    for k, words in enumerate(shared):
        entropy[len(words):len(words) + 2, k] = lo_hi
    # only the rows past the pool read each column's word count
    counts = None
    if rows > _POOL_SIZE:
        counts = np.add.outer([len(words) + 1 for words in shared],
                              idx > _MASK32).reshape(-1)
    pool = _mixed_pool(entropy.reshape(rows, -1), counts)
    # generate_state(4, uint64): little-endian pairs of the 8 hashed words,
    # S_hi, S_lo, q_hi, q_lo; reversed, each pair is low word first
    out = _hashmix(pool, _STATE_XOR, _STATE_MULT)
    u64 = np.ascontiguousarray(out.reshape(8, -1).T, dtype="<u4").view("<u8")
    q, s = u64[:, :1:-1], u64[:, 1::-1]
    states = np.empty((len(u64), 4), dtype=np.uint64)
    pre, inc = states[:, :2], states[:, 2:]
    np.left_shift(q, 1, out=inc)
    inc[:, 0] |= 1
    inc[:, 1] |= q[:, 0] >> 63
    np.add(s, inc, out=pre)
    pre[:, 1] += pre[:, 0] < s[:, 0]  # the carry out of the low word
    return states.reshape(len(shared), len(idx), 4)


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
        # the views do not own their memory; the PCG64 kept beside them does
        self.words = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
        self.word_bytes = memoryview(self.words).cast("B")
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
    back when it closes.  The first draw of a (seed, index range) hashes
    every STREAM_KEYS stream of it at once.  unit_draws keeps each batch's
    unit rows per spec and count beside its normals, so a batch is
    normalized once."""
    outer = getattr(_per_thread, "memo", None), getattr(_per_thread, "states", None)
    _per_thread.memo, _per_thread.states = {}, {}
    try:
        yield
    finally:
        _per_thread.memo, _per_thread.states = outer


def _remember(memo: dict, key, value) -> None:
    """Put value into memo under key as its most recently used entry, the
    least recently used going first past DRAW_MEMO_ENTRIES."""
    if memo.pop(key, None) is None and len(memo) >= DRAW_MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value


def _states(seed: int, keys: tuple[int, ...], indices: Sequence[int]) -> np.ndarray:
    """The _stream_states rows of stream (seed, *keys) at indices.  Inside
    a draw_scope, a STREAM_KEYS stream over an index range reads them from
    one hash of every STREAM_KEYS stream of that range, kept in the scope."""
    kept = getattr(_per_thread, "states", None)
    if kept is None or not isinstance(indices, range) or keys not in STREAM_KEYS:
        return _stream_states(seed, [keys], indices)[0]
    key = (seed, indices)
    states = kept.get(key)
    if states is None:
        states = dict(zip(STREAM_KEYS, _stream_states(seed, STREAM_KEYS, indices)))
    _remember(kept, key, states)
    return states[keys]


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
    target, raw = writer.word_bytes, writer.bit_generator.random_raw
    normal = writer.generator.standard_normal
    states = _states(int(seed), tuple(map(int, keys)), indices)
    words = states.take(writer.order, axis=1).tobytes()
    # each index: write the 32 bytes of the words one step before its
    # seeded state, let random_raw take numpy's LCG step onto it, then draw
    # (the generator never draws 32-bit values, so has_uint32 stays 0)
    for start, row in zip(range(0, len(words), 32), g):
        target[:] = words[start:start + 32]
        raw()
        normal(out=row)
    return g


def _normals(seed: int, keys: Sequence[int], indices: Sequence[int],
             width: int) -> tuple[np.ndarray, dict | None]:
    """_draw_normals, or at least its width columns, and the dict of unit
    rows kept with them: inside a draw_scope an index range is served from
    the widest draw of it so far, with its memo entry's dict; outside one
    the dict is None.  The normals may be the memo's own array, so the
    caller only reads them."""
    memo = getattr(_per_thread, "memo", None)
    if memo is None or not isinstance(indices, range):
        return _draw_normals(seed, keys, indices, width), None
    key = (int(seed), tuple(map(int, keys)), indices)
    g, units = memo.get(key, (None, {}))
    if g is None or g.shape[1] < width:
        # a wider draw keeps the unit rows: its first columns are unchanged
        g = _draw_normals(seed, keys, indices, width)
    _remember(memo, key, (g, units))
    return g, units


def _complex_draws(g: np.ndarray, count: int, dim: int) -> list[np.ndarray]:
    """The first count complex_gaussian draws of each row of normals."""
    z = g[:, :2 * count * dim].reshape(-1, count, 2, dim)
    z = z[:, :, 0] + 1j * z[:, :, 1]
    return [np.ascontiguousarray(z[:, j]) for j in range(count)]


def _extra_normals(g: np.ndarray, width: int, extra: int) -> list[np.ndarray]:
    """The extra normals after the first width of each row, as a new
    array, or no array when extra is 0."""
    # a copy: on one row the slice is contiguous already, and
    # ascontiguousarray would return a view of g
    return [g[:, width:width + extra].copy()] if extra else []


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
    g, _ = _normals(seed, keys, indices, width + extra)
    return _complex_draws(g, count, dim) + _extra_normals(g, width, extra)


def unit_draws(spec: NormSpec, seed: int, keys: Sequence[int],
               indices: Sequence[int], count: int = 2,
               extra: int = 0) -> list[np.ndarray]:
    """The first count sample_unit draws of stream (seed, *keys, i) for
    each i in indices, and the extra standard normals drawn after them,
    stacked as in gaussian_draws.  Every array is new.

    An index where a draw falls at or below UNIT_MIN_NORM is drawn again
    with sample_unit, whose redraw shifts the rest of that stream, its
    extra normals included.  Inside a draw_scope the unit rows of a batch
    with no redrawn index are kept for the next call with the same spec
    and count.
    """
    width = 2 * count * spec.dim
    g, kept = _normals(seed, keys, indices, width + extra)
    units = None if kept is None else kept.get((spec, count))
    if units is not None:
        return [u.copy() for u in units] + _extra_normals(g, width, extra)
    zs = _complex_draws(g, count, spec.dim)
    norms = [spec.kernel.norm(z) for z in zs]
    ok = np.logical_and.reduce([n > UNIT_MIN_NORM for n in norms])
    units = [z / np.where(ok, n, 1.0)[:, None] for z, n in zip(zs, norms)]
    extras = _extra_normals(g, width, extra)
    for k in np.flatnonzero(~ok):
        rng = rng_for(seed, *keys, indices[k])
        for u in units:
            u[k] = sample_unit(spec, rng)
        for e in extras:
            e[k] = rng.standard_normal(extra)
    if kept is not None and ok.all():
        kept[spec, count] = [u.copy() for u in units]
    return units + extras
