"""Deterministic seeded sampling helpers.

Samples are complex-Gaussian coordinate vectors, optionally normalized to
the unit sphere of a norm spec.  Independent draws use per-index
generators derived from (seed, index), so results are reproducible and
order-independent no matter how the sample loop is scheduled.

The sampled audits draw a batch of indices at once (gaussian_draws,
unit_draws), with the same numbers as complex_gaussian and sample_unit on
each index's stream.  rng_for stays the definition of a stream: the batch
runs numpy's SeedSequence hash on every index at once (_stream_states)
and sets one local PCG64 to each index's state in turn, instead of
seeding one generator per index.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .spaces import NormSpec, norm

# sample_unit redraws a vector of norm at most this; it guards the
# normalization, and a Gaussian draw is astronomically unlikely to hit it
UNIT_MIN_NORM = 1e-8

# most indices one batch of a sampled audit evaluates at once; bounds the
# memory of a batch, which otherwise grows with the sample count
BATCH_ROWS = 1024


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding:
# a pool of 4 uint32 words; every hashmix call XORs with the next constant
# of its sequence and multiplies by the one after it
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
                   indices: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of rng_for(seed, *keys, i) for each i in
    indices (each below 2**63), computed for all indices at once."""
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
    # generate_state(4, uint64): little-endian pairs of the 8 hashed words
    out = _hashmix(pool, _STATE_XOR, _STATE_MULT)
    u64 = np.ascontiguousarray(out.reshape(8, -1).T, dtype="<u4").view("<u8")
    states = []
    for s_hi, s_lo, q_hi, q_lo in u64.tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


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


def gaussian_draws(dim: int, seed: int, keys: Sequence[int],
                   indices: Sequence[int], count: int = 2,
                   extra: int = 0) -> list[np.ndarray]:
    """The first count complex_gaussian draws of stream (seed, *keys, i)
    for each i in indices, as count arrays of shape (len(indices), dim),
    followed, when extra > 0, by the next extra standard normals of each
    stream as one (len(indices), extra) array.

    One standard_normal call per index gives the same numbers as count
    complex_gaussian calls and then standard_normal(extra) on that stream.
    """
    # its seed 0 is never drawn from: each index sets the state first
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    width = 2 * count * dim
    g = np.empty((len(indices), width + extra))
    for row, (state, inc) in zip(g, _stream_states(seed, keys, indices)):
        pcg["state"], pcg["inc"] = state, inc
        bit_gen.state = full
        gen.standard_normal(out=row)
    z = g[:, :width].reshape(-1, count, 2, dim)
    z = z[:, :, 0] + 1j * z[:, :, 1]
    draws = [np.ascontiguousarray(z[:, j]) for j in range(count)]
    if extra:
        draws.append(np.ascontiguousarray(g[:, width:]))
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
