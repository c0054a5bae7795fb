"""The stacked stream states against numpy's own seeding, bit for bit.

gaussian_draws hashes every index's SeedSequence at once and sets one
PCG64 to each state in turn; rng_for(seed, *keys, i) is the definition of
the stream it must reproduce.  The seeds, keys and indices cover every
entropy layout the hash distinguishes: one- and multi-word seeds, entropy
shorter than the 4-word pool and longer (keys (1, 2, 3, 4, 5)), past the
precomputed hash constants (40 keys), and indices on both sides of 2**32.
"""

import numpy as np
import pytest

from normlab import sampling
from normlab.sampling import _stream_states, gaussian_draws, rng_for

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70 + 5]
KEYS = [(), (3,), (1, 2, 3, 4, 5)]
INDEX_SETS = {
    "single": [11],
    "range": range(5, 37),
    "unsorted": [40, 2, 17, 0, 3, 9],
    "two-word": [7, 2**32 - 1, 2**32, 2**32 + 5],
}


def reference_state(seed, keys, i):
    state = rng_for(seed, *keys, i).bit_generator.state["state"]
    return state["state"], state["inc"]


def check_streams(seed, keys, indices):
    indices = list(indices)
    assert _stream_states(seed, keys, indices) == [
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
    assert _stream_states(1, (2,), []) == []
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
