"""Deterministic seeded sampling helpers.

Samples are complex-Gaussian coordinate vectors, optionally normalized to
the unit sphere of a norm spec.  Independent draws use per-index
generators derived from (seed, index), so results are reproducible and
order-independent no matter how the sample loop is scheduled.

The sampled audits draw a batch of indices at once (gaussian_draws,
unit_draws): one generator call per index, then stacked arrays, with the
same numbers as complex_gaussian and sample_unit on that index's stream.
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
                   indices: Sequence[int], count: int = 2) -> list[np.ndarray]:
    """The first count complex_gaussian draws of stream (seed, *keys, i)
    for each i in indices, as count arrays of shape (len(indices), dim).

    One standard_normal call per index gives the same numbers as count
    complex_gaussian calls in a row on that stream.
    """
    g = np.array([rng_for(seed, *keys, i).standard_normal(2 * count * dim)
                  for i in indices]).reshape(-1, count, 2, dim)
    z = g[:, :, 0] + 1j * g[:, :, 1]
    return [np.ascontiguousarray(z[:, j]) for j in range(count)]


def unit_draws(spec: NormSpec, seed: int, keys: Sequence[int],
               indices: Sequence[int], count: int = 2) -> list[np.ndarray]:
    """The first count sample_unit draws of stream (seed, *keys, i) for
    each i in indices, stacked as in gaussian_draws.

    An index where a draw falls at or below UNIT_MIN_NORM is drawn again
    with sample_unit, whose redraw shifts the rest of that stream.
    """
    zs = gaussian_draws(spec.dim, seed, keys, indices, count)
    norms = [spec.kernel.norm(z) for z in zs]
    ok = np.logical_and.reduce([n > UNIT_MIN_NORM for n in norms])
    units = [z / np.where(ok, n, 1.0)[:, None] for z, n in zip(zs, norms)]
    for k in np.flatnonzero(~ok):
        rng = rng_for(seed, *keys, indices[k])
        for u in units:
            u[k] = sample_unit(spec, rng)
    return units
