"""Deterministic seeded sampling helpers.

Samples are complex-Gaussian coordinate vectors, optionally normalized to
the unit sphere of a norm spec.  Independent draws use per-index
generators derived from (seed, index), so results are reproducible and
order-independent no matter how the sample loop is scheduled.
"""

from __future__ import annotations

import numpy as np

from .spaces import NormSpec, norm


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
        if n > 1e-8:  # guards the normalization; rejection is astronomically rare
            return z / n
