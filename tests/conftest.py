import numpy as np
import pytest

import normlab as nl

# six functionals on C^3, the polyhedral norm of the tie tests
POLY_ROWS = np.array([
    [1.0, 0.3, 0.0],
    [0.0, 1.0, 0.3j],
    [0.3, 0.0, 1.0],
    [0.5 + 0.5j, -0.5, 0.4],
    [0.2, 0.6j, -0.6],
    [-0.4j, 0.3, 0.5 + 0.3j],
])

# each relation's own verdict function, beside nl.perp(spec, relation, ...)
VERDICTS = {nl.RHO_INF: nl.perp_rho_inf, nl.RHO_PLUS: nl.perp_rho_plus,
            nl.BIRKHOFF_JAMES: nl.perp_birkhoff_james, nl.SEMI: nl.perp_semi}


def gaussian_pair(rng, dim):
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x, y


def unit_pair(spec, rng):
    x, y = gaussian_pair(rng, spec.dim)
    return x / nl.norm(spec, x), y / nl.norm(spec, y)


def random_pd_gram(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a.conj().T @ a + 0.5 * np.eye(dim)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def family_specs(dim=3):
    """One spec per family, at the given dimension."""
    rng = np.random.default_rng(99)
    f = rng.standard_normal((dim + 1, dim)) + 1j * rng.standard_normal((dim + 1, dim))
    return [
        nl.lp(1, dim),
        nl.lp(2.5, dim),
        nl.lp(np.inf, dim),
        nl.weighted_l1(rng.uniform(0.5, 2.0, dim)),
        nl.pd_inner(random_pd_gram(rng, dim)),
        nl.polyhedral(f),
    ]
