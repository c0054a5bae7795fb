"""The roots-of-unity functional rho_n and its limit rho_inf.

rho_n(x, y) = (2/n) sum_k c_k rho_plus(x, c_k y) over the nth roots of
unity c_k; for n > 2 the squares of the roots sum to zero, which is what
makes rho_n recover the inner product when there is one.  The limit

    rho_inf(x, y) = (1/pi) Integral_0^{2pi} e^{i theta}
                    rho_plus(x, e^{i theta} y) d theta

is computed by the closed form of the spec's kernel.  Periodic
trapezoidal quadrature, which with N equispaced nodes is exactly rho_N,
stays behind force_path= as an independent oracle.  Doubling N reuses
all previously evaluated nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import CLOSED_FORM, QUADRATURE, FunctionalValue, rho_plus_rows
from .errors import NTooSmallError
from .spaces import NormSpec, check_dim, norm, vector

DEFAULT_QUAD_TOL = 1e-7
DEFAULT_N_MAX = 4096


def roots_of_unity(n: int) -> np.ndarray:
    """The nth roots of unity e^{2 pi i k / n}, k = 1..n."""
    k = np.arange(1, n + 1)
    return np.exp(2j * np.pi * k / n)


def root_sum_identity(n: int) -> complex:
    """sum_k c_k^2 over the nth roots of unity, computed by summation.

    Zero for every n > 2; equals 2 at n = 2, which is why rho_n excludes
    that case.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    c = roots_of_unity(n)
    return complex(np.sum(c * c))


def rho_n(spec: NormSpec, x, y, n: int, *,
          force_path: str | None = None) -> FunctionalValue:
    """The finite roots-of-unity sum (2/n) sum_k c_k rho_plus(x, c_k y).

    Requires n > 2: at n = 2 the root squares sum to 2 instead of 0 and
    the functional degenerates to twice the real part.
    """
    n = int(n)
    if n <= 2:
        raise NTooSmallError(f"rho_n requires n > 2, got {n}")
    x = vector(x)
    y = vector(y)
    c = roots_of_unity(n)
    vals, errs, conv, path = rho_plus_rows(spec, x, c[:, None] * y[None, :],
                                           force_path=force_path)
    value = (2.0 / n) * np.sum(c * vals)
    return FunctionalValue(complex(value), (2.0 / n) * float(errs.sum()),
                           path, bool(conv.all()))


def check_quad_tol(tol: float) -> None:
    """Reject a quadrature tolerance that is not a finite number > 0.

    Against NaN or a tol <= 0 no gap ever counts as settled, so the
    quadrature spends its whole node budget; against inf the first
    refinement is flagged converged whatever its error.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"quadrature tol must be finite and > 0, got {tol}")


@dataclass(frozen=True)
class QuadratureTrace:
    """Refinement history of one quadrature evaluation.

    node_counts strictly double; final_gap is the modulus of the last
    estimate minus the second-to-last.
    """

    node_counts: tuple[int, ...]
    estimates: tuple[complex, ...]
    final_gap: float


def quadrature_rho_inf(spec: NormSpec, x, y, *, tol: float = DEFAULT_QUAD_TOL,
                       n_max: int = DEFAULT_N_MAX
                       ) -> tuple[FunctionalValue, QuadratureTrace]:
    """rho_inf by periodic trapezoid rule with node doubling.

    The N-node rule coincides with rho_N; refinement doubles N starting
    from 8, reusing every already-evaluated node, and stops when two
    successive estimates differ by less than tol.  N never exceeds n_max,
    which must allow the first refinement (n_max >= 16); if the next
    doubling would exceed it, the best estimate is returned flagged
    nonconverged.  tol must be finite and > 0.
    """
    check_quad_tol(tol)
    if n_max < 16:
        raise ValueError(f"n_max must be >= 16, got {n_max}")
    x = vector(x)
    y = vector(y)
    check_dim(spec, x)
    check_dim(spec, y)
    nx = norm(spec, x)
    ny = norm(spec, y)
    scale = nx * ny
    if scale == 0.0:
        # forced by homogeneity: rho_inf(a x, b y) = a conj(b) rho_inf(x, y)
        return (FunctionalValue(0j, 0.0, QUADRATURE, True),
                QuadratureTrace((), (), 0.0))
    xu = x / nx
    yu = y / ny

    n = 8
    phases = np.exp(2j * np.pi * np.arange(n) / n)
    vals = rho_plus_rows(spec, xu, phases[:, None] * yu[None, :])[0]
    counts = [n]
    ests = [(2.0 / n) * complex(np.sum(phases * vals))]

    # n_max >= 16, so the first refinement always runs and defines the gap
    while 2 * n <= n_max:
        n2 = 2 * n
        new_phases = np.exp(2j * np.pi * (2 * np.arange(n) + 1) / n2)
        nvals = rho_plus_rows(spec, xu, new_phases[:, None] * yu[None, :])[0]
        phases2 = np.empty(n2, dtype=np.complex128)
        vals2 = np.empty(n2)
        phases2[0::2], phases2[1::2] = phases, new_phases
        vals2[0::2], vals2[1::2] = vals, nvals
        phases, vals, n = phases2, vals2, n2

        counts.append(n)
        ests.append((2.0 / n) * complex(np.sum(phases * vals)))
        gap = abs(ests[-1] - ests[-2])
        if gap < tol:
            break

    fv = FunctionalValue(ests[-1] * scale, float(gap) * scale, QUADRATURE,
                         bool(gap < tol))
    trace = QuadratureTrace(tuple(counts), tuple(e * scale for e in ests),
                            float(gap) * scale)
    return fv, trace


def rho_inf_traced(spec: NormSpec, x, y, *, tol: float = DEFAULT_QUAD_TOL,
                   n_max: int = DEFAULT_N_MAX,
                   force_path: str | None = None
                   ) -> tuple[FunctionalValue, QuadratureTrace | None]:
    """rho_inf with the quadrature trace when that path ran (else None)."""
    x = vector(x)
    y = vector(y)
    check_dim(spec, x)
    check_dim(spec, y)
    path = CLOSED_FORM if force_path is None else force_path
    if path == CLOSED_FORM:  # exact, and 0 when x or y is 0
        v = spec.kernel.rho_inf_pairs(x[None], y[None]).item()
        return FunctionalValue(v, 0.0, CLOSED_FORM, True), None
    if path == QUADRATURE:
        return quadrature_rho_inf(spec, x, y, tol=tol, n_max=n_max)
    raise ValueError(f"unknown path {path!r}")


def rho_inf(spec: NormSpec, x, y, *, tol: float = DEFAULT_QUAD_TOL,
            n_max: int = DEFAULT_N_MAX,
            force_path: str | None = None) -> FunctionalValue:
    """The angular-average functional; see module docstring for the paths."""
    return rho_inf_traced(spec, x, y, tol=tol, n_max=n_max,
                          force_path=force_path)[0]
