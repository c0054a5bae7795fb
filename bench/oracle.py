"""Independent reference for rho_inf on max-modulus norms.

For N(x) = max_j |f_j x| (lp with p = inf is the case F = I) the right
derivative is

    rho_plus(x, y) = N(x) max_{j in A(x)} Re(conj(u_j) f_j y),

where A(x) is the set of functionals attaining the maximum and u_j is the
phase of f_j x.  Along y -> e^{i theta} y the integrand of rho_inf is
therefore the upper envelope of a few sinusoids Re(c_j e^{i theta}), with
c_j = conj(u_j) f_j y.  Two of them cross at theta = -arg(c_j - c_k) +- pi/2;
between crossings one sinusoid is on top and e^{i theta} Re(c e^{i theta})
integrates in closed form.  The result is exact up to rounding, and it
shares no code with normlab's quadrature or numeric limit.
"""

from __future__ import annotations

import math

import numpy as np

# A(x) collects the functionals within this relative distance of the
# maximal modulus.  The benchmark builds its ties from unit-modulus phases
# or 3x3 solves, which agree to a few ulps; Gaussian draws never come this
# close to a tie.
TIE_RTOL = 1e-12

# Bound on the reference's own rounding error, relative to N(x) N(y).  The
# sum runs over at most a few dozen pieces of size <= N(x) N(y) each.
ORACLE_RTOL = 1e-12

TWO_PI = 2.0 * math.pi


def _piece(c: complex, a: float, b: float) -> complex:
    """Integral of e^{it} Re(c e^{it}) over [a, b]."""
    rot = (np.exp(2j * b) - np.exp(2j * a)) / 2j
    return 0.5 * c * rot + 0.5 * c.conjugate() * (b - a)


def max_modulus_rho_inf(functionals: np.ndarray, x: np.ndarray,
                        y: np.ndarray) -> tuple[complex, float]:
    """rho_inf(x, y) for N(v) = max_j |f_j v|, with its error bound.

    functionals holds the rows f_j.  Returns (value, abs_error).
    """
    fx = functionals @ x
    fy = functionals @ y
    mod = np.abs(fx)
    nx = float(mod.max())
    ny = float(np.abs(fy).max())
    if nx == 0.0 or ny == 0.0:
        return 0j, 0.0
    active = mod >= nx * (1.0 - TIE_RTOL)
    c = (fx[active] / mod[active]).conj() * fy[active]

    cuts = [0.0, TWO_PI]
    for j in range(c.size):
        for k in range(j + 1, c.size):
            d = c[j] - c[k]
            if d != 0:
                base = -math.atan2(d.imag, d.real)
                cuts += [(base + math.pi / 2) % TWO_PI,
                         (base - math.pi / 2) % TWO_PI]
    cuts = np.unique(cuts)

    total = 0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 0.0:
            continue
        mid = 0.5 * (a + b)
        top = c[int(np.argmax((c * np.exp(1j * mid)).real))]
        total += _piece(complex(top), float(a), float(b))
    return nx * total / math.pi, ORACLE_RTOL * nx * ny
