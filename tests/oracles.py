"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: plain quadrature,
direct summation, small hand-rolled formulas.  Slow is fine here.
"""

import math

import numpy as np
from scipy.integrate import quad

PI = math.pi


def theta_binet_oracle(t):
    """theta via quadrature of the log-Gamma integral representation."""
    z = 0.25 + 0.5j * t

    def im_arctan(s):
        return np.imag(np.arctan(s / z)) / np.expm1(2 * PI * s)

    binet_im, err = quad(im_arctan, 0, 30, limit=200)
    assert err < 1e-11
    lg_im = np.imag((z - 0.5) * np.log(z) - z) + 2 * binet_im
    return lg_im - 0.5 * t * math.log(PI)


def zeta_em_oracle(t, n_terms=None):
    """Plain scalar Euler-Maclaurin zeta(1/2 + i t)."""
    s = 0.5 + 1j * t
    N = n_terms or int(1.5 * t) + 20
    total = sum(n ** -s for n in range(1, N))
    total += N ** (1 - s) / (s - 1) + 0.5 * N ** -s
    bern = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66]
    prod = s
    for k in range(1, 6):
        total += bern[k - 1] / math.factorial(2 * k) * prod \
            * N ** (-s - (2 * k - 1))
        prod = prod * (s + 2 * k - 1) * (s + 2 * k)
    return total


def ordered_pair_sum_oracle(ordinates, kernel):
    """Sum of ``kernel(g_j - g_k)`` over all ordered pairs (j, k), diagonal
    included: one row of differences at a time, no symmetry or chunking."""
    g = np.asarray(ordinates, dtype=float)
    return math.fsum(float(np.sum(kernel(gj - g))) for gj in g)


def sinh_integral_oracle(v):
    """int_0^inf u/((u^2+v^2) sinh u) du by library quadrature.

    quad's reported error estimate is very conservative here (cross-checked
    splittings agree to ~1e-14); the guard below only catches breakdown.
    """
    v = abs(v)
    pts = sorted({p for p in (v, 2 * v, 10 * v, 1.0, 5.0) if p < 50.0})
    val, err = quad(lambda u: u / ((u * u + v * v) * math.sinh(u)),
                    0, 50, limit=400, epsabs=1e-12, points=pts)
    assert err < 1e-6
    return val
