"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: plain quadrature,
direct summation, small hand-rolled formulas.  Slow is fine here.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import loggamma

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
    included: one row of differences at a time, no symmetry, tree or far
    field.  A kernel returning a stack of rows (one per sum) gives the
    vector of those sums."""
    g = np.asarray(ordinates, dtype=float)
    rows = np.array([np.sum(kernel(gj - g), axis=-1) for gj in g])
    if rows.ndim == 1:
        return math.fsum(rows)
    return np.array([math.fsum(col) for col in rows.T])


def sinh_integral_oracle(v):
    """int_0^inf u/((u^2+v^2) sinh u) du by 30-digit mpmath quadrature of
    the definition, split at the integrand's scales |v| and u ~ 1."""
    with mpmath.workdps(30):
        v = abs(mpmath.mpf(v))
        pts = sorted({v, 2 * v, 10 * v, mpmath.mpf(1), mpmath.mpf(5)})
        val = mpmath.quad(lambda u: u / ((u * u + v * v) * mpmath.sinh(u)),
                          [0] + pts + [mpmath.inf])
        return float(val)


def gap_integral_oracle(kernel, ordinates, a, b):
    """int_a^b kernel(t, S(t)) dt by library quadrature, one call per zero
    gap, with S = count - 1 - theta/pi, the count fixed on each gap and theta
    from the complex log-Gamma at every t (no asymptotic series)."""
    g = np.asarray(ordinates, dtype=float)
    edges = np.concatenate(([a], g[(g > a) & (g < b)], [b]))
    count = int(np.searchsorted(g, a, "right"))
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        def f(t, count=count):
            theta = np.imag(loggamma(0.25 + 0.5j * t)) \
                - 0.5 * t * math.log(PI)
            return kernel(t, count - 1.0 - theta / PI)
        val, err = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert err < 1e-11
        parts.append(val)
        count += 1
    return math.fsum(parts)
