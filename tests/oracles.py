"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths: plain quadrature,
direct summation, small hand-rolled formulas.  Slow is fine here.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial.chebyshev import chebvander
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


def chebyshev_nodes(p):
    """The p Chebyshev nodes of the first kind in [-1, 1]."""
    return np.cos((2.0 * np.arange(p) + 1.0) * PI / (2.0 * p))


def node_interpolant_l2p(xi, u, omega, values):
    """L2P through the node interpolant: e^(i omega u) times the degree
    p - 1 interpolant, at xi in [-1, 1], of ``values`` at the p
    :func:`chebyshev_nodes`, one row of values per point.  The weight of
    node n at x is sum_k c_k T_k(x) T_k(node n), c_0 = 1/p, c_k = 2/p."""
    p = values.shape[1]
    c = np.full(p, 2.0 / p)
    c[0] = 1.0 / p
    weights = (chebvander(xi, p - 1) * c) @ chebvander(chebyshev_nodes(p),
                                                       p - 1).T
    return np.exp(1j * omega * u) * np.einsum("ip,ip->i", weights, values)


def sinh_integral_oracle(v):
    """int_0^inf u/((u^2+v^2) sinh u) du by 30-digit mpmath quadrature of
    the definition, split at the integrand's scales |v| and u ~ 1."""
    with mpmath.workdps(30):
        v = abs(mpmath.mpf(v))
        pts = sorted({v, 2 * v, 10 * v, mpmath.mpf(1), mpmath.mpf(5)})
        val = mpmath.quad(lambda u: u / ((u * u + v * v) * mpmath.sinh(u)),
                          [0] + pts + [mpmath.inf])
        return float(val)


_G_MEMO = {}


def _g_and_derivatives(u):
    """g(u) = 1/(2u) - (pi^2/2) cot(pi^2 u) and its first two derivatives
    in mpmath: the Taylor series from mpmath's own Bernoulli numbers below
    u = 0.05 (the cotangent form cancels there), the cotangent form above.
    Memoized, since every transform below samples the same nodes."""
    if u not in _G_MEMO:
        pi = mpmath.pi
        if u < mpmath.mpf("0.05"):
            # 20 terms: the ratio (pi u)^2 < 0.025 leaves 1e-32
            coef = [2 ** (2 * n - 1) * abs(mpmath.bernoulli(2 * n))
                    * pi ** (4 * n) / mpmath.factorial(2 * n)
                    for n in range(1, 21)]
            g = sum(c * u ** (2 * n - 1) for n, c in enumerate(coef, 1))
            g1 = sum((2 * n - 1) * c * u ** (2 * n - 2)
                     for n, c in enumerate(coef, 1))
            g2 = sum((2 * n - 1) * (2 * n - 2) * c * u ** (2 * n - 3)
                     for n, c in enumerate(coef, 1) if n > 1)
        else:
            s = mpmath.sin(pi * pi * u)
            g = 1 / (2 * u) - pi * pi / 2 * mpmath.cot(pi * pi * u)
            g1 = -1 / (2 * u * u) + pi ** 4 / (2 * s * s)
            g2 = 1 / u ** 3 - pi ** 6 * mpmath.cos(pi * pi * u) / s ** 3
        _G_MEMO[u] = (g, g1, g2)
    return _G_MEMO[u]


def tail_cos_oracle(y, n):
    """int_b^inf cos(2 pi y u)/u^n du, b = 1/(2 pi), n = 2 or 4, through
    the sine integral (n = 4 by two integrations by parts down to n = 2);
    call at a working precision that absorbs its (2 pi y)^(n-1)-fold
    cancellation."""
    pi = mpmath.pi
    b = 1 / (2 * pi)
    a = 2 * pi * mpmath.mpf(y)
    t2 = mpmath.cos(a * b) / b - a * (pi / 2 - mpmath.si(a * b))
    if n == 2:
        return t2
    iu3 = mpmath.sin(a * b) / (2 * b * b) + a * t2 / 2
    return mpmath.cos(a * b) / (3 * b ** 3) - a / 3 * iu3


def kernel_transforms_oracle(y):
    """(khat(y), transform of k'' at y) at 30 digits: mpmath.quad of the
    finite piece over [0, 1/(2 pi)] in 20 pieces, plus the sine-integral
    tails beyond it."""
    with mpmath.workdps(30):
        a = 2 * mpmath.pi * mpmath.mpf(y)
        pts = mpmath.linspace(0, 1 / (2 * mpmath.pi), 21)

        def kpp(u):
            g, g1, g2 = _g_and_derivatives(u)
            return 2 * (g1 * g1 + g * g2)

        fin_k = mpmath.quad(
            lambda u: _g_and_derivatives(u)[0] ** 2 * mpmath.cos(a * u), pts)
        fin_p = mpmath.quad(lambda u: kpp(u) * mpmath.cos(a * u), pts)
        return (float(2 * fin_k + tail_cos_oracle(y, 2) / 2),
                float(2 * fin_p + 3 * tail_cos_oracle(y, 4)))


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


def gh_gap_pass_oracle(zeros, T, x, prime_table):
    """(G, H) as the report's pass over the zero gaps of [1, T] gave them
    before their closed forms: the package's gap rule on D^2 and then on
    S*D, D the Dirichlet polynomial at each node, with panels no wider
    than D's phase allows.  The replaced algorithm, kept as the reference
    it was checked against."""
    from szeta.quadrature import gap_rule
    from szeta.s_of_t import _dirichlet_coeffs, _s_between_zeros
    coef, logn = _dirichlet_coeffs(x, prime_table)[:2]
    g = zeros.ordinates
    edges = np.concatenate(([1.0], g[(g > 1.0) & (g < T)], [T]))
    omega = float(np.max(logn))

    def dirichlet(t):
        return np.sin(np.outer(t, logn)) @ coef

    d2, _ = gap_rule(lambda t: dirichlet(t) ** 2, edges, omega)
    sd, _ = gap_rule(lambda t: _s_between_zeros(t, zeros) * dirichlet(t),
                     edges, omega)
    return d2 / PI ** 2, sd * 2.0 / PI


def theta_series_oracle(t):
    """The four-term asymptotic theta series, each term c_n t^(1-2n) from its
    own power and added in series order, c_n = (1 - 2^(1-2n)) |B_2n| /
    (4n (2n-1)) with mpmath's Bernoulli numbers."""
    t = np.asarray(t, dtype=float)
    val = 0.5 * t * np.log(t / (2 * PI)) - 0.5 * t - PI / 8.0
    for n in range(1, 5):
        c = float((1 - mpmath.mpf(2) ** (1 - 2 * n))
                  * abs(mpmath.bernoulli(2 * n)) / (4 * n * (2 * n - 1)))
        val = val + c * t ** (1 - 2 * n)
    return val


def prime_power_double_sum_oracle(coeff, p_cutoff, m_cutoff):
    """sum_{m=2}^{m_cutoff} sum_{p <= p_cutoff} coeff(m) p^-m, every order
    over every prime: a plain sieve, then one exactly rounded sum
    (math.fsum) per order."""
    flags = np.ones(p_cutoff + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(p_cutoff) + 1):
        if flags[p]:
            flags[p * p::p] = False
    p = np.flatnonzero(flags).astype(float)
    return math.fsum(coeff(m) * math.fsum(p ** -m)
                     for m in range(2, m_cutoff + 1))


def zeros_text_oracle(text):
    """The ordinates of a zeros text, or ``(line number, message)`` of the
    first line refused: all lines listed at once by ``str.splitlines``,
    each stripped; blank and '#' lines skipped, every other one a Python
    float, each greater than the one before."""
    values = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            val = float(line)
        except ValueError:
            return i, f"line {i}: not a decimal: {line!r}"
        if values and val <= values[-1]:
            return i, f"line {i}: ordinate {val!r} not increasing"
        values.append(val)
    return values
