"""The argument function S(t): exact route, explicit-formula route, moments.

The exact route counts zeros against the smooth term,
``S(t) = N(t) - 1 - theta(t)/pi``, with N given half weight exactly at an
ordinate (midpoint convention).  The explicit-formula route rebuilds S(t)
from a damped prime sum plus a sum over zeros of ``sin((t-gamma) log x)``
times the sinh-kernel integral I(v), and reports an error budget instead
of pretending to exactness: the two O-terms of the formula are carried
with unit effective constants, plus a bound, from the zero density, for
the zeros above the zero file.  Both routes take a number or an array of
t, the exact one at t >= 0 and the explicit one at t > 0, and ask the zero
set whether it reaches t (``ZeroSet.check_count`` and ``check_cover``).
``sinh_integral`` is the one evaluator of I(v): the closed form in a
digamma difference up to v = 60, an asymptotic series in 1/v^2 above.
``sin_sinh_integral`` is sin(v) I(|v|) on top of it.  ``_zero_sum``, over
every ordinate at an array of points, is the one zero sum: a few points
summed at every ordinate, more through the far field of the tree of
:mod:`szeta._tree` (``_zero_field``), which the direct R integral of
:mod:`szeta.paircorr` builds once for all its nodes.  The budget's bound
for the zeros above the file adds to the zero density's integral the
by-parts term of Trudgian's bound on N - N0.

``second_moment`` and ``s_mean`` are k = 2 and k = 1 of one pass for
int S^k over the zero gaps that ``ZeroSet.gap_edges`` lays out.  On each
gap S is the smooth function (constant - theta/pi), so one fixed
Gauss-Kronrod rule per gap (:func:`~szeta.quadrature.gap_rule`) covers
all gaps at once, the head below the first ordinate included.  There
:func:`~szeta.zeros.theta` takes its log-Gamma form below t = 10, which is
singular at t = +-i/2; where that makes the error estimate miss its bound,
the rule halves the head's panels and sums the other gaps only once.  At a
node, S costs one search of the ordinates and one theta.

``g_and_h_direct`` makes no pass over the gaps: G and H are finite sums
over the prime powers, and for H's zero count over the ordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tree import _Tree
from .errors import DomainError
from .kernels import _ABS_BERNOULLI
from .primes import PrimeTable
from .quadrature import gap_rule, integrate
from .zeros import _THETA_COEF, ZeroSet, theta

PI = math.pi


@dataclass(frozen=True)
class SEvaluator:
    """Bundle of the inputs S-evaluation needs: zeros and a prime table
    (which the zero-counting routes never read)."""

    zeros: ZeroSet
    prime_table: PrimeTable | None


def _ends(ta):
    """Least and greatest t (NaN if any t is); no reduction for a 0-d t."""
    if ta.ndim == 0:
        return float(ta), float(ta)
    return ta.min(initial=math.inf), ta.max(initial=-math.inf)


def s_exact(t, ev: SEvaluator):
    """S(t) by zero counting at t >= 0; midpoint convention at ordinates.
    ``t`` is a number (a float back) or an array (an array of the same
    shape)."""
    ta = np.asarray(t, dtype=float)
    lo, hi = _ends(ta)      # inf, -inf if empty
    if not 0.0 <= lo:
        raise DomainError("S(t) needs t >= 0")
    ev.zeros.check_count(hi)
    # a NumPy scalar for a number t, cheaper than an array
    s = _s_between_zeros(ta[()], ev.zeros)
    return float(s) if ta.ndim == 0 else s


# psi(x) = log x - 1/(2x) - sum_k B_2k / (2k x^2k) for x >= 6, reached by
# the recurrence psi(x) = psi(x + 6) - sum_{j<6} 1/(x + j); the ten terms
# leave under 3e-15 there, and their difference between x and x + 1/2
# under 4e-16
_PSI_STEPS = 6
_HALF_STEPS = np.arange(_PSI_STEPS) + 0.5
_PSI_SHIFTS = np.array([_PSI_STEPS + 1.0, _PSI_STEPS + 0.5])
_PSI_ASYM = [float(b) / (2 * k) * (-1) ** (k + 1)
             for k, b in enumerate(_ABS_BERNOULLI, 1)]


def _psi_half_step(z):
    """psi(z + 1) - psi(z + 1/2) for an array of z >= 0, without taking
    two digammas apart: with w = z + 6 + (1, 1/2), the recurrence's terms
    pair up as 1/(2 (z + 1/2 + j)(z + 1 + j)), the logarithms as
    log1p(1/(2 w_2)), -1/(2w) as 1/(4 w_1 w_2), and only the Bernoulli
    series, below 2.3e-3 at w >= 6, is taken at each w and subtracted.
    So the difference, about 1/(2z) for large z, keeps its relative
    accuracy, where two digammas of about log z would lose it."""
    w = z + _PSI_SHIFTS.reshape((2,) + (1,) * z.ndim)
    ix2 = 1.0 / (w * w)
    acc = _PSI_ASYM[-1] * ix2
    for c in reversed(_PSI_ASYM[:-1]):
        acc += c
        acc *= ix2
    out = acc[1]
    out -= acc[0]
    out += np.log1p(0.5 / w[1])
    out += 0.25 / (w[0] * w[1])
    q = z + _HALF_STEPS.reshape((-1,) + (1,) * z.ndim)
    q *= q + 0.5
    np.divide(0.5, q, out=q)
    out += q.sum(axis=0)
    return out


# I(v) ~ sum_k c_k / v^(2k+2) above _SINH_SWITCH, with
# c_k = (-1)^k 2 (1 - 2^(-2k-2)) (2k+1)! zeta(2k+2)
#     = (-1)^k (1 - 2^(-2k-2)) |B_2k+2| (2 pi)^(2k+2) / (2k+2);
# eight terms leave under 1e-14 relative above v = 60, and below it the
# closed form, which loses digits in proportion to v, stays under 1e-14
_SINH_SWITCH = 60.0
_SINH_ASYM = [(-1) ** k * (1.0 - 2.0 ** (-2 * k - 2)) * float(b)
              * (2.0 * PI) ** (2 * k + 2) / (2 * k + 2)
              for k, b in enumerate(_ABS_BERNOULLI[:8])]


def sinh_integral(av):
    """I(v) = int_0^inf u / ((u^2 + v^2) sinh u) du for an array of v > 0.

    Up to ``_SINH_SWITCH`` the closed form I(v) = (pi/v) [1/2 -
    b beta(b+1)] with b = v/pi and beta(s) = [psi((s+1)/2) - psi(s/2)]/2
    (psi = digamma), from the cosine transform (pi^2/4) sech^2(pi s/2) of
    u/sinh u; b beta(b+1) = z (psi(z+1) - psi(z+1/2)) with z = v/(2 pi)
    (:func:`_psi_half_step`).  The bracket, about pi/(4v), loses digits in
    proportion to v, so above the switch the asymptotic series
    sum_k c_k / v^(2k+2) takes over, by Horner's rule in 1/v^2.  Relative
    error below 1e-14 against a 30-digit quadrature of the definition on
    [1e-3, 1e3]."""
    av = np.asarray(av, dtype=float)
    lo = av <= _SINH_SWITCH
    out = np.empty_like(av)
    a = av[lo]
    z = a / (2.0 * PI)
    bracket = _psi_half_step(z)
    bracket *= -z
    bracket += 0.5
    bracket *= PI
    bracket /= a
    out[lo] = bracket
    iv2 = av[~lo]
    iv2 *= iv2
    np.reciprocal(iv2, out=iv2)
    acc = _SINH_ASYM[-1] * iv2
    for c in reversed(_SINH_ASYM[:-1]):
        acc += c
        acc *= iv2
    out[~lo] = acc
    return out


def sin_sinh_integral(v):
    """sin(v) * I(|v|) for array v (:func:`sinh_integral`); the midpoint
    value 0 at v = 0 (the limits are +-pi/2)."""
    v = np.asarray(v, dtype=float)
    if np.count_nonzero(v) == v.size:       # cheaper than v.all()
        return np.sin(v) * sinh_integral(np.abs(v))
    nz = v != 0.0
    out = np.zeros_like(v)
    out[nz] = np.sin(v[nz]) * sinh_integral(np.abs(v[nz]))
    return out


# a call of at most _DENSE points sums every ordinate at every point
_DENSE = 32


def _zero_field(g, logx: float, lo: float, hi: float):
    """t -> sum_gamma sin(v) I(|v|), v = (t - gamma) log x, over every
    ordinate of ``g`` (ascending) at a 1-d array of t in [lo, hi].

    The sum is Im sum_gamma I(|t - gamma| L) e^(i L (t - gamma)), and I is
    smooth and does not oscillate away from t = gamma: the far field of
    :class:`~szeta._tree._Tree` with K = I.  The ordinates' expansions are
    built once, here, as each leaf's Chebyshev coefficients; at each point
    the field then costs L2P (one Clenshaw recurrence) plus the ordinates
    of its leaf and the two next to it, summed by
    :func:`sin_sinh_integral` as the dense sum takes them.
    """
    tree = _Tree.over(g, lo, hi)
    coef = tree.locals(lambda d: sinh_integral(np.abs(d) * logx), logx)

    def field(t):
        s = tree.far_at(t, coef, logx).imag
        for i, j in tree.near_at(t):
            # each point's terms are one run; reduceat sums a run pairwise
            run = np.flatnonzero(np.diff(i, prepend=-1))
            s[i[run]] += np.add.reduceat(
                sin_sinh_integral((t[i] - g[j]) * logx), run)
        return s

    return field


def _zero_sum(t, g, logx: float):
    """sum_gamma sin(v) I(|v|) with v = (t - gamma) log x, for each point
    of the 1-d array t against every ordinate in ``g`` (ascending).

    At most ``_DENSE`` points are summed at every ordinate
    (:func:`sin_sinh_integral`), so each point gets the bits of a call of
    its own; more go through the tree (:func:`_zero_field`).
    """
    if len(t) <= _DENSE:
        return sin_sinh_integral(np.subtract.outer(t, g) * logx).sum(axis=1)
    return _zero_field(g, logx, t.min(), t.max())(t)


# |N(s) - N0(s)| <= 0.112 log s + 0.278 log log s + 2.510 for s >= e,
# N0(s) = (s/2pi) log(s/2pi e) + 7/8 (Trudgian, J. Number Theory 2014)
_TRUDGIAN = (0.112, 0.278, 2.510)


def _zero_tail_bound(t, logx: float, zeros: ZeroSet):
    """Bound for the ordinates beyond the top a of the file, at each t < a,
    on (1/pi) sum_gamma sin(v) I(|v|): I(v) <= pi^2/(4 v^2), so it is at
    most pi/(4 L^2) sum_{gamma > a} f(gamma), f(s) = 1/(s - t)^2.

    By parts, that sum is int_a^inf f dN0 + int_a^inf f dE with E = N - N0:
    the first is the zero density log(s/2pi)/(2pi) integrated in closed
    form, the second at most f(a) B(a) + int_a^inf B |f'| for |E| <= B
    (``_TRUDGIAN``).  On s >= a, B(s) <= c log s + k, the tangent of
    log log s at a taken for it, with c log a + k = B(a); and
    int_a^inf 2 log s/(s - t)^3 ds = log a/d^2 + 1/(t d) - log(a/d)/t^2,
    d = a - t.
    """
    a = zeros.t_max
    d = a - t
    c1, c2, c3 = _TRUDGIAN
    loga = math.log(a)
    b_a = c1 * loga + c2 * math.log(loga) + c3
    c = c1 + c2 / loga
    density = (math.log(a / (2 * PI)) / d + np.log(a / d) / t) / (2 * PI)
    by_parts = 2.0 * b_a / (d * d) \
        + c * (1.0 / (t * d) - np.log(a / d) / (t * t))
    return (density + by_parts) * PI / (4.0 * logx * logx)


def s_explicit(t, x: float, ev: SEvaluator, *, table=None):
    """Explicit-formula S(t); returns ``(value, error_budget)``: floats for
    a number t, arrays of its shape for an array.

    value = -(1/pi) sum_{n<=x} Lambda(n) n^(-1/2) sin(t log n)/log n
                 * f(log n / log x)
            + (1/pi) sum_gamma sin((t-gamma) log x) * I((t-gamma) log x)

    The prime sum reads the table at any x it serves
    (:meth:`~szeta.primes.PrimeTable.prime_powers`), the zero sum every
    ordinate (:func:`_zero_sum`); the file must cover t + 50/log x, and
    t > 0, where the budget's 1/t terms are finite.  error_budget stacks
    the formula's two O-terms with unit constants (reported, never
    asserted) and the bound for the ordinates beyond the file.  ``table`` is ignored; it is accepted only
    because the benchmark harness still passes it.
    """
    _, _, logn, _, coef = ev.prime_table.prime_powers(x)
    ta = np.asarray(t, dtype=float)
    logx = math.log(x)
    lo, hi = _ends(ta)
    if not lo > 0.0:
        raise DomainError("explicit formula needs t > 0")
    ev.zeros.check_cover(hi + 50.0 / logx)
    tv = ta.reshape(-1)

    prime = (np.sin(np.multiply.outer(tv, logn)) * coef).sum(axis=1)
    value = _zero_sum(tv, ev.zeros.ordinates, logx) / PI - prime / PI

    tb = ta[()]     # a NumPy scalar for a number t, cheaper than an array
    budget = (math.sqrt(x) / (tb * tb * logx) + 1.0 / (tb * logx)
              + _zero_tail_bound(tb, logx, ev.zeros))
    if ta.ndim == 0:
        return float(value[0]), float(budget)
    return value.reshape(ta.shape), budget


def make_sinh_table() -> None:
    """No-op: I(v) has a closed form and needs no table.  Kept only because
    the benchmark harness still calls it; nothing in the package does."""


def _s_between_zeros(t, zeros: ZeroSet):
    """S(t) = N(t) - 1 - theta(t)/pi, vectorized, N with weight 1/2 at an
    ordinate."""
    return zeros.count_up_to(t) - 1.0 - theta(t) / PI


def second_moment(T: float, ev: SEvaluator) -> float:
    """int_0^T S(t)^2 dt at T >= 0, exact-per-interval.

    Between consecutive ordinates S is smooth, so every zero gap is one
    segment of the fixed gap rule, whose error estimate is held below
    ``GAP_RULE_TOL`` relative (else ``AccuracyError``); below t = 10 the
    log-Gamma theta keeps the continuation exact.  Deterministic for fixed
    inputs.
    """
    if not 0.0 <= T:
        raise DomainError("T >= 0 required")
    return _s_power_integral(2, 0.0, T, ev.zeros)


def s_mean(T: float, ev: SEvaluator) -> float:
    """(1/T) int_0^T S(t) dt, to the gap rule's tolerance (T > 0)."""
    if not 0.0 < T:
        raise DomainError("T > 0 required")
    return _s_power_integral(1, 0.0, T, ev.zeros) / T


def _s_power_integral(k: int, lo: float, hi: float, zeros: ZeroSet) -> float:
    """int_lo^hi S^k, one gap-rule pass over the zero gaps of [lo, hi], with
    no domain floor (``full_report`` integrates [0, 1] and [1, T] so)."""
    zeros.check_count(hi)
    return gap_rule(lambda t: _s_between_zeros(t, zeros) ** k,
                    zeros.gap_edges(lo, hi))[0]


@dataclass(frozen=True)
class GHResult:
    """Direct integrals G, H next to their asymptotic sum-formula values."""

    g: float
    h: float
    g_sum_formula: float
    h_sum_formula: float
    g_err: float      # a bound on the rounding of G's closed-form terms
    h_err: float      # theta head's quadrature estimate + by-parts bound


# theta's part of H: a quadrature up to t = 100, by parts above
_BY_PARTS_T0, _BY_PARTS_TERMS = 100.0, 24
_EPS = float(np.finfo(float).eps)


def _theta_sin_tail(logn: np.ndarray, a: float, b: float) -> np.ndarray:
    """int_a^b theta(t) sin(l t) dt for every l of ``logn``, a >= 100: the
    terms Im[e^(ilt) sum_k (-1)^k theta^(k)(t)/(il)^(k+1)], k < K = 24, of
    integration by parts, from a to b, theta^(k) from the series of
    :func:`szeta.zeros.theta`.  The k-th term is about
    (k-2)!/(2 t^(k-1) l^(k+1)); the remainder is below
    (K-3)!/(2 a^(K-2) l^K), 1.7e-21 at a = 100 for every l >= log 2."""
    k = np.arange(_BY_PARTS_TERMS)
    w = np.array([1j, -1.0, -1j, 1.0])[k % 4] / logn[:, None] ** (k + 1)

    def antiderivative(t):
        # theta's main term has derivatives (1/2) log(t/2pi) and then
        # (1/2) (-1)^k (k-2)!/t^(k-1); each c_n t^p its falling factorials
        d = np.concatenate(([theta(t), 0.5 * math.log(t / (2.0 * PI))],
                            0.5 * (-1.0) ** k[2:] / t ** (k[2:] - 1)
                            * np.cumprod(np.maximum(1, k[:-2]))))
        for n, c in enumerate(_THETA_COEF, 1):
            p = 1 - 2 * n
            d[1:] += c * np.cumprod(p - k[:-1]) * t ** (p - k[1:])
        return -np.imag(np.exp(1j * logn * t) * (w @ d))

    return antiderivative(b) - antiderivative(a)


def g_and_h_direct(T: float, x: float, ev: SEvaluator) -> GHResult:
    """G(T) and H(T) as finite sums, with companion sum formulas.

    With D(t) = sum_n c_n sin(l_n t) over the prime powers n <= x,
    G = (1/pi^2) int_1^T D^2 sums c_m c_n [I(l_m - l_n) - I(l_m + l_n)]/2,
    I(nu) = int_1^T cos(nu t) dt.  H = (2/pi) int_1^T S*D, S = N - 1 -
    theta/pi: the zero count N summed by parts, one cosine per ordinate
    below T and prime power; theta by quadrature on [1, min(T, 100)] and by
    parts (:func:`_theta_sin_tail`) above.

    Sum-formula companions:  G ~ (T/2pi^2) sum Lambda^2(n) f^2 / (n log^2 n)
    and H ~ -(T/pi^2) sum Lambda^2(n) f / (n log^2 n).
    """
    T, x = float(T), float(x)   # NumPy refuses an int to a negative power
    if not x <= math.sqrt(T):
        raise DomainError("requires x <= sqrt(T)")
    n, logp, logn, fv, coef = ev.prime_table.prime_powers(x)
    ev.zeros.check_count(T)
    g = ev.zeros.gap_edges(1.0, T)[1:-1]    # every ordinate exceeds 1

    nu = np.stack([logn[:, None] - logn, logn[:, None] + logn])
    with np.errstate(invalid="ignore"):
        cos_int = (np.sin(nu * T) - np.sin(nu)) / nu
    cos_int[nu == 0.0] = T - 1.0              # int_1^T cos(nu t) dt
    g_total = float(coef @ (0.5 * (cos_int[0] - cos_int[1])) @ coef)
    # each cos_int carries about eps T from the rounding of its phase nu T
    g_err = 2.0 * T * float(np.sum(np.abs(coef))) ** 2 * _EPS

    # one cosine sum per l: an (ordinates x l) array would not fit at the
    # top of the range
    cos_sums = np.array([np.sum(np.cos(ln * g)) for ln in logn])
    step = (cos_sums - (len(g) - 1) * np.cos(logn * T) - np.cos(logn)) / logn
    t0 = min(T, _BY_PARTS_T0)
    theta_part, theta_err = integrate(
        lambda t: theta(t) * (np.sin(np.outer(t, logn)) @ coef),
        1.0, t0, omega=float(np.max(logn)), breakpoints=(10.0,))
    if T > t0:
        theta_part += float(coef @ _theta_sin_tail(logn, t0, T))
        k = _BY_PARTS_TERMS
        theta_err += math.factorial(k - 3) / (2.0 * t0 ** (k - 2)) \
            * float(np.abs(coef) @ logn ** -float(k))
    h_total = float(coef @ step) - theta_part / PI

    w = logp ** 2 / (n * logn ** 2)
    g_sum = T / (2.0 * PI * PI) * float(np.sum(w * fv * fv))
    h_sum = -T / (PI * PI) * float(np.sum(w * fv))
    return GHResult(g=g_total / (PI * PI), h=h_total * (2.0 / PI),
                    g_sum_formula=g_sum, h_sum_formula=h_sum,
                    g_err=g_err / (PI * PI),
                    h_err=theta_err * (2.0 / PI / PI))
