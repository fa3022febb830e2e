"""The argument function S(t): exact route, explicit-formula route, moments.

The exact route counts zeros against the smooth term,
``S(t) = N(t) - 1 - theta(t)/pi``, with N given half weight exactly at an
ordinate (midpoint convention).  The explicit-formula route rebuilds S(t)
from a damped prime sum plus a sum over zeros of ``sin((t-gamma) log x)``
times the sinh-kernel integral I(v), and reports an error budget instead
of pretending to exactness: the two O-terms of the formula are carried
with unit effective constants, plus a rigorous bound for the zeros
truncated away from the summation window.  ``sin_sinh_integral`` gives
sin(v) I(v) in closed form (digamma, then an asymptotic series above
v = 60), vectorized over all zeros at once.

``second_moment``, ``s_mean`` and ``g_and_h_direct`` integrate up to T
over the zero gaps.  On each gap S is the smooth function
(constant - theta/pi), so one fixed Gauss-Legendre rule per gap
(:func:`~szeta.quadrature.gap_rule`) covers all gaps at once, the head
below the first ordinate included.  Below t = 10 the asymptotic theta is
invalid, and the exact log-Gamma theta used there is singular at
t = +-i/2; where that makes the error estimate miss its bound, the rule
halves the head's panels and sums the other gaps only once.  At a node,
S costs one search of the ordinates and the theta series.

``g_and_h_direct`` is the report's one pass over the gaps of [1, T]: its
integrand stacks [S^2, D^2, S*D] for the Dirichlet polynomial D, so
int_1^T S^2 (``GHResult.s_squared``) comes with G and H, on the panels
D's phase asks for, each row held to its own bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import _ABS_BERNOULLI, f_weight
from .primes import PrimeTable
from .quadrature import gap_rule
from .zeros import ZeroSet, theta, theta_exact

PI = math.pi
ZERO_WINDOW_SCALE = 50.0      # explicit-formula zero sum keeps |t-g| <= 50/log x


@dataclass(frozen=True)
class SEvaluator:
    """Bundle of the inputs S-evaluation needs: zeros and a prime table
    (which the zero-counting routes never read)."""

    zeros: ZeroSet
    prime_table: PrimeTable | None


def s_exact(t: float, ev: SEvaluator) -> float:
    """S(t) by zero counting; midpoint convention at ordinates."""
    if not ev.zeros.claimed_complete:
        raise DomainError("zero set not validated as complete")
    if not 10.0 <= t <= ev.zeros.t_max:
        raise DomainError("t outside zero coverage")
    return float(_s_between_zeros(t, ev.zeros))


# psi(x) = log x - 1/(2x) - sum_k B_2k / (2k x^2k) for x >= 6, reached by
# the recurrence through _PSI_STEPS; the ten terms leave under 3e-15 there
_PSI_STEPS = np.arange(6.0)
_PSI_ASYM = [float(b) / (2 * k) * (-1) ** (k + 1)
             for k, b in enumerate(_ABS_BERNOULLI, 1)]


def _digamma(x):
    """psi(x) for an array of x > 0: the recurrence psi(x) = psi(x + 6) -
    sum_{j<6} 1/(x + j), then the asymptotic series at x + 6 >= 6 with the
    Bernoulli numbers of :mod:`szeta.kernels`.  The recurrence's six terms
    are summed over a leading axis and the series runs in place: few NumPy
    calls for the small arrays of ``s_explicit``, few passes for large ones."""
    x = np.asarray(x, dtype=float)
    w = x + len(_PSI_STEPS)
    ix2 = 1.0 / (w * w)
    acc = _PSI_ASYM[-1] * ix2
    for c in reversed(_PSI_ASYM[:-1]):
        acc += c
        acc *= ix2
    acc += 0.5 / w
    acc -= np.log(w)
    steps = _PSI_STEPS.reshape((-1,) + (1,) * x.ndim)
    acc += (1.0 / (x + steps)).sum(axis=0)
    return -acc


# I(v) ~ sum_k c_k / v^(2k+2) above _SINH_SWITCH, with
# c_k = (-1)^k 2 (1 - 2^(-2k-2)) (2k+1)! zeta(2k+2)
#     = (-1)^k (1 - 2^(-2k-2)) |B_2k+2| (2 pi)^(2k+2) / (2k+2);
# eight terms leave under 1e-14 relative above v = 60, and below it the
# digamma form, which loses digits in proportion to v, stays under 1e-12
_SINH_SWITCH = 60.0
_BETA_ARGS = np.array([[1.0], [0.5]])   # beta(s) from psi at s/2 + (1, 1/2)
_SINH_ASYM = [(-1) ** k * (1.0 - 2.0 ** (-2 * k - 2)) * float(b)
              * (2.0 * PI) ** (2 * k + 2) / (2 * k + 2)
              for k, b in enumerate(_ABS_BERNOULLI[:8])]


def _sinh_series(iv2):
    """I(v) above ``_SINH_SWITCH`` from ``iv2`` = 1/v^2: the asymptotic
    series sum_k c_k iv2^(k+1) by Horner's rule.  ``sin_sinh_integral``
    takes it above the switch, and the direct R integral
    (:func:`szeta.paircorr._zero_sum`) for every ordinate farther than the
    switch from a whole block of nodes, where no sin per element is needed."""
    acc = _SINH_ASYM[-1] * iv2
    for c in reversed(_SINH_ASYM[:-1]):
        acc += c
        acc *= iv2
    return acc


def sin_sinh_integral(v):
    """sin(v) * I(|v|) for array v, with I(v) = int_0^inf u / ((u^2 + v^2)
    sinh u) du; the midpoint value 0 at v = 0 (the limits are +-pi/2).

    Up to ``_SINH_SWITCH`` the closed form I(v) = (pi/v) [1/2 - b beta(b+1)]
    with b = v/pi and beta(s) = [psi((s+1)/2) - psi(s/2)]/2 (psi = digamma),
    from the cosine transform (pi^2/4) sech^2(pi s/2) of u/sinh u.  The
    bracket cancels in proportion to v, so above the switch the asymptotic
    series in 1/v^2 (:func:`_sinh_series`) takes over.  Relative error
    below 1e-12 against a 30-digit quadrature of the definition on
    [1e-3, 1e3].
    """
    v = np.asarray(v, dtype=float)
    av = np.abs(v)
    lo = av <= _SINH_SWITCH
    out = np.zeros_like(av)
    mid = lo & (av > 0.0)
    b = av[mid] / PI
    psi = _digamma(0.5 * b + _BETA_ARGS)
    beta = 0.5 * (psi[0] - psi[1])
    out[mid] = PI * np.sin(v[mid]) / av[mid] * (0.5 - b * beta)
    if not lo.all():
        hi = ~lo
        iv2 = av[hi]
        iv2 *= iv2
        np.reciprocal(iv2, out=iv2)
        acc = _sinh_series(iv2)
        acc *= np.sin(v[hi])
        out[hi] = acc
    return out


def _zero_tail_bound(t: float, window: float, logx: float,
                     zeros: ZeroSet) -> float:
    """Bound for the zero sum truncated to |t - gamma| <= window.

    Uses I(v) <= pi^2/(4 v^2): excluded in-range zeros are summed exactly;
    ordinates beyond coverage are bounded through the density
    log(s/2pi)/(2pi) integrated in closed form.
    """
    g = zeros.ordinates
    far = g[np.abs(g - t) > window]
    inside = float(np.sum(1.0 / (far - t) ** 2)) if len(far) else 0.0
    a = zeros.t_max
    if a > t:
        beyond = (math.log(a / (2 * PI)) / (a - t)
                  + math.log(a / (a - t)) / t) / (2 * PI)
    else:
        beyond = 0.0
    return (PI / 4.0) * (inside + beyond) / (logx * logx)


def s_explicit(t: float, x: float, ev: SEvaluator, *, table=None):
    """Explicit-formula S(t); returns ``(value, error_budget)``.

    value = -(1/pi) sum_{n<=x} Lambda(n) n^(-1/2) sin(t log n)/log n
                 * f(log n / log x)
            + (1/pi) sum_gamma sin((t-gamma) log x) * I((t-gamma) log x)

    error_budget stacks the formula's two O-terms with unit constants
    (reported, never asserted) and the window-truncation bound for the
    zero sum.  ``table`` is ignored; it is accepted only because the
    benchmark harness still passes it.
    """
    if x < 4.0:
        raise DomainError("explicit formula needs x >= 4")
    if x > ev.prime_table.limit:
        raise DomainError("x beyond the prime table's limit")
    if t < 10.0:
        raise DomainError("t >= 10 required")
    logx = math.log(x)
    window = ZERO_WINDOW_SCALE / logx
    if ev.zeros.t_max < t + window:
        raise DomainError("zero coverage must extend to t + 50/log x")

    coef, logn = _prime_terms(x, ev.prime_table)
    prime_part = -float(np.sum(coef * np.sin(t * logn))) / PI

    g = ev.zeros.ordinates
    near = g[np.abs(g - t) <= window]
    zero_part = float(np.sum(sin_sinh_integral((t - near) * logx))) / PI

    budget = (math.sqrt(x) / (t * t * logx) + 1.0 / (t * logx)
              + _zero_tail_bound(t, window, logx, ev.zeros) / PI)
    return prime_part + zero_part, budget


def _prime_terms(x: float, table: PrimeTable):
    """``coef, logn`` of the explicit formula's prime sum at x, computed
    once per (x, table): kept in the table's ``memo`` for the last x asked,
    so they cannot outlive the table or be read for another one."""
    hit = table.memo.get("prime_terms")
    if hit is None or hit[0] != x:
        hit = (x, *_dirichlet_coeffs(x, table)[:2])
        table.memo["prime_terms"] = hit
    return hit[1], hit[2]


def make_sinh_table() -> None:
    """No-op: I(v) has a closed form and needs no table.  Kept only because
    the benchmark harness still calls it; nothing in the package does."""


def _theta_any(t):
    t = np.asarray(t, dtype=float)
    lo = t < 10.0
    if not lo.any():        # every node past the head
        return theta(t)
    out = np.empty_like(t)
    out[lo] = theta_exact(t[lo])
    if not lo.all():
        out[~lo] = theta(t[~lo])
    return out


def _s_between_zeros(t, zeros: ZeroSet):
    """S(t) = N(t) - 1 - theta(t)/pi, vectorized, N with weight 1/2 at an
    ordinate."""
    return zeros.count_up_to(t) - 1.0 - _theta_any(t) / PI


def _gap_integral(f, lo: float, hi: float, ev: SEvaluator,
                  omega: float = 0.0):
    """int_lo^hi f over the zero gaps; returns ``(value, error_estimate)``.

    The set must be complete and cover hi, or the zero count in S is wrong.
    Every gap is one segment of ``gap_rule``, the head [lo, g_1] below the
    first ordinate included: theta_exact's singularities at t = +-i/2 sit
    close to t = 0, and when that makes the estimate miss its bound the
    rule halves the head's panels.  An ``f`` returning a stack of rows
    gives arrays, one entry per row.
    """
    zeros = ev.zeros
    if not zeros.claimed_complete:
        raise DomainError("zero set not validated as complete")
    if not hi <= zeros.t_max:
        raise DomainError("T outside zero coverage")
    g = zeros.ordinates
    return gap_rule(f, np.concatenate(([lo], g[(g > lo) & (g < hi)], [hi])),
                    omega)


def second_moment(T: float, ev: SEvaluator, t_lo: float = 0.0) -> float:
    """int_{t_lo}^T S(t)^2 dt, exact-per-interval.

    Between consecutive ordinates S is smooth, so every zero gap is one
    segment of the fixed gap rule, whose error estimate is held below
    ``GAP_RULE_TOL`` relative (else ``AccuracyError``); below t = 10 the
    log-Gamma theta keeps the continuation exact.  Deterministic for fixed
    inputs.
    """
    if not 10.0 <= T:
        raise DomainError("T outside zero coverage")
    if not 0.0 <= t_lo < T:
        raise DomainError("t_lo must sit in [0, T)")
    return _s_squared_integral(t_lo, T, ev)


def _s_squared_integral(lo: float, hi: float, ev: SEvaluator) -> float:
    """int_lo^hi S^2 over the zero gaps, without ``second_moment``'s
    domain floor (``full_report`` adds the piece over [0, 1] this way)."""
    return _gap_integral(lambda t: _s_between_zeros(t, ev.zeros) ** 2,
                         lo, hi, ev)[0]


def s_mean(T: float, ev: SEvaluator) -> float:
    """(1/T) int_0^T S(t) dt, to the gap rule's tolerance."""
    return _gap_integral(lambda t: _s_between_zeros(t, ev.zeros),
                         0.0, T, ev)[0] / T


@dataclass(frozen=True)
class GHResult:
    """Direct integrals G, H next to their asymptotic sum-formula values,
    with int_1^T S^2 from the same pass over the zero gaps."""

    g: float
    h: float
    g_sum_formula: float
    h_sum_formula: float
    g_err: float      # quadrature error estimates of g and h
    h_err: float
    s_squared: float  # int_1^T S^2, the squared formula's first term
    s_squared_err: float


def _dirichlet_coeffs(x: float, table: PrimeTable):
    sel = table.support_n <= x
    n = table.support_n[sel].astype(float)
    logp = np.log(table.support_p[sel].astype(float))
    logn = np.log(n)
    fv = f_weight(logn / math.log(x))
    return logp / (np.sqrt(n) * logn) * fv, logn, fv, logp, n


def g_and_h_direct(T: float, x: float, ev: SEvaluator) -> GHResult:
    """G(T) and H(T) by direct quadrature, with companion sum formulas.

    G integrates the squared prime sum, H the cross term against S(t).
    One pass over the zero gaps of [1, T] integrates the rows [S^2, D^2,
    S*D] from one S and one Dirichlet polynomial D per node, so
    int_1^T S^2 comes with G and H; each row is held to its own bound.
    Sum-formula companions:  G ~ (T/2pi^2) sum Lambda^2(n) f^2 / (n log^2 n)
    and H ~ -(T/pi^2) sum Lambda^2(n) f / (n log^2 n).
    """
    if x > math.sqrt(T):
        raise DomainError("requires x <= sqrt(T)")
    if x < 4.0 or x > ev.prime_table.limit:
        raise DomainError("x outside prime table range")
    coef, logn, fv, logp, n = _dirichlet_coeffs(x, ev.prime_table)
    omega = float(np.max(logn))

    def dirichlet(t):
        return np.sin(np.outer(np.asarray(t, dtype=float), logn)) @ coef

    def rows(t):
        s = _s_between_zeros(t, ev.zeros)
        d = dirichlet(t)
        return np.stack([s * s, d * d, s * d])

    vals, errs = _gap_integral(rows, 1.0, T, ev, omega)
    (s2, g_total, h_total), (s2_err, g_err, h_err) = (map(float, vals),
                                                      map(float, errs))

    w = logp ** 2 / (n * logn ** 2)
    g_sum = T / (2.0 * PI * PI) * float(np.sum(w * fv * fv))
    h_sum = -T / (PI * PI) * float(np.sum(w * fv))
    return GHResult(g=g_total / (PI * PI), h=h_total * (2.0 / PI),
                    g_sum_formula=g_sum, h_sum_formula=h_sum,
                    g_err=g_err / (PI * PI), h_err=h_err * (2.0 / PI),
                    s_squared=s2, s_squared_err=s2_err)
