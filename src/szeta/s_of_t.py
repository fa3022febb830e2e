"""The argument function S(t): exact route, explicit-formula route, moments.

The exact route counts zeros against the smooth term,
``S(t) = N(t) - 1 - theta(t)/pi``, with N given half weight exactly at an
ordinate (midpoint convention).  The explicit-formula route rebuilds S(t)
from a damped prime sum plus a sum over zeros of ``sin((t-gamma) log x)``
times a sinh-kernel integral, and reports an error budget instead of
pretending to exactness: the two O-terms of the formula are carried with
unit effective constants, plus a rigorous bound for the zeros truncated
away from the summation window.

``second_moment``, ``s_mean`` and ``g_and_h_direct`` integrate up to T in
one quadrature call with a breakpoint at every ordinate: on each zero
gap S is the smooth function (constant - theta/pi), and all gaps are
refined together.  Below t = 10 the asymptotic theta is invalid and the
exact log-Gamma theta is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernels import f_weight
from .primes import PrimeTable
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from .zeros import ZeroSet, theta, theta_exact

PI = math.pi
ZERO_WINDOW_SCALE = 50.0      # explicit-formula zero sum keeps |t-g| <= 50/log x


@dataclass(frozen=True)
class SEvaluator:
    """Bundle of the inputs S-evaluation needs: zeros and a prime table."""

    zeros: ZeroSet
    prime_table: PrimeTable
    theta_order: int = 4


def s_exact(t: float, ev: SEvaluator) -> float:
    """S(t) by zero counting; midpoint convention at ordinates."""
    if not ev.zeros.claimed_complete:
        raise DomainError("zero set not validated as complete")
    if not 10.0 <= t <= ev.zeros.t_max:
        raise DomainError("t outside zero coverage")
    n = ev.zeros.count_up_to(t)
    return n - 1.0 - theta(t, ev.theta_order) / PI


def sinh_tail_integral(v: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int_0^inf u / ((u^2 + v^2) sinh u) du for v != 0.

    The integrand peaks at u ~ |v| with height ~ 1/(2|v|); breakpoints pin
    the panels to that scale.  Beyond the cutoff the integrand is below
    2 u e^(-u) / u^2, negligible at the default cutoff 40.  Monotone
    decreasing in |v|, bounded by pi^2 / (4 v^2).
    """
    if v == 0.0:
        raise DomainError("v must be nonzero (limit handled by callers)")
    v = abs(v)
    cutoff = max(spec.infinite_cutoff, 40.0)
    pts = sorted({p for p in (v, 2 * v, 5 * v, 10 * v, 1.0, 5.0)
                  if 0.0 < p < cutoff})
    sp = replace(spec, breakpoints=tuple(pts),
                 infinite_cutoff=max(cutoff, 2 * max(pts, default=1.0)))

    def integrand(u):
        return u / ((u * u + v * v) * np.sinh(u))

    val, _ = integrate(integrand, 0.0, cutoff, sp)
    return val


class _SinhIntegralTable:
    """Fast evaluator for I(v) = sinh_tail_integral(v) at many points.

    Below ``v_switch`` a cubic spline of v * I(v) is used (the product
    extends smoothly through 0 with limit pi/2); above it the asymptotic
    expansion  I(v) = pi^2/(4v^2) - pi^4/(8v^4) + pi^6/(4v^6)
    - (17/16) pi^8 / v^8 + ...  whose error at the default switch v = 30
    is below 1e-12.  Per-point spline error is below 1e-9 at the default
    density.
    """

    _ASYM = [PI ** 2 / 4.0, -PI ** 4 / 8.0, PI ** 6 / 4.0,
             -17.0 * PI ** 8 / 16.0]

    def __init__(self, spec: QuadratureSpec, v_switch: float = 30.0,
                 n_points: int = 600):
        from scipy.interpolate import CubicSpline
        # quadratically graded grid: the 1/v division in eval() amplifies
        # spline error near 0, so that is where the nodes cluster
        k = np.arange(n_points + 1, dtype=float) / n_points
        grid = v_switch * k * k
        vals = np.empty_like(grid)
        vals[0] = PI / 2.0
        for i, v in enumerate(grid[1:], start=1):
            vals[i] = v * sinh_tail_integral(float(v), spec)
        self.v_switch = v_switch
        self._spline = CubicSpline(grid, vals)

    def _asymptotic(self, av):
        iv2 = 1.0 / (av * av)
        acc = np.zeros_like(av)
        for c in reversed(self._ASYM):
            acc = iv2 * (c + acc)
        return acc

    def eval(self, v):
        """I(|v|) for array v; at v = 0 a finite placeholder is returned
        (callers own the removable-singularity convention there)."""
        av = np.abs(np.asarray(v, dtype=float))
        lo = av <= self.v_switch
        out = np.empty_like(av)
        safe = np.where(av > 0.0, av, 1.0)
        out[lo] = self._spline(av[lo]) / safe[lo]
        out[~lo] = self._asymptotic(av[~lo])
        return out

    def sin_times_eval(self, v):
        """sin(v) * I(v) with the removable value 0 at v = 0."""
        v = np.asarray(v, dtype=float)
        av = np.abs(v)
        return np.where(av > 0.0, np.sin(v) * self.eval(av), 0.0)


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


def s_explicit(t: float, x: float, ev: SEvaluator,
               spec: QuadratureSpec = DEFAULT_SPEC,
               table: _SinhIntegralTable | None = None):
    """Explicit-formula S(t); returns ``(value, error_budget)``.

    value = -(1/pi) sum_{n<=x} Lambda(n) n^(-1/2) sin(t log n)/log n
                 * f(log n / log x)
            + (1/pi) sum_gamma sin((t-gamma) log x) * I((t-gamma) log x)

    error_budget stacks the formula's two O-terms with unit constants
    (reported, never asserted) and the window-truncation bound for the
    zero sum.
    """
    if x < 4.0:
        raise DomainError("explicit formula needs x >= 4")
    if t < 10.0:
        raise DomainError("t >= 10 required")
    logx = math.log(x)
    window = ZERO_WINDOW_SCALE / logx
    if ev.zeros.t_max < t + window:
        raise DomainError("zero coverage must extend to t + 50/log x")

    tab = ev.prime_table
    sel = tab.support_n <= x
    n = tab.support_n[sel].astype(float)
    logp = np.log(tab.support_p[sel].astype(float))
    logn = np.log(n)
    coef = logp / (np.sqrt(n) * logn) * f_weight(logn / logx)
    prime_part = -float(np.sum(coef * np.sin(t * logn))) / PI

    g = ev.zeros.ordinates
    near = g[np.abs(g - t) <= window]
    v = (t - near) * logx
    if table is None:
        zero_part = 0.0
        for vi in v:
            if vi != 0.0:
                zero_part += math.sin(vi) * sinh_tail_integral(float(vi), spec)
        zero_part /= PI
    else:
        zero_part = float(np.sum(table.sin_times_eval(v))) / PI

    budget = (math.sqrt(x) / (t * t * logx) + 1.0 / (t * logx)
              + _zero_tail_bound(t, window, logx, ev.zeros) / PI)
    return prime_part + zero_part, budget


@lru_cache(maxsize=4)
def make_sinh_table(spec: QuadratureSpec = DEFAULT_SPEC) -> _SinhIntegralTable:
    """Precompute the sinh-integral evaluator (spline + asymptotic tail).

    Cached per spec; the table itself is immutable once built.
    """
    return _SinhIntegralTable(spec)


def _theta_any(t):
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t < 10.0
    if np.any(lo):
        out[lo] = theta_exact(t[lo])
    if np.any(~lo):
        out[~lo] = theta(t[~lo])
    return out


def _gap_spec(T: float, ev: SEvaluator,
              spec: QuadratureSpec) -> QuadratureSpec:
    """Tightened ``spec`` with every ordinate up to T as a breakpoint; the
    set must be complete and cover T, or the zero count in S is wrong."""
    if not ev.zeros.claimed_complete:
        raise DomainError("zero set not validated as complete")
    if not T <= ev.zeros.t_max:
        raise DomainError("T outside zero coverage")
    tight = replace(spec, abs_tol=min(spec.abs_tol, 1e-12),
                    rel_tol=min(spec.rel_tol, 1e-12))
    return tight.with_breakpoints(ev.zeros.up_to(T))


def _s_between_zeros(t, zeros: ZeroSet):
    """``s_exact``'s formula, vectorized, for t off the ordinates."""
    return zeros.count_up_to(t) - 1.0 - _theta_any(t) / PI


def second_moment(T: float, ev: SEvaluator,
                  spec: QuadratureSpec = DEFAULT_SPEC,
                  t_lo: float = 0.0) -> float:
    """int_{t_lo}^T S(t)^2 dt, exact-per-interval.

    Between consecutive ordinates S is smooth, so every zero gap is its own
    segment of one adaptive Gauss-Legendre pass; below t = 10 the log-Gamma
    theta keeps the continuation exact.  Deterministic for fixed inputs.
    """
    if not 10.0 <= T:
        raise DomainError("T outside zero coverage")
    if not 0.0 <= t_lo < T:
        raise DomainError("t_lo must sit in [0, T)")
    return _s_squared_integral(t_lo, T, ev, spec)


def _s_squared_integral(lo: float, hi: float, ev: SEvaluator,
                        spec: QuadratureSpec) -> float:
    """int_lo^hi S^2 over the zero gaps, without ``second_moment``'s
    domain floor (``full_report`` adds the piece over [0, 1] this way)."""
    gaps = _gap_spec(hi, ev, spec)
    val, _ = integrate(lambda t: _s_between_zeros(t, ev.zeros) ** 2,
                       lo, hi, gaps)
    return val


def s_mean(T: float, ev: SEvaluator,
           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """(1/T) int_0^T S(t) dt."""
    gaps = _gap_spec(T, ev, spec)
    val, _ = integrate(lambda t: _s_between_zeros(t, ev.zeros), 0.0, T, gaps)
    return val / T


@dataclass(frozen=True)
class GHResult:
    """Direct integrals G, H next to their asymptotic sum-formula values."""

    g: float
    h: float
    g_sum_formula: float
    h_sum_formula: float


def _dirichlet_coeffs(x: float, table: PrimeTable):
    sel = table.support_n <= x
    n = table.support_n[sel].astype(float)
    logp = np.log(table.support_p[sel].astype(float))
    logn = np.log(n)
    fv = f_weight(logn / math.log(x))
    return logp / (np.sqrt(n) * logn) * fv, logn, fv, logp, n


def g_and_h_direct(T: float, x: float, ev: SEvaluator,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> GHResult:
    """G(T) and H(T) by direct quadrature, with companion sum formulas.

    G integrates the squared prime sum, H the cross term against S(t);
    both run over [1, T] with breakpoints at the ordinates.  Sum-formula
    companions:  G ~ (T/2pi^2) sum Lambda^2(n) f^2 / (n log^2 n) and
    H ~ -(T/pi^2) sum Lambda^2(n) f / (n log^2 n).
    """
    if x > math.sqrt(T):
        raise DomainError("requires x <= sqrt(T)")
    if x < 4.0 or x > ev.prime_table.limit:
        raise DomainError("x outside prime table range")
    coef, logn, fv, logp, n = _dirichlet_coeffs(x, ev.prime_table)
    omega = float(np.max(logn))

    def dirichlet(t):
        return np.sin(np.outer(np.asarray(t, dtype=float), logn)) @ coef

    gaps = _gap_spec(T, ev, spec)
    g_total, _ = integrate(lambda t: dirichlet(t) ** 2, 1.0, T, gaps,
                           omega=omega)
    h_total, _ = integrate(
        lambda t: _s_between_zeros(t, ev.zeros) * dirichlet(t), 1.0, T, gaps,
        omega=omega)
    g_total /= PI * PI
    h_total *= 2.0 / PI

    w = logp ** 2 / (n * logn ** 2)
    g_sum = T / (2.0 * PI * PI) * float(np.sum(w * fv * fv))
    h_sum = -T / (PI * PI) * float(np.sum(w * fv))
    return GHResult(g=g_total, h=h_total, g_sum_formula=g_sum,
                    h_sum_formula=h_sum)
