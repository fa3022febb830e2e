"""Pair correlation of zero ordinates and the weighted double sums over pairs.

F(alpha, T) with Montgomery's weight w(u) = 4/(4+u^2), the khat pair sums
(plain, w- or complement-weighted) and the F-weighted kernel integrals are
all sums of an even kernel over ordered ordinate pairs.  One engine,
:func:`_pair_sum`, walks the pairs in bounded chunks; a caller needing
several sums passes one kernel returning them all.  The khat kernels ride
on the vectorized transform fast path (per-pair quadrature would be
hopeless at N ~ 5e3), and an alpha grid advances by a complex rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import CheckReport, khat_many, kpp_transform_many
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from .s_of_t import make_sinh_table
from .zeros import ZeroSet

PI = math.pi
_CHUNK = 4_000_000


def pair_weight(u):
    """Montgomery's pair weight w(u) = 4 / (4 + u^2)."""
    u = np.asarray(u, dtype=float)
    return 4.0 / (4.0 + u * u)


_WEIGHTS = {
    "none": lambda u: 1.0,
    "w": pair_weight,
    "complement": lambda u: u * u / (4.0 + u * u),
}


def _diff_chunks(g: np.ndarray):
    """Yield positive pairwise differences g[j]-g[i], i<j, in bounded chunks."""
    buf = []
    size = 0
    for i in range(len(g) - 1):
        d = g[i + 1:] - g[i]
        buf.append(d)
        size += len(d)
        if size >= _CHUNK:
            yield np.concatenate(buf)
            buf, size = [], 0
    if buf:
        yield np.concatenate(buf)


def _pair_sum(g: np.ndarray, fn):
    """Sum of an even kernel over all ordered pairs of ``g``; ``fn`` maps
    differences to their kernel sum (a scalar, or a vector of several)."""
    total = len(g) * fn(np.zeros(1))
    for d in _diff_chunks(g):
        total += 2.0 * fn(d)
    return total


def _restrict(zeros: ZeroSet, T: float) -> np.ndarray:
    if T < 20.0:
        raise DomainError("pair correlation needs T >= 20")
    if zeros.t_max < T:
        raise DomainError("zero set does not cover T")
    g = zeros.up_to(T)
    if len(g) == 0:
        raise DomainError("no ordinates below T")
    return g


def _normalizer(T: float) -> float:
    return (T / (2.0 * PI)) * math.log(T)


def pcf(alpha: float, zeros: ZeroSet, T: float) -> float:
    """F(alpha, T): normalized pair sum, diagonal included (w(0)=1).

    The kernel is even in the difference, so the sum over ordered pairs is
    real and only the cosine part is evaluated.
    """
    g = _restrict(zeros, T)
    a = alpha * math.log(T)
    total = _pair_sum(g, lambda d: np.sum(np.cos(a * d) * pair_weight(d)))
    return float(total) / _normalizer(T)


@dataclass(frozen=True)
class PairCorrelationCurve:
    """Sampled F(alpha, T) on an ascending alpha grid."""

    T: float
    alpha_grid: np.ndarray
    values: np.ndarray
    zero_count: int
    weight_note: str = "w(u)=4/(4+u^2)"


def pcf_curve(zeros: ZeroSet, T: float, alpha_max: float,
              step: float) -> PairCorrelationCurve:
    """F on the grid 0, step, ..., alpha_max.

    One pass over the pair differences sums every grid point; each alpha
    step multiplies a running complex phase by exp(i * step * log T * d), so
    the cost is one complex multiply per pair per grid point.
    """
    if step <= 0 or alpha_max < 1.0:
        raise DomainError("need step > 0 and alpha_max >= 1")
    g = _restrict(zeros, T)
    n_steps = int(round(alpha_max / step))
    grid = np.linspace(0.0, n_steps * step, n_steps + 1)
    logT = math.log(T)

    def sums(d):
        rot = np.exp(1j * step * logT * d)
        cur = pair_weight(d).astype(complex)
        out = np.empty(n_steps + 1)
        out[0] = np.sum(cur.real)
        for k in range(1, n_steps + 1):
            cur *= rot
            out[k] = np.sum(cur.real)
        return out

    values = _pair_sum(g, sums) / _normalizer(T)
    return PairCorrelationCurve(T=float(T), alpha_grid=grid, values=values,
                                zero_count=int(len(g)))


def _curve_value_at(curve: PairCorrelationCurve, alpha: float) -> float:
    return float(np.interp(alpha, curve.alpha_grid, curve.values))


def tail_integral(curve: PairCorrelationCurve, power: int, alpha_cut: float,
                  tail_model: str = "constant_one") -> float:
    """int_1^inf F(alpha)/alpha^power d alpha from the curve plus a tail.

    On [1, alpha_cut] F is taken piecewise linear between samples and the
    alpha^-power factor is integrated exactly per segment, so a constant
    curve reproduces the analytic integral exactly.  Beyond the cut the
    tail uses F == 1 (``constant_one``, the conjectural model, labeled) or
    the final sample (``last_value``).
    """
    if power not in (2, 4):
        raise DomainError("power must be 2 or 4")
    if tail_model not in ("constant_one", "last_value"):
        raise DomainError("tail_model must be constant_one|last_value")
    grid = curve.alpha_grid
    if alpha_cut > grid[-1] + 1e-12 or grid[-1] < 1.0:
        raise DomainError("curve does not cover [1, alpha_cut]")
    alpha_cut = min(alpha_cut, float(grid[-1]))

    inner = grid[(grid > 1.0) & (grid < alpha_cut)]
    xs = np.concatenate(([1.0], inner, [alpha_cut]))
    fs = np.array([_curve_value_at(curve, x) for x in xs])
    total = 0.0
    for a, b, fa, fb in zip(xs[:-1], xs[1:], fs[:-1], fs[1:]):
        if b <= a:
            continue
        slope = (fb - fa) / (b - a)
        const = fa - slope * a
        if power == 2:
            total += const * (1.0 / a - 1.0 / b) + slope * math.log(b / a)
        else:
            total += const * (a ** -3 - b ** -3) / 3.0 \
                + slope * (a ** -2 - b ** -2) / 2.0
    f_tail = 1.0 if tail_model == "constant_one" else float(fs[-1])
    total += f_tail * alpha_cut ** (1 - power) / (power - 1)
    return total


def weighted_khat_sum(zeros: ZeroSet, x: float, weight: str = "none", *,
                      T: float | None = None) -> float:
    """sum over ordered ordinate pairs of khat((g - g') log x) * weight.

    ``weight``: ``none`` (1), ``w`` (Montgomery weight), or ``complement``
    (u^2/(4+u^2)).  Diagonal pairs included; khat(0) carries weight w(0)=1
    for none/w and 0 for complement.  Restricted to ordinates <= T when
    given, which the set must cover.
    """
    if weight not in _WEIGHTS:
        raise DomainError("weight must be none|w|complement")
    if x < 4.0:
        raise DomainError("x >= 4 required")
    if len(zeros) == 0:
        raise DomainError("empty zero set")
    g = _restrict(zeros, T) if T is not None else zeros.ordinates
    logx = math.log(x)
    wt = _WEIGHTS[weight]
    return float(_pair_sum(g, lambda d: np.sum(khat_many(d * logx) * wt(d))))


def f_weighted_kernel_integral(zeros: ZeroSet, T: float, beta: float,
                               deriv: bool = False) -> float:
    """int F(alpha) k(alpha/(2 pi beta)) d alpha (or k''), F expanded by
    definition into its pair sum, which turns the integral into kernel
    transforms at the pair differences times log x."""
    g = _restrict(zeros, T)
    logx = beta * math.log(T)
    fn = kpp_transform_many if deriv else khat_many
    total = _pair_sum(g, lambda d: np.sum(fn(d * logx) * pair_weight(d)))
    return float(total) * 2.0 * PI * beta / _normalizer(T)


def lemma5_check(zeros: ZeroSet, T: float, beta: float,
                 tol: float = 1e-4) -> CheckReport:
    """Complement-weighted khat pair sum vs its F-side rearrangement.

    LHS: sum over pairs of khat((g-g') log x) * (g-g')^2/(4+(g-g')^2).
    RHS: (pi^2 T / (16 log T)) F(beta)/beta^2
         - (T / (64 pi^4 log T beta^3)) * int F(alpha) k''(alpha/2pi beta).
    Holds for any ordinate set (unconditional rearrangement), so it is
    asserted, not just reported.  One pass over the pairs sums all three.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta in (0,1) required")
    x = T ** beta
    if x <= 1.05:
        raise DomainError("T^beta too close to 1 for a meaningful log x")
    g = _restrict(zeros, T)
    logT = math.log(T)
    a = beta * logT

    def sums(d):
        w = pair_weight(d)
        return np.array([
            np.sum(khat_many(d * math.log(x)) * _WEIGHTS["complement"](d)),
            np.sum(np.cos(a * d) * w), np.sum(kpp_transform_many(d * a) * w)])

    lhs, pairs_f, pairs_kpp = map(float, _pair_sum(g, sums))
    f_beta = pairs_f / _normalizer(T)
    integral = pairs_kpp * 2.0 * PI * beta / _normalizer(T)
    rhs = (PI ** 2 * T / (16.0 * logT)) * f_beta / beta ** 2 \
        - (T / (64.0 * PI ** 4 * logT * beta ** 3)) * integral
    d_abs = abs(lhs - rhs)
    d_rel = d_abs / max(abs(lhs), abs(rhs))
    return CheckReport(
        name="lemma5", params={"T": T, "beta": beta}, lhs=lhs, rhs=rhs,
        discrepancy_abs=d_abs, discrepancy_rel=d_rel, tolerance=tol,
        passed=d_rel <= tol,
        detail={"F_beta": f_beta, "kpp_integral": integral,
                "zero_count": int(len(g))})


@dataclass(frozen=True)
class RDecomposition:
    """Decomposition of the zero-sum second moment R into its three terms.

    ``r_total`` is the plain khat pair sum over (pi^2 log x) and shares its
    khat evaluations with ``term_main``, so the invariant r_total = term_main
    + term_F_beta - term_k2_integral checks the Lemma 5 rearrangement of the
    complement-weighted part of R.  ``r_total_direct``
    (when present) is the time-domain quadrature of the defining integral,
    feasible at small T only.
    """

    r_total: float
    term_main: float
    term_F_beta: float
    term_k2_integral: float
    beta: float
    x: float
    r_total_direct: float | None = None


def _r_time_integral(zeros: ZeroSet, T: float, x: float,
                     spec: QuadratureSpec) -> float:
    """int_1^T of the squared zero sum of the explicit formula, directly.

    Every ordinate of the set participates at every node (no window: a
    moving window would put kinks inside the integration intervals), with
    the sinh integral served by the spline + asymptotic table.  The result
    backs a report-only comparison, so tolerances are relaxed to 1e-7.
    """
    from dataclasses import replace
    logx = math.log(x)
    table = make_sinh_table(spec)
    g = zeros.ordinates

    def zero_sum_sq(t):
        v = (np.asarray(t, dtype=float)[:, None] - g[None, :]) * logx
        s = table.sin_times_eval(v).sum(axis=1) / PI
        return s * s

    loose = replace(spec, abs_tol=max(spec.abs_tol, 1e-7),
                    rel_tol=max(spec.rel_tol, 1e-7))
    val, _ = integrate(zero_sum_sq, 1.0, T, loose.with_breakpoints(g[g < T]),
                       omega=logx)
    return val


def lemma6_eval(zeros: ZeroSet, T: float, beta: float,
                spec: QuadratureSpec = DEFAULT_SPEC,
                direct_limit: float = 500.0) -> RDecomposition:
    """Evaluate R and its three-term decomposition from one ordinate set.

    For T <= direct_limit the defining time integral is also computed by
    quadrature so the regrouping can be sanity-checked end to end; its
    difference from the pair-sum route is report-only (the dropped
    remainder is O(log^3 T) scale).  One pass over the pairs gives all four
    pair sums, R and the w-weighted sum sharing each khat evaluation.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta in (0,1) required")
    x = T ** beta
    if x <= 1.05:
        raise DomainError("T^beta too close to 1 for a meaningful log x")
    g = _restrict(zeros, T)
    logT = math.log(T)
    logx = beta * logT

    def sums(d):
        kh = khat_many(d * logx)
        w = pair_weight(d)
        return np.array([np.sum(kh), np.sum(kh * w),
                         np.sum(kpp_transform_many(d * logx) * w),
                         np.sum(np.cos(logx * d) * w)])

    pairs_r, pairs_k, pairs_kpp, pairs_f = map(float, _pair_sum(g, sums))
    r_total = pairs_r / (PI ** 2 * logx)
    fk = pairs_k * 2.0 * PI * beta / _normalizer(T)
    fk2 = pairs_kpp * 2.0 * PI * beta / _normalizer(T)
    f_beta = pairs_f / _normalizer(T)
    term_main = T / (2.0 * PI ** 2 * beta) ** 2 * fk
    term_f = T / (16.0 * logT ** 2) * f_beta / beta ** 3
    term_k2 = T / (64.0 * PI ** 6 * beta ** 4 * logT ** 2) * fk2
    direct = None
    if T <= direct_limit:
        direct = _r_time_integral(zeros, T, x, spec)
    return RDecomposition(r_total=r_total, term_main=term_main,
                          term_F_beta=term_f, term_k2_integral=term_k2,
                          beta=beta, x=x, r_total_direct=direct)
