"""Pair correlation of zero ordinates and the weighted double sums over pairs.

F(alpha, T) with Montgomery's weight w(u) = 4/(4+u^2), the report's R and
the sums of Lemmas 5, 6 and 8-10 each sum one transform at d L (cos, khat
or the k'' transform) times one weight of d (1, w or 1 - w) over ordered
ordinate pairs.  One engine, :func:`_pair_sum` on the tree of
:mod:`szeta._tree`, takes a caller's list of such ``(transform, weight)``
terms and computes their sums in O(N): near pairs directly, each transform
once per piece, the rest through the tree's far field of Re[K(d) e^(i L d)],
K the weight for cos and (P - iQ)(d L) times the weight for the khat and
k'' transforms, whose P cos + Q sin split for y >= 50 lives in
:mod:`szeta.kernels`.  That split holds for d L >= 50, so a call with a
khat or k'' term lays out its tree by that floor alone, leaves in
[50 / L, 100 / L): near pairs of those transforms cost far more than a far
box, so the near field is kept as small as the split allows.  Cos-only
trees hold about ``_tree._LEAF`` ordinates per leaf.
The alpha grid of :func:`pcf_curve` becomes charge
columns, each the one before times a phase: the far field takes them in
passes, and the near field is a batched product, over each leaf and its
right neighbour, of their padded charge blocks and the matrix of w at the
ordinate differences.

Engine callers: :func:`pcf`, :func:`weighted_khat_sum` (the report's R),
:func:`pcf_curve` (through the tree), and :func:`_beta_pair_sums`, five sums
at L = beta log T in one call, kept in the zero set's ``memo`` for the last
(T, beta), so that Lemmas 5, 6 and 8-10 at one height share it;
:func:`f_weighted_kernel_integral` repeats two of them, one sum per call.
The same tree, with its targets apart from its sources, is the far field
of the explicit formula's zero sum (:func:`szeta.s_of_t._zero_field`),
which :func:`lemma6_eval` squares and integrates over [1, T] at every T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._tree import _Tree
from .errors import CoverageError, DomainError, refuse_beyond_memory
from .kernels import _FAST_Y_SWITCH, _KHAT, _KPP, CheckReport, _report
from .quadrature import gap_rule
from .s_of_t import _zero_field
from .zeros import ZeroSet

PI = math.pi


def pair_weight(u):
    """Montgomery's pair weight w(u) = 4 / (4 + u^2)."""
    u = np.asarray(u, dtype=float)
    return 4.0 / (4.0 + u * u)


def _one(u):
    return np.ones_like(u)


def _complement(u):
    """1 - w(u), as u^2 / (4 + u^2)."""
    return u * u / (4.0 + u * u)


# transforms of y = d L and their (P, Q) for y >= _FAST_Y_SWITCH: cos has
# none, and kernels declares those of khat and the k'' transform
_COS = (np.cos, None)


def _pair_sum(g: np.ndarray, L: float, terms) -> np.ndarray:
    """Per ``(transform, weight)`` of ``terms``, the sum of transform(d L)
    weight(d) over all ordered pairs of ``g``, d their difference, in O(N).

    A weight is vectorized, even and smooth for d > 0.  Pairs in the same or
    adjacent leaves of :class:`_Tree` are summed directly, in pieces of
    about ``_tree._NEAR`` differences, each transform evaluated once per
    piece; the rest through a Chebyshev far field (black-box FMM: P2M, M2M,
    M2L on the charges e^(-i L g), p = _P nodes per box) of
    Re[K(d) e^(i L d)], K the weight for cos and (P - i Q)(d L) weight(d)
    otherwise.  That split holds for d L >= _FAST_Y_SWITCH, so a khat or
    k'' term lays out the tree by the floor _FAST_Y_SWITCH / L alone, the
    most levels whose leaves are at least that wide: each near pair costs
    those transforms a P/Q sum or a table read, more than a far box's
    share, so the near field is no wider than the floor makes it.  Cos
    terms alone take the _LEAF layout.
    """
    g = np.sort(np.asarray(g, dtype=float))
    transforms = list(dict.fromkeys(t for t, _ in terms))
    split = any(pq is not None for _, pq in transforms)
    tree = _Tree(g, _FAST_Y_SWITCH / L if split else 0.0)

    def near(d):
        y = d * L
        value = {t: t[0](y) for t in transforms}
        return np.array([np.sum(value[t] * weight(d)) for t, weight in terms])

    def far_kernel(transform, weight):
        pq = transform[1]
        if pq is None:
            return weight

        def kernel(d):
            p, q = pq(d * L)
            return (p - 1j * q) * weight(d)
        return kernel

    total = len(g) * near(np.zeros(1))
    for d in tree.near():
        total = total + 2.0 * near(d)
    return total + 2.0 * np.concatenate(
        [tree.far(far_kernel(*term), L) for term in terms])


def _restrict(zeros: ZeroSet, T: float) -> np.ndarray:
    if not T >= 20.0:
        raise DomainError("pair correlation needs T >= 20")
    if zeros.t_max < T:
        raise CoverageError("zero set does not cover T")
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
    total, = _pair_sum(g, alpha * math.log(T), [(_COS, pair_weight)])
    return float(total) / _normalizer(T)


@dataclass(frozen=True)
class PairCorrelationCurve:
    """Sampled F(alpha, T) on an ascending alpha grid."""

    T: float
    alpha_grid: np.ndarray
    values: np.ndarray
    zero_count: int


def pcf_curve(zeros: ZeroSet, T: float, alpha_max: float,
              step: float) -> PairCorrelationCurve:
    """F on the grid 0, step, ..., n step, the first multiple of ``step``
    at or beyond ``alpha_max``.

    The grid is uniform in omega = alpha log T, so the pair engine carries
    every grid point as one column of charges, each column the one before
    times a phase: the far field in passes of _COLUMNS columns, the near
    field as products over leaf pairs of their charge blocks with the
    weight matrix w(g_j - g_i) (:meth:`_Tree.near_columns`).
    """
    if not (0.0 < step < math.inf and 1.0 <= alpha_max < math.inf):
        raise DomainError("need a finite step > 0 and finite alpha_max >= 1")
    refuse_beyond_memory(alpha_max / step, "alpha grid points")
    n_steps = math.ceil(alpha_max / step - 1e-9)
    g = _restrict(zeros, T)
    grid = np.linspace(0.0, n_steps * step, n_steps + 1)
    omega = step * math.log(T)
    tree = _Tree(g, 0.0)
    pairs = tree.near_columns(pair_weight, omega, len(grid)) \
        + tree.far(pair_weight, 0.0, omega, len(grid))
    values = (len(g) + 2.0 * pairs) / _normalizer(T)
    return PairCorrelationCurve(T=float(T), alpha_grid=grid, values=values,
                                zero_count=int(len(g)))


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
    if not 1.0 <= alpha_cut <= grid[-1] + 1e-12:
        raise DomainError(f"alpha_cut must lie in [1, end of the curve]: "
                          f"{alpha_cut}")
    alpha_cut = min(alpha_cut, float(grid[-1]))

    inner = grid[(grid > 1.0) & (grid < alpha_cut)]
    xs = np.concatenate(([1.0], inner, [alpha_cut]))
    fs = np.interp(xs, grid, curve.values)
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


def weighted_khat_sum(zeros: ZeroSet, x: float, *, T: float) -> float:
    """sum over ordered pairs of the ordinates up to T, which the set must
    cover, of khat((g - g') log x), diagonal pairs included: the report's
    R times pi^2 log x."""
    if not x >= 4.0:
        raise DomainError("x >= 4 required")
    total, = _pair_sum(_restrict(zeros, T), math.log(x), [(_KHAT, _one)])
    return float(total)


def f_weighted_kernel_integral(zeros: ZeroSet, T: float, beta: float,
                               deriv: bool = False) -> float:
    """int F(alpha) k(alpha/(2 pi beta)) d alpha (or k''), F expanded by
    definition into its pair sum, which turns the integral into kernel
    transforms at the pair differences times log x."""
    g = _restrict(zeros, T)
    total, = _pair_sum(g, beta * math.log(T),
                       [(_KPP if deriv else _KHAT, pair_weight)])
    return float(total) * 2.0 * PI * beta / _normalizer(T)


def _refuse_beta(T: float, beta: float) -> None:
    """Refuse beta outside (0, 1), or x = T^beta too close to 1 (T <= 1
    too, where T^beta would be complex or below 1)."""
    if not 0.0 < beta < 1.0:
        raise DomainError("beta in (0,1) required")
    if T <= 1.0 or T ** beta <= 1.05:
        raise DomainError("T^beta too close to 1 for a meaningful log x")


class _BetaSums(NamedTuple):
    """The pair sums of Lemmas 5, 6 and 8-10 at L = beta log T."""

    zero_count: int
    r_total: float        # sum of khat(d L) over pi^2 L: the moment R
    khat_c: float         # sum of khat(d L) d^2/(4 + d^2)
    k_integral: float     # int F(alpha) k(alpha/(2 pi beta)) d alpha
    kpp_integral: float   # the same with k''
    f_beta: float         # F(beta, T)


def _beta_pair_sums(zeros: ZeroSet, T: float, beta: float) -> _BetaSums:
    """One engine call for the five pair sums at L = beta log T over the
    ordinates up to T: khat, khat w, khat (1 - w), k'' w and cos(L d) w.
    The w ones are :func:`f_weighted_kernel_integral`'s, bit for bit.

    The sums for the last (T, beta) asked are kept in the set's ``memo``,
    so Lemmas 5, 6 and 8-10 at one (zero set, T, beta) share one call;
    the set's ordinates are read-only, so the sums cannot go stale."""
    _refuse_beta(T, beta)
    hit = zeros.memo.get("beta_sums")
    if hit is not None and hit[0] == (T, beta):
        return hit[1]
    g = _restrict(zeros, T)
    L = beta * math.log(T)
    kh, kh_w, kh_c, kpp_w, f = map(float, _pair_sum(g, L, [
        (_KHAT, _one), (_KHAT, pair_weight), (_KHAT, _complement),
        (_KPP, pair_weight), (_COS, pair_weight)]))
    norm = _normalizer(T)
    sums = _BetaSums(zero_count=int(len(g)), r_total=kh / (PI ** 2 * L),
                     khat_c=kh_c, k_integral=kh_w * 2.0 * PI * beta / norm,
                     kpp_integral=kpp_w * 2.0 * PI * beta / norm,
                     f_beta=f / norm)
    zeros.memo["beta_sums"] = ((T, beta), sums)
    return sums


def lemma5_check(zeros: ZeroSet, T: float, beta: float,
                 tol: float = 1e-4) -> CheckReport:
    """Complement-weighted khat pair sum vs its F-side rearrangement.

    LHS: sum over pairs of khat((g-g') log x) * (g-g')^2/(4+(g-g')^2).
    RHS: (pi^2 T / (16 log T)) F(beta)/beta^2
         - (T / (64 pi^4 log T beta^3)) * int F(alpha) k''(alpha/2pi beta).
    Holds for any ordinate set (unconditional rearrangement), so it is
    asserted, not just reported.
    """
    s = _beta_pair_sums(zeros, T, beta)
    logT = math.log(T)
    a = (PI ** 2 * T / (16.0 * logT)) * s.f_beta / beta ** 2
    b = (T / (64.0 * PI ** 4 * logT * beta ** 3)) * s.kpp_integral
    # the two right-hand terms cancel where few ordinates lie below T, so
    # the discrepancy is measured against them as well as against both sides
    return _report("lemma5", {"T": T, "beta": beta}, s.khat_c, a - b, tol,
                   terms=(a, b),
                   detail={"F_beta": s.f_beta, "kpp_integral": s.kpp_integral,
                           "zero_count": s.zero_count})


def lemma6_check(zeros: ZeroSet, T: float, beta: float,
                 tol: float = 1e-6) -> CheckReport:
    """R against its three-term regrouping (Lemma 6), from
    :func:`lemma6_eval`.  Like Lemma 5's rearrangement it holds for any
    ordinate set, so it is asserted; the direct time integral is reported
    in the detail."""
    dec = lemma6_eval(zeros, T, beta)
    return _report(
        "lemma6", {"T": T, "beta": beta}, dec.r_total,
        dec.term_main + dec.term_F_beta - dec.term_k2_integral, tol,
        detail={k: getattr(dec, k) for k in (
            "term_main", "term_F_beta", "term_k2_integral", "r_total_direct")})


@dataclass(frozen=True)
class RDecomposition:
    """Decomposition of the zero-sum second moment R into its three terms.

    ``r_total`` is the plain khat pair sum over (pi^2 log x) and shares its
    khat evaluations with ``term_main``, so the invariant r_total = term_main
    + term_F_beta - term_k2_integral checks the Lemma 5 rearrangement of the
    complement-weighted part of R.  ``r_total_direct`` is the time-domain
    quadrature of the defining integral, at every T.  Its zero sum runs
    over every ordinate of the set, those above T included, so it depends
    on how far the set reaches:
    at T = 500, beta = 0.5 the reference ordinates up to 512 give
    32.16247473609716 and those up to 2000 give 32.1622600056337, 6.7e-6
    apart.  ``r_direct_err`` is the quadrature's error estimate alone
    (8.5e-13 there), not a bound on that dependence.
    """

    r_total: float
    term_main: float
    term_F_beta: float
    term_k2_integral: float
    beta: float
    x: float
    r_total_direct: float
    r_direct_err: float


def _r_time_integral(zeros: ZeroSet, T: float, x: float):
    """int_1^T of the squared zero sum of the explicit formula, directly;
    returns ``(value, error_estimate)``.

    Every ordinate of the set counts at every node, those above T too, as
    in :func:`szeta.s_of_t.s_explicit`: both take the zero sum from the
    tree of :func:`szeta.s_of_t._zero_field`, whose expansions are built
    once here, so a chunk of nodes costs only L2P and the near field.  The
    sum jumps at each ordinate and is smooth between, so every zero gap of
    [1, T] is one segment of the fixed gap rule; its nearest singularities
    sit pi/log x beyond each gap's ends, two panel widths away.  The error
    estimate is the gap rule's alone.
    """
    logx = math.log(x)
    g = zeros.ordinates
    field = _zero_field(g, logx, 1.0, T)
    edges = np.concatenate(([1.0], g[(g > 1.0) & (g < T)], [T]))
    return gap_rule(lambda t: (field(t) / PI) ** 2, edges, omega=logx)


def lemma6_eval(zeros: ZeroSet, T: float, beta: float) -> RDecomposition:
    """Evaluate R and its three-term decomposition from one ordinate set.

    The defining time integral is also computed by quadrature
    (:func:`_r_time_integral`), so the regrouping is checked end to end;
    its difference from the pair-sum route is report-only (the dropped
    remainder is O(log^3 T) scale).  The four pair sums come from
    :func:`_beta_pair_sums`.
    """
    s = _beta_pair_sums(zeros, T, beta)
    x = T ** beta
    logT = math.log(T)
    term_main = T / (2.0 * PI ** 2 * beta) ** 2 * s.k_integral
    term_f = T / (16.0 * logT ** 2) * s.f_beta / beta ** 3
    term_k2 = T / (64.0 * PI ** 6 * beta ** 4 * logT ** 2) * s.kpp_integral
    direct, direct_err = _r_time_integral(zeros, T, x)
    return RDecomposition(r_total=s.r_total, term_main=term_main,
                          term_F_beta=term_f, term_k2_integral=term_k2,
                          beta=beta, x=x, r_total_direct=direct,
                          r_direct_err=direct_err)
