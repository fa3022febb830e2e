"""Pair correlation of zero ordinates and the weighted double sums over pairs.

F(alpha, T) with Montgomery's weight w(u) = 4/(4+u^2), the khat pair sums
(plain, w- or complement-weighted) and the F-weighted kernel integrals are
all sums of an even kernel over ordered ordinate pairs.  One engine, the
tree :class:`_Tree` behind :func:`_pair_sum`, computes them in O(N): pairs
in the same or adjacent leaves of a uniform binary tree are summed directly
with the caller's vectorized kernel, all others through a 1D Chebyshev fast
multipole far field (Greengard-Rokhlin; the black-box FMM of Fong and
Darve, 2009).  Every kernel is Re[K(d) e^(i omega d)] with K smooth away
from d = 0: the Lorentzian w itself for F, and (P - iQ)(d log x) times a
weight for the khat and k'' transforms, whose P cos + Q sin split for
y >= 50 lives in :mod:`szeta.kernels`.  A caller needing several sums
passes one near-field kernel returning them all.  The alpha grid of
:func:`pcf_curve` becomes charge columns, each the one before times a
phase: the far field takes them in passes, and the near field is a batched
product, over each leaf and its right neighbour, of their padded charge
blocks and the matrix of w at the ordinate differences.

Engine callers: :func:`pcf`, :func:`weighted_khat_sum` (the report's R),
:func:`pcf_curve` (through the tree), and :func:`_beta_pair_sums`, five sums
at L = beta log T in one call for Lemmas 5, 6 and 8-10;
:func:`f_weighted_kernel_integral` repeats two of them, one sum per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .errors import DomainError
from .kernels import (_FAST_Y_SWITCH, CheckReport, _report, khat_many,
                      khat_pq, kpp_pq, kpp_transform_many)
from .quadrature import gap_rule
from .s_of_t import _SINH_SWITCH, _sinh_closed, _sinh_series
from .zeros import ZeroSet

PI = math.pi
_P = 20             # Chebyshev nodes per box of the far field
_LEAF = 24          # mean ordinates per leaf the tree aims for
_COLUMNS = 16       # charge columns per far-field pass
_NEAR = 1 << 16     # near-field differences per kernel call
_BATCH = 1 << 14    # charges per leaf batch (256 KB of complex)


def pair_weight(u):
    """Montgomery's pair weight w(u) = 4 / (4 + u^2)."""
    u = np.asarray(u, dtype=float)
    return 4.0 / (4.0 + u * u)


_WEIGHTS = {
    "none": lambda u: 1.0,
    "w": pair_weight,
    "complement": lambda u: u * u / (4.0 + u * u),
}


_NODES = np.cos((2.0 * np.arange(_P) + 1.0) * PI / (2.0 * _P))


def _interp(x):
    """S[i, n]: weight of Chebyshev node n in the degree _P - 1 interpolant
    at x[i] in [-1, 1]."""
    scale = np.full(_P, 2.0 / _P)
    scale[0] = 1.0 / _P
    return (chebvander(x, _P - 1) * scale) @ chebvander(_NODES, _P - 1).T


# M2M: a child's expansion (left, right half) re-expanded on its parent
_M2M = (_interp(0.5 * (_NODES - 1.0)).T, _interp(0.5 * (_NODES + 1.0)).T)


def _columns(first, rot, count):
    """first * rot^k for k = 0 .. count - 1, along a new last axis.

    Column k + j is column j times rot^k, for k = 1, 2, 4, ...: one complex
    multiply per entry and column, no exp, in about log2(count) array
    products.  The phase of column k carries k times the rounding of rot's,
    as a direct exp of k times its argument would.
    """
    q = np.empty((count,) + first.shape, dtype=complex)
    q[0] = first
    k = 1
    while k < count:
        np.multiply(q[:min(k, count - k)], rot, out=q[k:2 * k])
        k *= 2
        if k < count:
            rot = rot * rot
    return np.ascontiguousarray(np.moveaxis(q, 0, -1))


class _Tree:
    """Uniform binary tree over [g[0], g[-1]] with about _LEAF ordinates
    per leaf and leaves at least ``min_width`` wide.

    ``slots[a]`` lists the ordinates of leaf a in order, padded to the
    fullest leaf; ``filled`` marks the slots that hold one.  Both the P2M
    weights and the leaf-pair products of the near field read this layout.
    """

    def __init__(self, g: np.ndarray, min_width: float):
        n = len(g)
        self.g = g
        self.width = float(g[-1] - g[0])
        levels = 0
        while (n / 2 ** (levels + 1) >= _LEAF
               and self.width / 2 ** (levels + 1) >= min_width):
            levels += 1
        self.levels = levels
        n_leaf = 2 ** levels
        self.h = h = self.width / n_leaf
        pos = (g - g[0]) / h if h > 0 else np.zeros(n)
        leaf = np.minimum(pos.astype(np.int64), n_leaf - 1)
        ends = np.searchsorted(leaf, np.arange(n_leaf), "right")
        # near field of ordinate i: i+1 .. lim[i]-1, its leaf and the next
        self.lim = ends[np.minimum(leaf + 1, n_leaf - 1)]
        self.centre = 0.5 * (g[0] + g[-1])
        first = ends - np.diff(ends, prepend=0)
        slot = np.arange(n) - first[leaf]
        shape = (n_leaf, int(slot.max()) + 1)
        self.slots = np.zeros(shape, dtype=np.int64)
        self.slots[leaf, slot] = np.arange(n)
        self.filled = np.zeros(shape, dtype=bool)
        self.filled[leaf, slot] = True
        if levels < 2:
            return
        # P2M as one (node x slot) weight matrix per leaf, zero on padding
        xi = np.clip(2.0 * (pos - leaf) - 1.0, -1.0, 1.0)
        self.p2m = np.zeros((n_leaf, _P, shape[1]))
        self.p2m[leaf, :, slot] = _interp(xi)

    def _batches(self, columns):
        """Leaf ranges [a, b) whose (leaf, slot, column) charges hold about
        _BATCH entries, each with the slot width the near field needs: the
        fullest of leaves a .. b, b for the right neighbour of b - 1."""
        counts = self.filled.sum(axis=1)
        n_leaf, slots = self.slots.shape
        step = max(1, _BATCH // (slots * columns))
        for a in range(0, n_leaf, step):
            b = min(a + step, n_leaf)
            yield a, b, max(int(counts[a:b + 1].max()), 1)

    def near(self):
        """Positive differences g[j] - g[i] of the near pairs, i < j <
        lim[i], in pieces of about _NEAR."""
        g, n = self.g, len(self.g)
        counts = self.lim - np.arange(n) - 1
        cum = np.cumsum(counts)
        start = 0
        while start < n:
            base = cum[start - 1] if start else 0
            stop = max(int(np.searchsorted(cum, base + _NEAR, "right")),
                       start + 1)
            c = counts[start:stop]
            first = np.repeat(cum[start:stop] - c - base, c)
            i = np.repeat(np.arange(start, stop), c)
            j = i + 1 + np.arange(len(i)) - first
            if len(i):
                yield g[j] - g[i]
            start = stop

    def near_columns(self, kernel, step, count) -> np.ndarray:
        """sum over near pairs i < j of Re[kernel(d) exp(i k step d)], d =
        g[j] - g[i], for k = 0 .. count - 1; ``kernel`` real at every d.

        Each leaf a gives Re conj(C_a)^T W_a [C_a; C_b] per column: b is
        the leaf to its right, W_a = kernel(g_j - g_i) for i in a and j in
        a or b, masked to i < j, and C = exp(i k step (g - o)) the charges,
        zero on padding.  The origin o is one leaf edge per batch of
        leaves, so every pair's phase is that of g_j - g_i itself; a phase
        factor between leaf edges would carry their rounding, which near
        t = 1e5 turns the phase of alpha = 4 by about 1e-9.  A batch pads
        its leaves only to the fullest among them, so one leaf holding a
        cluster of ordinates widens no other.
        """
        g = self.g
        n_leaf = len(self.slots)
        out = np.zeros(2 * count)
        for a, b, width in self._batches(count):
            # the batch's leaves and the leaf right of its last one, empty
            # past the end of the tree
            idx = self.slots[a:b + 1, :width]
            filled = self.filled[a:b + 1, :width]
            if b == n_leaf:
                idx = np.concatenate([idx, idx[-1:]])
                filled = np.concatenate([filled, np.zeros_like(filled[-1:])])
            gi = g[idx]
            c = _columns(filled.astype(complex),
                         np.exp(1j * step * (gi - (g[0] + a * self.h))), count)
            pair = np.concatenate([gi[:-1], gi[1:]], axis=1)
            # [C_a; C_b] of every leaf a: consecutive rows of c, as a view
            cf = c.view(float)
            both = np.lib.stride_tricks.as_strided(
                cf, (b - a, 2 * width, 2 * count), cf.strides)
            # W in blocks of rows of about _BATCH entries: one block unless
            # a leaf holds a cluster of ordinates
            rows = max(1, _BATCH // ((b - a) * 2 * width))
            for i in range(0, width, rows):
                r = slice(i, i + rows)
                w = kernel(pair[:, None, :] - gi[:-1, r, None]) \
                    * (np.arange(2 * width) > np.arange(width)[r, None])
                # Re(conj(x) y) = Re x Re y + Im x Im y, on float views
                out += np.einsum("lsk,lsk->k", cf[:-1, r], np.matmul(w, both))
        return out.reshape(count, 2).sum(axis=1)

    def far(self, kernel, omega, step=0.0, count=1) -> np.ndarray:
        """sum over far pairs i < j of Re[kernel(d) exp(i w d)], d = g[j] -
        g[i], for w = omega + k step, k = 0 .. count - 1.

        The charges exp(-i w (g - centre)) of each column are those of the
        column before times exp(-i step (g - centre)); a pass of _COLUMNS
        columns starts from the last column of the pass before.
        """
        out = np.zeros(count)
        if self.levels < 2:
            return out
        # M2L per level: target node m against source node n of the box
        # 2 or 3 boxes to the left
        gap = 0.5 * (_NODES[:, None] - _NODES[None, :])
        m2l = {}
        for lev in range(2, self.levels + 1):
            h = self.width / 2 ** lev
            m2l[lev] = [kernel(off * h + h * gap) for off in (2, 3)]
        x = self.g[self.slots] - self.centre
        q = np.exp(-1j * omega * x)
        rot = np.exp(-1j * step * x) if count > 1 else np.ones_like(q)
        for k in range(0, count, _COLUMNS):
            cols = min(_COLUMNS, count - k)
            m = np.empty((_P, len(x), 2 * cols))
            for a, b, _ in self._batches(cols):
                c = _columns(q[a:b], rot[a:b], cols)
                if k + cols < count:
                    q[a:b] = c[..., -1] * rot[a:b]
                m[:, a:b] = (self.p2m[a:b] @ c.view(float)).transpose(1, 0, 2)
            m = m.view(complex)
            for lev in range(self.levels, 1, -1):
                out[k:k + cols] += _m2l_dot(m2l[lev], m)
                m = _times(_M2M[0], m[:, 0::2]) + _times(_M2M[1], m[:, 1::2])
        return out


def _times(mat, m):
    """mat @ m over the node axis of box expansions m (node, box, column);
    a real mat multiplies the float view of m, half the work of a complex
    product."""
    if np.iscomplexobj(mat):
        return (mat @ m.reshape(_P, -1)).reshape(m.shape)
    return (mat @ m.view(float).reshape(_P, -1)).view(complex).reshape(
        m.shape)


def _m2l_dot(mats, m):
    """Re of the sum over well-separated boxes (source left of target) of
    conj(M_target) . K M_source.  M2L into local expansions followed by
    L2L and L2P against the targets' own charges is this same bilinear
    form, since L2L and L2P are the transposes of M2M and P2M."""
    out = np.zeros(2 * m.shape[2])
    for mat, tgt, src in ((mats[0], m[:, 2:], m[:, :-2]),
                          (mats[1], m[:, 3::2], m[:, 0:-3:2])):
        if tgt.shape[1]:
            # Re(conj(a) b) = Re a Re b + Im a Im b, on float views
            out += np.einsum("pbk,pbk->k", tgt.view(float),
                             _times(mat, src).view(float))
    return out.reshape(-1, 2).sum(axis=1)


def _pair_sum(g: np.ndarray, near, far, min_width: float = 0.0):
    """Sum of an even kernel over all ordered pairs of ``g``, in O(N).

    ``near`` maps positive differences to their kernel sum (a scalar, or a
    vector of several sums).  ``far`` gives the same sums as a list of
    ``(K, omega)``, one output each, with near(d) = Re[K(d) e^(i omega d)]
    wherever d >= ``min_width``; K must be smooth there.  Pairs in the same
    or adjacent leaves of :class:`_Tree` go through ``near``, the rest
    through a Chebyshev far field (black-box FMM: P2M, M2M, M2L on the
    charges e^(-i omega g), p = _P nodes per box).
    """
    g = np.sort(np.asarray(g, dtype=float))
    tree = _Tree(g, min_width)
    total = len(g) * near(np.zeros(1))
    for d in tree.near():
        total = total + 2.0 * near(d)
    far_sums = np.concatenate([tree.far(k, w) for k, w in far])
    return total + 2.0 * far_sums.reshape(np.shape(total))


def _phasor(pq, scale, weight):
    """Far-field kernel of d -> transform(d scale) weight(d) at omega =
    scale: (P - i Q)(d scale) weight(d), with transform = P cos + Q sin
    from :func:`~szeta.kernels.khat_pq` or ``kpp_pq`` (valid for d scale
    >= _FAST_Y_SWITCH, which the leaf width guarantees)."""
    def kernel(d):
        p, q = pq(d * scale)
        return (p - 1j * q) * weight(d)
    return kernel


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
    total = _pair_sum(g, lambda d: np.sum(np.cos(a * d) * pair_weight(d)),
                      [(pair_weight, a)])
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
    if step <= 0 or alpha_max < 1.0:
        raise DomainError("need step > 0 and alpha_max >= 1")
    g = _restrict(zeros, T)
    n_steps = math.ceil(alpha_max / step - 1e-9)
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
    if alpha_cut > grid[-1] + 1e-12 or grid[-1] < 1.0:
        raise DomainError("curve does not cover [1, alpha_cut]")
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
    return float(_pair_sum(g, lambda d: np.sum(khat_many(d * logx) * wt(d)),
                           [(_phasor(khat_pq, logx, wt), logx)],
                           _FAST_Y_SWITCH / logx))


def f_weighted_kernel_integral(zeros: ZeroSet, T: float, beta: float,
                               deriv: bool = False) -> float:
    """int F(alpha) k(alpha/(2 pi beta)) d alpha (or k''), F expanded by
    definition into its pair sum, which turns the integral into kernel
    transforms at the pair differences times log x."""
    g = _restrict(zeros, T)
    logx = beta * math.log(T)
    fn, pq = (kpp_transform_many, kpp_pq) if deriv else (khat_many, khat_pq)
    total = _pair_sum(g, lambda d: np.sum(fn(d * logx) * pair_weight(d)),
                      [(_phasor(pq, logx, pair_weight), logx)],
                      _FAST_Y_SWITCH / logx)
    return float(total) * 2.0 * PI * beta / _normalizer(T)


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
    The three khat sums share each near-field khat evaluation; the w ones
    are :func:`f_weighted_kernel_integral`'s, operation for operation."""
    if not 0.0 < beta < 1.0:
        raise DomainError("beta in (0,1) required")
    if T ** beta <= 1.05:
        raise DomainError("T^beta too close to 1 for a meaningful log x")
    g = _restrict(zeros, T)
    L = beta * math.log(T)
    comp = _WEIGHTS["complement"]

    def sums(d):
        kh = khat_many(d * L)
        w = pair_weight(d)
        return np.array([np.sum(kh), np.sum(kh * w), np.sum(kh * comp(d)),
                         np.sum(kpp_transform_many(d * L) * w),
                         np.sum(np.cos(L * d) * w)])

    far = [(_phasor(khat_pq, L, _WEIGHTS["none"]), L),
           (_phasor(khat_pq, L, pair_weight), L),
           (_phasor(khat_pq, L, comp), L),
           (_phasor(kpp_pq, L, pair_weight), L), (pair_weight, L)]
    kh, kh_w, kh_c, kpp_w, f = map(float, _pair_sum(
        g, sums, far, _FAST_Y_SWITCH / L))
    norm = _normalizer(T)
    return _BetaSums(zero_count=int(len(g)), r_total=kh / (PI ** 2 * L),
                     khat_c=kh_c, k_integral=kh_w * 2.0 * PI * beta / norm,
                     kpp_integral=kpp_w * 2.0 * PI * beta / norm,
                     f_beta=f / norm)


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
    rhs = (PI ** 2 * T / (16.0 * logT)) * s.f_beta / beta ** 2 \
        - (T / (64.0 * PI ** 4 * logT * beta ** 3)) * s.kpp_integral
    return _report("lemma5", {"T": T, "beta": beta}, s.khat_c, rhs, tol,
                   detail={"F_beta": s.f_beta, "kpp_integral": s.kpp_integral,
                           "zero_count": s.zero_count})


def lemma6_check(zeros: ZeroSet, T: float, beta: float,
                 tol: float = 1e-6) -> CheckReport:
    """R against its three-term regrouping (Lemma 6), from
    :func:`lemma6_eval`.  Like Lemma 5's rearrangement it holds for any
    ordinate set, so it is asserted; the direct time integral (T <= 500)
    is reported in the detail."""
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
    complement-weighted part of R.  ``r_total_direct``
    (when present) is the time-domain quadrature of the defining integral,
    feasible at small T only.  Its zero sum runs over every ordinate of the
    set, those above T included, so it depends on how far the set reaches:
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
    r_total_direct: float | None = None
    r_direct_err: float | None = None


# the direct R integrand: blocks of nodes at most _SPAN wide; ordinates
# within _REACH of a block are summed at its every node, all others at
# _CHEB first-kind Chebyshev points of the block and interpolated
_SPAN, _REACH, _CHEB = 6.0, 5.0, 32
_CHEB_X = np.cos((2.0 * np.arange(_CHEB) + 1.0) * PI / (2.0 * _CHEB))
_CHEB_W = (-1.0) ** np.arange(_CHEB) * np.sqrt(1.0 - _CHEB_X ** 2)


def _barycentric(t, x):
    """M[i, k]: weight of the value at Chebyshev point x[k] (``_CHEB_X``
    mapped to the block) in the interpolant at t[i], by the barycentric
    formula; a node equal to a point takes that point's value."""
    d = np.subtract.outer(t, x)
    hit = d == 0.0
    d[hit] = 1.0
    m = _CHEB_W / d
    rows = hit.any(axis=1)
    m[rows] = hit[rows]
    m /= m.sum(axis=1, keepdims=True)
    return m


def _zero_sum(t, g, logx: float):
    """sum_gamma sin(v) I(|v|) with v = (t - gamma) log x, for each node t
    against every ordinate in ``g`` (ascending), block by block.

    The nodes are sorted once and cut into blocks at most ``_SPAN`` wide.
    The ordinates within ``_REACH`` of a block, its near band, are summed
    at its every node.  For all other ordinates, sin((t - gamma) L) is
    split at the block's lowest node c into sin((t - c) L) cos((c - gamma) L)
    + cos((t - c) L) sin((c - gamma) L), so their sum is
    sin((t - c) L) A(t) + cos((t - c) L) B(t) with
    A(t) = sum I(|t - gamma| L) cos((c - gamma) L) and B likewise with sin.
    A and B do not oscillate: they are evaluated at ``_CHEB`` first-kind
    Chebyshev points of the block and interpolated to its nodes
    (:func:`_barycentric`); a block of no more nodes than that takes them
    at its nodes.  Each ordinate takes one form of I at all points of a
    block: the closed form (:func:`szeta.s_of_t._sinh_closed`) if it lies
    within ``_SINH_SWITCH / log x`` of the block or in the near band, the
    series (:func:`szeta.s_of_t._sinh_series`) if farther, so no switch
    falls inside an interpolant.  A closed-form ordinate meets |v| of at
    most 60 + ``_SPAN`` L, or (``_REACH`` + ``_SPAN``) L in the near band,
    where the closed form stays within 8e-14 relative up to |v| = 1000.
    One closed-form call per block takes the near band and the
    interpolated closed-form values together.

    Error: each term of A and B is analytic in t but for its pole at
    t = gamma (the poles of the closed form's digamma lie beyond gamma, on
    the far side from the block).  With the ordinate at least R from a
    block of half-width a, it is analytic inside the Bernstein ellipse
    rho = x + sqrt(x^2 - 1), x = 1 + R/a, and p points leave an error of
    order rho^-p.  With R = ``_REACH`` = 5, a <= ``_SPAN``/2 = 3 and
    p = 32: rho >= 5.1 and rho^-32 <= 2e-23.  Phases measured from c, not
    from 0, keep their arguments as small as the block and its distances to
    the ordinates: products t L and gamma L near t = 1e5 would cost digits.
    """
    t = np.asarray(t, dtype=float)
    order = np.argsort(t)
    ts = t[order]
    s = np.empty(len(t))
    # a margin on the switch's reach leaves only |v| beyond the switch on
    # the series' side, whatever the rounding of (t - gamma) log x
    switch = _SINH_SWITCH / logx * (1.0 + 1e-9)
    i = 0
    while i < len(ts):
        c = ts[i]
        j = int(np.searchsorted(ts, c + _SPAN, "right"))
        tb = ts[i:j]
        top = tb[-1]
        a, b, a2, b2 = np.searchsorted(
            g, [c - _REACH, top + _REACH, c - switch, top + switch])
        a2, b2 = min(a2, a), max(b2, b)
        pts = tb if j - i <= _CHEB else \
            0.5 * (c + top) + 0.5 * (top - c) * _CHEB_X
        near = np.subtract.outer(tb, g[a:b])
        near *= logx
        sin_near = np.sin(near)
        np.abs(near, out=near)
        near[near == 0.0] = 1.0    # sin(v) = 0 there: the midpoint value 0
        far = np.concatenate((g[a2:a], g[b:b2], g[:a2], g[b2:]))
        k = (a - a2) + (b2 - b)    # the closed-form ones come first
        closed = np.subtract.outer(pts, far[:k])
        closed *= logx
        np.abs(closed, out=closed)
        both = _sinh_closed(np.concatenate((near.ravel(), closed.ravel())))
        sin_near *= both[:near.size].reshape(near.shape)
        sb = sin_near.sum(axis=1)
        iv2 = np.subtract.outer(pts, far[k:])
        iv2 *= logx
        iv2 *= iv2
        np.reciprocal(iv2, out=iv2)
        ph = (c - far) * logx
        cs = np.stack((np.cos(ph), np.sin(ph)), 1)
        ab = both[near.size:].reshape(closed.shape) @ cs[:k]
        ab += _sinh_series(iv2) @ cs[k:]
        if pts is not tb:
            ab = _barycentric(tb, pts) @ ab
        u = (tb - c) * logx
        sb += np.sin(u) * ab[:, 0] + np.cos(u) * ab[:, 1]
        s[order[i:j]] = sb
        i = j
    return s


def _r_time_integral(zeros: ZeroSet, T: float, x: float):
    """int_1^T of the squared zero sum of the explicit formula, directly;
    returns ``(value, error_estimate)``.

    Every ordinate of the set counts at every node, those above T too (no
    window: a moving window would put kinks inside the integration
    intervals).  Those within ``_REACH`` of a block of nodes are summed at
    each node, all others interpolated over the block (:func:`_zero_sum`).
    The sum jumps at each ordinate and is smooth between, so every zero gap
    of [1, T] is one segment of the fixed gap rule; its nearest
    singularities sit pi/log x beyond each gap's ends, two panel widths
    away.  The error estimate is the gap rule's alone.
    """
    logx = math.log(x)
    g = zeros.ordinates

    def zero_sum_sq(t):
        s = _zero_sum(t, g, logx)
        s /= PI
        return s * s

    edges = np.concatenate(([1.0], g[(g > 1.0) & (g < T)], [T]))
    return gap_rule(zero_sum_sq, edges, omega=logx)


def lemma6_eval(zeros: ZeroSet, T: float, beta: float,
                direct_limit: float = 500.0) -> RDecomposition:
    """Evaluate R and its three-term decomposition from one ordinate set.

    For T <= direct_limit the defining time integral is also computed by
    quadrature so the regrouping can be sanity-checked end to end; its
    difference from the pair-sum route is report-only (the dropped
    remainder is O(log^3 T) scale).  The four pair sums come from
    :func:`_beta_pair_sums`.
    """
    s = _beta_pair_sums(zeros, T, beta)
    x = T ** beta
    logT = math.log(T)
    term_main = T / (2.0 * PI ** 2 * beta) ** 2 * s.k_integral
    term_f = T / (16.0 * logT ** 2) * s.f_beta / beta ** 3
    term_k2 = T / (64.0 * PI ** 6 * beta ** 4 * logT ** 2) * s.kpp_integral
    direct = direct_err = None
    if T <= direct_limit:
        direct, direct_err = _r_time_integral(zeros, T, x)
    return RDecomposition(r_total=s.r_total, term_main=term_main,
                          term_F_beta=term_f, term_k2_integral=term_k2,
                          beta=beta, x=x, r_total_direct=direct,
                          r_direct_err=direct_err)
