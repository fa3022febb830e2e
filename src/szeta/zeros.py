"""Zero ordinates on the critical line: compute, validate, import, export.

Z(t) is evaluated two ways behind one dispatcher: an Euler-Maclaurin route
below ``RS_MIN_T`` (about t/pi cosines per point and 30 Bernoulli terms,
error about 5e-13), and the Riemann-Siegel main sum with three correction
terms from there on (cost O(sqrt(t)), measured error below 1.5e-7 for
t >= 500, transitions of the main sum included).  Both routes sum in
blocks of bounded size, and a point's value depends on that point alone.
Zero finding evaluates Z at the Gram points, subdivides only the Gram
blocks that show fewer sign changes than Rosser's rule asks for, proves
the count by Turing's method (Brent 1979) and polishes all brackets
together by safeguarded Anderson-Bjorck regula falsi, spreading every Z
evaluation over the worker threads.  Imported sets are certified by the
same count.  A :class:`ZeroSet` answers for its own range: it refuses a
height above its top, in one message, or one at which its count is not
proved, and lays out the zero gaps of an interval.

Only ordinates are stored: the real part is pinned at 1/2 throughout the
toolkit (standing hypothesis of every formula it checks).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import (CoverageError, DomainError, MissedZerosError,
                     ZerosParseError)
from .kernels import _ABS_BERNOULLI, _tables

TWO_PI = 2.0 * math.pi
RS_MIN_T = 500.0          # Euler-Maclaurin below, Riemann-Siegel above
THETA_MIN_T = 10.0        # validity floor of the asymptotic theta series
# stands in for g_-1 = 9.67: Z < 0 there and no zero lies below 14.13
_SCAN_START = 10.0
_LEHMAN_MIN_T = 168.0 * math.pi   # Turing windows must start above this
# top of the supported range: find_zeros' cap, and the height above which
# an imported set is not certified (Z is not evaluated there)
_MAX_T = 1e5
_MARGIN = 16              # Gram points scanned past a window's estimate
_REFINE = (4, 16, 64)     # subdivisions of the intervals of a short block
_POLISH_WIDTH = 1e-9      # bracket width at which a root is done
_POLISH_MARGIN = 0.45e-9  # least distance of a polish step from its ends
_Z_PIECE = 1 << 16        # points per Z call of the scan and the polish
_PARSE_BLOCK = 1 << 16    # characters of zeros text split into lines at once

# B_2n for n = 1..8, signed
_BERNOULLI = [float(b) * (-1) ** (n + 1)
              for n, b in enumerate(_ABS_BERNOULLI[:8], 1)]
_EM_TERMS = 30            # Bernoulli terms of the Euler-Maclaurin tail
# B_2k/(2k)! for k = 1..30: exact from the table up to k = 10, beyond it
# (-1)^(k+1) 2 zeta(2k)/(2 pi)^(2k), zeta(2k) summed to n = 7 (8^-22 is
# below 1e-17 of it)
_EM_COEF = [float(b / math.factorial(2 * k)) * (-1) ** (k + 1)
            for k, b in enumerate(_ABS_BERNOULLI, 1)] \
    + [(-1) ** (k + 1) * 2.0 * math.fsum(j ** (-2.0 * k) for j in range(1, 8))
       / TWO_PI ** (2 * k)
       for k in range(len(_ABS_BERNOULLI) + 1, _EM_TERMS + 1)]
# (1 - 2^(1-2n)) |B_2n| / (4n (2n-1)) for n = 1..4
_THETA_COEF = [float((1 - Fraction(2) ** (1 - 2 * n)) * b
                     / (4 * n * (2 * n - 1)))
               for n, b in enumerate(_ABS_BERNOULLI[:4], 1)]


def theta(t):
    """Riemann-Siegel theta at every real t, a number or an array.

    From t = 10 the asymptotic series (:func:`_theta_series`); below, where
    the series degenerates (its expansion point is stationary near
    t = 2 pi), the log-Gamma form :func:`theta_exact`, which also gives
    theta's odd values at t < 0.  A number runs on NumPy scalars, or on a
    one-element array below 10, so it gets an array element's bits.
    """
    arr = np.asarray(t, dtype=float)[()]     # a NumPy scalar for a number
    below = arr < THETA_MIN_T
    if below.any():
        val = np.empty_like(arr)
        val[below] = theta_exact(arr[below])
        val[~below] = _theta_series(arr[~below])
    else:
        val = _theta_series(arr)
    return float(val) if np.isscalar(t) else val


def _theta_series(arr):
    """theta by its asymptotic series at t >= 10, on an array or a NumPy
    scalar: truncation error below 1e-12 there with four terms."""
    val = 0.5 * arr * np.log(arr / TWO_PI) - 0.5 * arr - math.pi / 8.0
    # c_n t^(1-2n) with the powers by recurrence in 1/t^2, no `**`, each
    # term added in series order so that theta rounds as the term-by-term
    # series does (a Horner sum added once differs by an ulp at a quarter
    # of the points, and the polished zeros move with it)
    u = 1.0 / (arr * arr)
    power = 1.0 / arr
    val += _THETA_COEF[0] * power
    for c in _THETA_COEF[1:]:
        power *= u
        val += c * power
    return val


_GAMMA_SHIFT = 8       # theta_exact's Stirling series runs at |z| >= 8.25


def theta_exact(t):
    """theta via the log-Gamma function, valid for every real t.

    theta(t) = Im log Gamma(z) - (t/2) log pi with z = 1/4 + i t/2, and
    Im log Gamma(z) = Im log Gamma(z + 8) - sum_{j<8} arg(z + j), the
    continuous branch since every z + j lies in the right half plane.  At
    z + 8 Stirling's series with the eight Bernoulli terms of
    ``_BERNOULLI`` is below 1e-16.  It runs on a 1-d view of t, a number
    included, so a number gets the bits it has as an array element
    (NumPy's complex scalar arithmetic rounds differently from its array
    loops).
    """
    arr = np.asarray(t, dtype=float)
    flat = arr.reshape(-1)
    z = 0.25 + 0.5j * flat
    shift = sum(np.angle(z + j) for j in range(_GAMMA_SHIFT))
    w = z + _GAMMA_SHIFT
    iw2 = 1.0 / (w * w)
    acc = np.zeros_like(w)
    for k in range(len(_BERNOULLI), 0, -1):
        acc = iw2 * acc + _BERNOULLI[k - 1] / (2 * k * (2 * k - 1))
    stirling = (w - 0.5) * np.log(w) - w + acc / w
    val = stirling.imag - shift - 0.5 * flat * math.log(math.pi)
    return float(val[0]) if np.isscalar(t) else val.reshape(arr.shape)


# ----------------------------------------------------------------------
# Z sums in blocks, and the Euler-Maclaurin route
# ----------------------------------------------------------------------

# points x terms of one block of a Z sum: bounds the temporaries of both
# routes to a few arrays of this many elements, whatever the height
_Z_BLOCK = 1 << 20


def _blocks(lengths: np.ndarray):
    """(length, indices) blocks of points sharing one sum length, each of at
    most ``_Z_BLOCK`` points x terms.

    Every point's sum has exactly its own length, whatever else is
    evaluated with it, so Z does not depend on how callers split their
    points: work spread over threads gives bit-identical values.
    """
    order = np.argsort(lengths, kind="stable")
    starts = np.flatnonzero(np.diff(lengths[order])) + 1
    for grp in np.split(order, starts) if len(order) else ():
        n = int(lengths[grp[0]])
        step = max(1, _Z_BLOCK // n)
        for lo in range(0, len(grp), step):
            yield n, grp[lo:lo + step]


def _cos_sum(ts: np.ndarray, th: np.ndarray, lengths: np.ndarray):
    """sum_{n<=length} n^-1/2 cos(theta - t log n) per point, one block of
    points sharing a length at a time."""
    out = np.empty(len(ts))
    for nmax, ix in _blocks(lengths):
        n = np.arange(1, nmax + 1, dtype=float)
        phases = np.outer(ts[ix], np.log(n))
        np.subtract(th[ix, None], phases, out=phases)
        np.cos(phases, out=phases)
        phases *= 1.0 / np.sqrt(n)
        out[ix] = phases.sum(axis=1)
    return out


def _em_length(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin cut N >= t/pi + 6, rounded up to a multiple of 16 so
    that points of similar height share a block of the main sum."""
    return 16 * np.ceil((ts / math.pi + 6.0) / 16.0).astype(int)


def _z_em(ts: np.ndarray) -> np.ndarray:
    """Z(t) for t >= 10 by Euler-Maclaurin summation of zeta(1/2 + i t).

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k<=m} B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1) + R
    with N = :func:`_em_length` and m = ``_EM_TERMS`` = 30.  Rotated by
    e^(i theta), the main sum is real, sum_{n<N} n^-1/2 cos(theta - t log n),
    one cosine per term; the tail is one complex expression per point.  The
    remainder obeys |R| <= |s+2m+1| / (sigma+2m+1) |T_m+1| (Edwards,
    Riemann's Zeta Function, 6.4), T_m+1 the first omitted term, and this
    N makes that bound below 1e-16 for every 10 <= t <= 500, so the error
    is rounding, about 5e-13 against mpmath there.  The cost is about t/pi
    cosines per point.
    """
    lengths = _em_length(ts)
    th = theta(ts)
    out = _cos_sum(ts, th, lengths - 1)
    s = 0.5 + 1j * ts
    N = lengths.astype(float)
    u = 1.0 / (N * N)
    # sum_k c_k s(s+1)...(s+2k-2) N^(1-2k), nested from the smallest term
    acc = np.full(len(ts), _EM_COEF[-1], dtype=complex)
    for k in range(_EM_TERMS - 1, 0, -1):
        acc = _EM_COEF[k - 1] + acc * (s + (2 * k - 1)) * (s + 2 * k) * u
    tail = N / (s - 1.0) + 0.5 + acc * s / N
    phase = th - ts * np.log(N)
    out += (np.cos(phase) * tail.real - np.sin(phase) * tail.imag) / np.sqrt(N)
    return out


# ----------------------------------------------------------------------
# Riemann-Siegel branch
# ----------------------------------------------------------------------

@functools.cache
def _rs_tables():
    """The correction coefficients as one Chebyshev series in p on [0, 1]
    each: C0 = Psi, C1 = -Psi'''/(96 pi^2),
    C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4), with
    Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p).  Read from
    ``tables.npy``, which ``python scripts/make_tables.py`` builds from a
    degree-24 interpolant of Psi and its derivatives."""
    tables = _tables()
    return tuple(Chebyshev(tables[f"rs_c{i}"], domain=[0.0, 1.0])
                 for i in range(3))


def _z_rs(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z: main sum plus the three correction terms of
    :func:`_rs_tables`."""
    C0, C1, C2 = _rs_tables()
    tau = ts / TWO_PI
    rt = np.sqrt(tau)
    N = rt.astype(int)
    p = rt - N
    main = 2.0 * _cos_sum(ts, theta(ts), N)
    corr = C0(p) + C1(p) / rt + C2(p) / tau
    sign = np.where(N % 2 == 1, 1.0, -1.0)
    return main + sign * tau ** (-0.25) * corr


def riemann_siegel_Z(t):
    """Real rotated zeta Z(t); sign changes locate zero ordinates.

    Euler-Maclaurin (:func:`_z_em`) below ``RS_MIN_T``, its truncation
    bounded below 1e-16 and its error against mpmath about 5e-13, and the
    corrected Riemann-Siegel sum (:func:`_z_rs`) from there on, next to the
    main-sum transitions (sqrt(t/2pi) near an integer) too.  Measured
    against Euler-Maclaurin on a dense grid over [500, 1500] and at
    sqrt(t/2pi) = n +- 1e-4, the error is below 1.5e-7, largest near
    t = 500 and falling as t grows, hence under 1e-6 across the supported
    range t <= 1e5.  Both routes sum in blocks of bounded size, so memory
    does not grow with t.
    """
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(ts) & (ts >= THETA_MIN_T)):
        raise DomainError("Z supported for finite t >= 10")
    out = np.empty_like(ts)
    low = ts < RS_MIN_T
    if np.any(low):
        out[low] = _z_em(ts[low])
    if not np.all(low):
        out[~low] = _z_rs(ts[~low])
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# zero sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSet:
    """Ascending zero ordinates up to t_max.

    ``claimed_complete`` records that Turing's method proved the count:
    exactly N(t_max) ordinates, none missing up to t_max (for an imported
    set, on the assumption that each listed ordinate is a zero).  Readers
    ask the set about its range (``check_cover``, ``check_count``,
    ``gap_edges``) instead of testing t_max or the claim themselves.
    Immutable, ``ordinates`` included: it is a read-only array, a copy of
    a caller's writeable one.  Safe to share across threads.  ``memo``
    holds values derived from the set by its readers (the pair sums of
    :func:`szeta.paircorr._beta_pair_sums` at the last (T, beta) asked),
    so they live and die with the set; :func:`dataclasses.replace` starts
    a new set with an empty one.
    """

    ordinates: np.ndarray
    t_max: float
    source: str = "computed"
    claimed_complete: bool = False
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        g = np.asarray(self.ordinates, dtype=float)
        if g.flags.writeable:
            g = g.copy()
            g.flags.writeable = False
        object.__setattr__(self, "ordinates", g)
        if len(g) == 0:
            raise DomainError("empty zero set")
        # each test passes only on numbers: a NaN fails every one of them
        if not np.all(np.isfinite(g)):
            raise DomainError("ordinates must be finite")
        if not np.all(g > 1.0):
            raise DomainError("ordinates must exceed 1")
        gaps = np.diff(g)
        if not np.all(gaps > 0.0):
            raise DomainError("ordinates must be strictly increasing")
        if not np.all(gaps < 10.0):
            raise DomainError("implausible gap between consecutive ordinates")
        if not g[-1] <= self.t_max < math.inf:
            raise DomainError(f"t_max must be finite and at least the last "
                              f"ordinate: {self.t_max}")
        if self.source not in ("computed", "imported"):
            raise DomainError("source must be computed|imported")

    def __len__(self):
        return len(self.ordinates)

    def count_up_to(self, t: float) -> float:
        """N(t) with weight 1/2 exactly at an ordinate: one search, the
        ordinates being distinct."""
        g = self.ordinates
        left = g.searchsorted(t, "left")
        return left + 0.5 * (g.take(left, mode="clip") == t)

    def up_to(self, t: float) -> np.ndarray:
        return self.ordinates[self.ordinates <= t]

    def check_cover(self, t: float) -> None:
        """Refuse, as CoverageError, a height t above t_max, NaN included."""
        if not t <= self.t_max:
            raise CoverageError(f"zero set does not cover t = {t:.12g} "
                                f"(it ends at {self.t_max:.12g})")

    def check_count(self, t: float) -> None:
        """Refuse a height t at which the set's count is not N(t): a set not
        proved complete, or one that does not cover t."""
        if not self.claimed_complete:
            raise DomainError("zero set not validated as complete")
        self.check_cover(t)

    def gap_edges(self, lo: float, hi: float) -> np.ndarray:
        """[lo, the ordinates strictly inside (lo, hi), hi]: the zero gaps
        of [lo, hi], the head below the first ordinate included."""
        g = self.ordinates
        return np.concatenate(([lo], g[(g > lo) & (g < hi)], [hi]))


def gram_points(n):
    """Gram points g_n, where theta(g_n) = n pi, for integers n >= 0.

    Newton's method on :func:`theta`, started from the solution of theta's
    leading terms, g = 2 pi e exp(W(x)) with x = (8n + 1)/(8e) and W the
    Lambert function; four steps reach rounding level.  W(x) itself comes
    from eight Newton steps on w e^w = x started at log(1 + x), which lies
    above W(x), where the convex w e^w makes Newton's steps fall
    monotonically onto the root.
    """
    arr = np.asarray(n, dtype=float)
    if np.any(arr < 0):
        raise DomainError("Gram points need n >= 0")
    x = (8.0 * arr + 1.0) / (8.0 * math.e)
    w = np.log1p(x)
    for _ in range(8):
        ew = np.exp(w)
        w = w - (w * ew - x) / (ew * (w + 1.0))
    g = TWO_PI * math.e * np.exp(w)
    for _ in range(4):
        g = g - (theta(g) - arr * math.pi) / (0.5 * np.log(g / TWO_PI))
    return float(g) if np.isscalar(n) else g


def _gram_z(lo: int, hi: int, z):
    """Gram indices lo..hi, their points and Z there; index -1 stands for
    ``_SCAN_START``."""
    idx = np.arange(lo, hi + 1)
    t = gram_points(np.maximum(idx, 0))
    t[idx < 0] = _SCAN_START
    return idx, t, z(t)


def _turing_blocks(t: float) -> float:
    """Least number of Rosser blocks in a Turing window ending at t
    (Brent 1979, Theorem 3.2)."""
    L = math.log(t)
    return 0.0061 * L * L + 0.08 * L


def _window_above(t, good, top):
    """Positions (g_n, g_q) of the first Turing window whose start g_n is a
    good Gram point at or above ``top``, or None if the samples end first."""
    i = int(np.searchsorted(t[good], top))
    for k in range(1, len(good) - i):
        if k >= _turing_blocks(t[good[i + k]]):
            return good[i], good[i + k]
    return None


def _subdivide(rt, rz, f, z):
    """Rows of samples over Gram intervals, refined to f sub-intervals each;
    Z at the new points in one call."""
    step = f // (rt.shape[1] - 1)
    s = np.arange(f + 1)
    new = s % step != 0
    nt = np.empty((len(rt), f + 1))
    nz = np.empty_like(nt)
    nt[:, ::step], nz[:, ::step] = rt, rz
    pts = rt[:, :1] + (rt[:, -1:] - rt[:, :1]) * (s[new] / f)
    nt[:, new] = pts
    nz[:, new] = z(pts.ravel()).reshape(pts.shape)
    return nt, nz


def _rosser_brackets(t, zt, good, z):
    """Sign-change brackets (lo, hi, z_lo, z_hi) of Z over the Gram blocks
    between consecutive good points ``good`` (positions into t), ascending.

    Rosser's rule: a block of k Gram intervals holds at least k zeros.  The
    intervals of every block showing fewer sign changes are subdivided x4,
    x16 and x64, one Z call per round; a block still short raises
    :class:`MissedZerosError` with the block as its gap.
    """
    need = np.diff(good)
    block = np.repeat(np.arange(len(need)), need)
    edges = np.arange(good[0], good[-1])
    rt = np.stack([t[edges], t[edges + 1]], axis=1)
    rz = np.stack([zt[edges], zt[edges + 1]], axis=1)
    parts = []
    for f in (1,) + _REFINE:
        if f > 1:
            rt, rz = _subdivide(rt, rz, f, z)
        flips = rz[:, :-1] * rz[:, 1:] < 0.0
        found = np.bincount(block, weights=flips.sum(axis=1),
                            minlength=len(need))
        done = found[block] >= need[block]
        dt, dz = rt[done], rz[done]
        r, c = np.nonzero(flips[done])
        parts.append(np.stack([dt[r, c], dt[r, c + 1],
                               dz[r, c], dz[r, c + 1]]))
        rt, rz, block = rt[~done], rz[~done], block[~done]
        if not len(block):
            break
    else:
        j = block[0]
        gap = (float(t[good[j]]), float(t[good[j + 1]]))
        raise MissedZerosError(
            f"Gram block [{gap[0]:.6f}, {gap[1]:.6f}) shows fewer than its "
            f"{need[j]} sign changes after x{_REFINE[-1]} refinement",
            gap=gap)
    out = np.concatenate(parts, axis=1)
    return out[:, np.argsort(out[0], kind="stable")]


def _turing_count(t_max: float, z, from_start: bool):
    """Zeros around t_max, counted by Turing's method.

    Scans Z at Gram points from a base g_b to the end of a Turing window
    whose start g_n is the first good Gram point at or above
    max(t_max, 168 pi), which proves N(g_n) <= n + 1 (Brent 1979, Theorem
    3.2, with Lehman's bound).  The base is ``_SCAN_START``, where N = 0,
    when ``from_start``; otherwise it is the last good Gram point
    g_b <= t_max, and if a Turing window ending there fits above 168 pi it
    proves N(g_b) >= b + 1.  Every Gram block in between must satisfy
    Rosser's rule (see :func:`_rosser_brackets`).  With the base proved,
    anything but exactly n - b sign changes in [g_b, g_n) raises
    :class:`MissedZerosError`; exactly n - b prove N(g_b) = b + 1 and one
    zero per bracket.

    Returns (g_b, n + 1, brackets in [g_b, g_n)).
    """
    top = max(t_max, _LEHMAN_MIN_T)
    # theta(g_m) = m pi: g_m <= t < g_m+1 for m = floor(theta(t) / pi)
    lo = -1 if from_start else int(theta(t_max) / math.pi) - _MARGIN
    hi = int(theta(top) / math.pi) + _MARGIN
    while True:
        idx, t, zt = _gram_z(max(lo, -1), hi, z)
        good = np.flatnonzero(np.where(idx % 2 == 0, zt, -zt) > 0.0)
        above = _window_above(t, good, top)
        # too few samples (rare): widen the scan and take it again
        if above is None:
            hi += _MARGIN
            continue
        if idx[0] < 0:
            start = base = 0
            break
        j = int(np.searchsorted(t[good], t_max, "right")) - 1
        k = max(1, math.ceil(_turing_blocks(t[good[j]]))) if j >= 0 else 1
        if j >= k and t[good[j - k]] >= _LEHMAN_MIN_T:
            start, base = good[j - k], good[j]
            break
        if j >= 0 and t[0] < _LEHMAN_MIN_T:
            start = base = good[j]          # no lower window fits
            break
        lo -= _MARGIN
    n = above[0]
    scan = good[(good >= start) & (good <= above[1])]
    br = _rosser_brackets(t, zt, scan, z)
    br = br[:, (br[0] >= t[base]) & (br[0] < t[n])]
    proved = start < base or idx[0] < 0
    if proved and br.shape[1] != idx[n] - idx[base]:
        raise MissedZerosError(
            f"{br.shape[1]} sign changes in [{t[base]:.6f}, {t[n]:.6f}), "
            f"Turing's method allows {idx[n] - idx[base]}",
            gap=(float(t[base]), float(t[n])))
    return float(t[base]), int(idx[n]) + 1, br


def _z_pieces(ts: np.ndarray, pool, workers: int) -> np.ndarray:
    """Z at ts in contiguous pieces spread over ``pool``: at least one per
    worker and at most ``_Z_PIECE`` points each, which bounds the per-point
    temporaries of a call whatever the grid size."""
    k = max(workers, -(-len(ts) // _Z_PIECE))
    parts = np.array_split(np.arange(len(ts)), k)
    out = np.empty(len(ts))
    for idx, res in zip(parts, pool.map(
            lambda ix: riemann_siegel_Z(ts[ix]), parts)):
        out[idx] = res
    return out


def _polish(lo, hi, f_lo, f_hi, z):
    """Roots of all brackets together by safeguarded regula falsi.

    Anderson-Bjorck steps (Anderson & Bjorck 1973: the function value kept
    at an end that survives twice is scaled by 1 - f(c)/f(b), b the end
    that c replaced, or halved as in Illinois where that factor is not
    positive), each at least ``_POLISH_MARGIN`` inside its bracket, so
    once a step lands within that margin of the root the next one closes
    the bracket; a bisection step follows any three steps that did not
    halve the width.  Stops at width <= ``_POLISH_WIDTH``; returns the
    midpoints.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    # the active brackets only, each sweep; finished ones go back to lo, hi
    act = np.flatnonzero(hi - lo > _POLISH_WIDTH)
    a, b = lo[act], hi[act]
    fa, fb = (np.asarray(f, dtype=float)[act] for f in (f_lo, f_hi))
    side = np.zeros(len(act), dtype=int)      # end replaced last: -1 lo, 1 hi
    ref = b - a                               # width at the last halving
    stall = np.zeros(len(act), dtype=int)
    while len(act):
        c = np.where(stall >= 3, 0.5 * (a + b), b - fb * (b - a) / (fb - fa))
        c = np.clip(c, a + _POLISH_MARGIN, b - _POLISH_MARGIN)
        fc = z(c)
        to_lo = np.sign(fc) != np.sign(fb)    # root in [c, b]: c is new lo
        keep_hi = to_lo & (side == -1)
        keep_lo = ~to_lo & (side == 1)
        m = 1.0 - fc / np.where(to_lo, fa, fb)
        m = np.where(m > 0.0, m, 0.5)
        a, b = np.where(to_lo, c, a), np.where(to_lo, b, c)
        fa, fb = (np.where(to_lo, fc, np.where(keep_lo, m * fa, fa)),
                  np.where(to_lo, np.where(keep_hi, m * fb, fb), fc))
        side = np.where(to_lo, -1, 1)
        w = b - a
        halved = w <= 0.5 * ref
        ref = np.where(halved, w, ref)
        stall = np.where(halved, 0, stall + 1)
        going = w > _POLISH_WIDTH
        if not going.all():
            done = ~going
            lo[act[done]], hi[act[done]] = a[done], b[done]
            act, a, b, fa, fb, side, ref, stall = (
                v[going] for v in (act, a, b, fa, fb, side, ref, stall))
    return 0.5 * (lo + hi)


def find_zeros(t_max: float, threads: int | None = None) -> ZeroSet:
    """All zero ordinates up to t_max (15 <= t_max <= 1e5), proved complete.

    Z is evaluated at the Gram points up to a Turing window past
    max(t_max, 168 pi); Gram blocks short of sign changes are subdivided
    (see :func:`_rosser_brackets`), and the count below the window is
    checked against Turing's bound.  The brackets below t_max are then
    polished together to width 1e-9.  Every Z evaluation is spread over
    ``threads`` worker threads, clamped to [1, cores], all cores when it is
    None; the ordinates do not depend on it.  Raises
    :class:`MissedZerosError` when a block stays short or the count
    disagrees with the bound.
    """
    if not 15.0 <= t_max <= _MAX_T:
        raise DomainError(f"find_zeros supports 15 <= t_max <= {_MAX_T:g}")
    cores = os.cpu_count() or 1
    workers = cores if threads is None else min(max(1, threads), cores)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        def z(ts):
            return _z_pieces(ts, pool, workers)

        _, _, br = _turing_count(float(t_max), z, from_start=True)
        br = br[:, br[0] < t_max]
        roots = _polish(*br, z)
    return ZeroSet(ordinates=roots[roots <= t_max], t_max=float(t_max),
                   source="computed", claimed_complete=True)


def _import_certified(ordinates: np.ndarray) -> bool:
    """Whether Turing's count around the last ordinate proves the set
    complete (see :func:`import_zeros`); never above the supported
    range, where no Z is evaluated."""
    t_max = float(ordinates[-1])
    if not _SCAN_START <= t_max <= _MAX_T:
        return False
    try:
        base_t, bound, br = _turing_count(t_max, riemann_siegel_Z,
                                          from_start=False)
    except MissedZerosError:
        return False
    below = int(np.searchsorted(ordinates, base_t))
    return (below + br.shape[1] == bound
            and len(ordinates) == below + int(np.count_nonzero(br[0] < t_max)))


def import_zeros(text: str) -> ZeroSet:
    """Parse the zeros text format: one ascending decimal per line,
    '#' comments allowed, LF endings.

    ``claimed_complete`` is set by Turing's count around the last ordinate
    t_max, taking each listed ordinate as a zero.  Z at the Gram points of
    a window above t_max bounds N(g_n) <= n + 1 at its start; the listed
    ordinates below the last good Gram point g_b <= t_max plus the sign
    changes in [g_b, g_n) must reach that bound, so none is missing, and
    the ordinates in [g_b, t_max] must match the brackets there.  Where a
    window below t_max fits above 168 pi, it proves N(g_b) = b + 1 and the
    listed count below g_b must equal it, which also catches extra
    ordinates.  A set that ends above 1e5, the top of the supported range,
    is not certified.
    """
    arr = _parse_ordinates(text)
    # validate first: the certificate's cost grows with t_max
    zs = ZeroSet(ordinates=arr, t_max=float(arr[-1]), source="imported")
    return replace(zs, claimed_complete=_import_certified(arr))


def _text_blocks(text: str):
    """The lines of text, as ``text.splitlines()`` lists them, in blocks
    of about _PARSE_BLOCK characters: (number of the block's first line,
    counted from 1, and its lines).  A block ends just after an LF, which
    ends a line wherever it stands, so the blocks' lines are the text's."""
    number = pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _PARSE_BLOCK) + 1 or len(text)
        lines = text[pos:end].splitlines()
        yield number + 1, lines
        number += len(lines)
        pos = end


def _refuse_first_fault(lines, number, last):
    """Raise ZerosParseError for the first line of a block, numbered from
    ``number``, that is not a decimal or not above the ordinate before it
    (``last``, None at the first)."""
    for i, line in enumerate(lines, number):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            val = float(line)
        except ValueError:
            raise ZerosParseError(f"line {i}: not a decimal: {line!r}",
                                  line_number=i) from None
        if last is not None and val <= last:
            raise ZerosParseError(
                f"line {i}: ordinate {val!r} not increasing", line_number=i)
        last = val


def _parse_ordinates(text: str) -> np.ndarray:
    """The ordinates of a zeros text as a read-only array: each line
    stripped, blank and '#' lines skipped, every other one a Python float
    above the one before.  The text is read a block of lines at a time
    into one array sized by its LF count, with no list of the lines or
    values of the whole text; a block with a fault is read again line by
    line, so that the first faulty line is the one named."""
    out = np.empty(text.count("\n") + 1)
    n = 0
    for number, lines in _text_blocks(text):
        kept = [s for s in map(str.strip, lines)
                if s and not s.startswith("#")]
        try:
            vals = np.fromiter(map(float, kept), float, len(kept))
        except ValueError:
            vals = None
        last = float(out[n - 1]) if n else None
        if (vals is None or np.any(vals[1:] <= vals[:-1])
                or (len(vals) and last is not None and vals[0] <= last)):
            _refuse_first_fault(lines, number, last)
        if n + len(vals) > len(out):    # line breaks other than LF
            out = np.concatenate((out[:n], np.empty(n + len(vals))))
        out[n:n + len(vals)] = vals
        n += len(vals)
    if not n:
        raise ZerosParseError("no ordinates in the text", line_number=0)
    out.resize(n, refcheck=False)       # in place: the array is ours alone
    out.flags.writeable = False         # so ZeroSet takes it without a copy
    return out


def export_zeros(zs: ZeroSet) -> str:
    """Render a ZeroSet in the zeros text format.

    Ordinates use shortest round-trip decimals, so export -> import
    reproduces the floats exactly and the output depends only on the
    ordinate list (byte-stable; no derived state in the header).
    """
    body = "\n".join(repr(float(g)) for g in zs.ordinates)
    return f"# zeta zero ordinates, one per line, ascending\n{body}\n"
