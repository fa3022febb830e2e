"""Zero ordinates on the critical line: compute, validate, import, export.

Z(t) is evaluated two ways behind one dispatcher: an Euler-Maclaurin route
(near machine precision, cost O(t) per point) below ``RS_MIN_T``, and the
Riemann-Siegel main sum with three correction terms from there on (cost
O(sqrt(t)), measured error below 1.5e-7 for t >= 500, transitions of the
main sum included).  Both routes sum in blocks of bounded size.  Zero
finding scans a grid for sign changes and runs all bisections in lockstep
as vectorized array operations, spreading every Z evaluation over the
worker threads, then validates the count against the smooth counting term
theta(t)/pi + 1, refining the grid on any deficit before giving up.

Only ordinates are stored: the real part is pinned at 1/2 throughout the
toolkit (standing hypothesis of every formula it checks).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .errors import DomainError, MissedZerosError, ZerosParseError

TWO_PI = 2.0 * math.pi
RS_MIN_T = 500.0          # Euler-Maclaurin below, Riemann-Siegel above
THETA_MIN_T = 10.0        # validity floor of the asymptotic theta series
_SCAN_START = 12.0        # first ordinate is ~14.13; margin below it
_Z_PIECE = 1 << 16        # points per Z call of the scan and the bisection

# (1 - 2^(1-2n)) |B_2n| / (4n (2n-1)) for n = 1..4
_THETA_COEF = [1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0, 127.0 / 430080.0]


def theta(t):
    """Riemann-Siegel theta by its asymptotic series (t >= 10).

    Truncation error is below 1e-12 for t >= 10 with four terms; the
    series is useless below t ~ 2 pi where its expansion point degenerates,
    hence the domain floor.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < THETA_MIN_T):
        raise DomainError("theta series requires t >= 10; "
                          "use theta_exact below that")
    val = 0.5 * arr * np.log(arr / TWO_PI) - 0.5 * arr - math.pi / 8.0
    for n, c in enumerate(_THETA_COEF, 1):
        val = val + c * arr ** (1 - 2 * n)
    return float(val) if np.isscalar(t) else val


def theta_exact(t):
    """theta via the log-Gamma function, valid for all t >= 0."""
    arr = np.asarray(t, dtype=float)
    val = np.imag(loggamma(0.25 + 0.5j * arr)) - 0.5 * arr * math.log(math.pi)
    return float(val) if np.isscalar(t) else val


# ----------------------------------------------------------------------
# Euler-Maclaurin zeta on the critical line
# ----------------------------------------------------------------------

_BERNOULLI = [1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
              -691.0 / 2730, 7.0 / 6, -3617.0 / 510]


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


def _zeta_em(ts: np.ndarray, N: int) -> np.ndarray:
    """zeta(1/2 + i t) for an array of t by Euler-Maclaurin summation
    with N - 1 terms plus the tail corrections."""
    s = 0.5 + 1j * ts
    n = np.arange(1, N, dtype=float)
    total = np.exp(-np.outer(s, np.log(n))).sum(axis=1)
    total += N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** (-s)
    prod = s.copy()
    for k in range(1, 9):
        total += _BERNOULLI[k - 1] / math.factorial(2 * k) * prod \
            * N ** (-s - (2 * k - 1))
        prod = prod * (s + 2 * k - 1) * (s + 2 * k)
    return total


def _z_em(ts: np.ndarray) -> np.ndarray:
    # N >= 1.2 t + 10, rounded up to a multiple of 64 so that points of
    # similar height share a block
    lengths = 64 * np.ceil((1.2 * ts + 10.0) / 64.0).astype(int)
    out = np.empty(len(ts))
    for N, ix in _blocks(lengths):
        chunk = ts[ix]
        out[ix] = (np.exp(1j * theta(chunk)) * _zeta_em(chunk, N)).real
    return out


# ----------------------------------------------------------------------
# Riemann-Siegel branch
# ----------------------------------------------------------------------

# Psi is entire, so its degree-24 interpolant is exact to rounding; a
# higher degree only amplifies that rounding in the derivatives (degree 96
# put errors of 6e-6 into Psi''' and 180 into Psi^(6) at p = 0 and 1)
_PSI_DEG = 24
_psi_cheb = None


def _psi_pointwise(p: float) -> float:
    # cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p); removable zeros of the
    # denominator at p = 1/4, 3/4 handled through the factored sine form
    d = math.cos(TWO_PI * p)
    if abs(d) > 0.05:
        return math.cos(TWO_PI * (p * p - p - 1.0 / 16.0)) / d
    p0 = 0.25 if abs(p - 0.25) < abs(p - 0.75) else 0.75
    h = p - p0
    if h == 0.0:
        return 0.5
    sgn = 1.0 if p0 == 0.25 else -1.0
    u = (2.0 * p0 - 1.0) * h + h * h
    return math.sin(TWO_PI * u) / (-sgn * math.sin(TWO_PI * h))


def _psi_tables():
    """Chebyshev model of the correction shape on [0, 1] plus derivatives."""
    global _psi_cheb
    if _psi_cheb is None:
        j = np.arange(_PSI_DEG + 1)
        xs = 0.5 * (1.0 + np.cos(math.pi * j / _PSI_DEG))
        ys = np.array([_psi_pointwise(x) for x in xs])
        base = np.polynomial.chebyshev.Chebyshev.fit(
            xs, ys, deg=_PSI_DEG, domain=[0.0, 1.0])
        _psi_cheb = [base.deriv(k) if k else base for k in range(7)]
    return _psi_cheb


def _z_rs(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z: main sum plus three correction terms.

    Correction coefficients in the shape function Psi and its derivatives:
    C0 = Psi, C1 = -Psi'''/(96 pi^2),
    C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4).
    """
    D = _psi_tables()
    tau = ts / TWO_PI
    rt = np.sqrt(tau)
    N = rt.astype(int)
    p = rt - N
    th = theta(ts)
    main = np.empty_like(ts)
    for nmax, ix in _blocks(N):
        n = np.arange(1, nmax + 1, dtype=float)
        phases = th[ix, None] - np.outer(ts[ix], np.log(n))
        main[ix] = 2.0 * (np.cos(phases) / np.sqrt(n)).sum(axis=1)

    c2 = D[2](p) / (64.0 * math.pi ** 2) \
        + D[6](p) / (18432.0 * math.pi ** 4)
    corr = D[0](p) - D[3](p) / (96.0 * math.pi ** 2) / rt + c2 / tau
    sign = np.where(N % 2 == 1, 1.0, -1.0)
    return main + sign * tau ** (-0.25) * corr


def riemann_siegel_Z(t, method: str = "auto"):
    """Real rotated zeta Z(t); sign changes locate zero ordinates.

    ``auto`` uses Euler-Maclaurin below ``RS_MIN_T`` and the corrected
    Riemann-Siegel sum from there on, next to the main-sum transitions
    (sqrt(t/2pi) near an integer) too.  Measured against Euler-Maclaurin
    on a dense grid over [500, 1500] and at sqrt(t/2pi) = n +- 1e-4, the
    error is below 1.5e-7, largest near t = 500 and falling as t grows,
    hence under 1e-6 across the supported range t <= 1e5.  Both routes
    sum in blocks of bounded size, so memory does not grow with t.
    """
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < THETA_MIN_T):
        raise DomainError("Z supported for t >= 10")
    if method == "em":
        out = _z_em(ts)
    elif method == "rs":
        out = _z_rs(ts)
    elif method == "auto":
        out = np.empty_like(ts)
        low = ts < RS_MIN_T
        if np.any(low):
            out[low] = _z_em(ts[low])
        if not np.all(low):
            out[~low] = _z_rs(ts[~low])
    else:
        raise DomainError(f"unknown Z method {method!r}")
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# zero sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSet:
    """Ascending zero ordinates up to t_max.

    ``claimed_complete`` records that the count passed the smooth-term
    cross-check at construction (measured S(t_max) within the desk-scale
    fluctuation window).  Immutable; safe to share across threads.
    """

    ordinates: np.ndarray
    t_max: float
    source: str = "computed"
    claimed_complete: bool = False

    def __post_init__(self):
        g = np.asarray(self.ordinates, dtype=float)
        object.__setattr__(self, "ordinates", g)
        if len(g) == 0:
            raise DomainError("empty zero set")
        if np.any(g <= 1.0):
            raise DomainError("ordinates must exceed 1")
        if np.any(np.diff(g) <= 0.0):
            raise DomainError("ordinates must be strictly increasing")
        if np.any(np.diff(g) >= 10.0):
            raise DomainError("implausible gap between consecutive ordinates")
        if self.t_max < g[-1]:
            raise DomainError("t_max below last ordinate")
        if self.source not in ("computed", "imported"):
            raise DomainError("source must be computed|imported")

    def __len__(self):
        return len(self.ordinates)

    def count_up_to(self, t: float) -> float:
        """N(t) with weight 1/2 exactly at an ordinate."""
        left = np.searchsorted(self.ordinates, t, "left")
        right = np.searchsorted(self.ordinates, t, "right")
        return left + 0.5 * (right - left)

    def up_to(self, t: float) -> np.ndarray:
        return self.ordinates[self.ordinates <= t]


def _median_fluctuation(ordinates: np.ndarray, t_max: float,
                        n_probes: int = 9) -> float:
    """Median of count - (theta/pi + 1) over probe points below t_max.

    The argument fluctuation S(t) can reach ~0.7 at an unlucky single
    endpoint at desk heights, while a genuinely missed zero shifts the
    measurement at *every* probe by -1; the median separates the two.
    Ordinates hit exactly by a probe count with weight 1/2.
    """
    avg_gap = TWO_PI / math.log(max(t_max, 20.0) / TWO_PI)
    h = min(0.61 * avg_gap, max((t_max - 10.01) / n_probes, 1e-3))
    probes = t_max - h * np.arange(n_probes)
    probes = probes[probes >= 10.01]
    if len(probes) == 0:
        probes = np.array([max(t_max, 10.01)])
    counts = np.searchsorted(ordinates, probes, "right").astype(float)
    hits = np.searchsorted(ordinates, probes, "right") \
        - np.searchsorted(ordinates, probes, "left")
    counts -= 0.5 * hits
    fluct = counts - (theta(probes) / math.pi + 1.0)
    return float(np.median(fluct))


def _widest_gap(ordinates: np.ndarray):
    if len(ordinates) < 2:
        return (float(ordinates[0]), float(ordinates[0]))
    gaps = np.diff(ordinates)
    density = np.log(ordinates[:-1] / TWO_PI) / TWO_PI
    i = int(np.argmax(gaps * np.maximum(density, 1e-3)))
    return (float(ordinates[i]), float(ordinates[i + 1]))


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


def _bisect_brackets(lo, hi, f_lo, z):
    """Vectorized synchronized bisection down to 1e-9 brackets."""
    width = float(np.max(hi - lo))
    iters = max(1, int(math.ceil(math.log2(width / 1e-9))))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = z(mid)
        take_left = (f_lo * f_mid) <= 0.0
        hi = np.where(take_left, mid, hi)
        lo = np.where(take_left, lo, mid)
        f_lo = np.where(take_left, f_lo, f_mid)
    return 0.5 * (lo + hi)


def find_zeros(t_max: float, step: float = 0.05,
               threads: int | None = None) -> ZeroSet:
    """All zero ordinates up to t_max (15 <= t_max <= 1e5).

    Grid scan at ``step`` plus lockstep bisection, both evaluating Z in
    pieces spread over ``threads`` worker threads; the count is validated
    against theta(t_max)/pi + 1 and the grid refined (up to 4 halvings) on
    any deficit before raising :class:`MissedZerosError` pointing at the
    widest gap.  The ordinates do not depend on ``threads``.
    """
    if not 15.0 <= t_max <= 1e5:
        raise DomainError("find_zeros supports 15 <= t_max <= 1e5")
    if step > 0.05:
        raise DomainError("scan step must be <= 0.05")
    workers = max(1, threads or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        def z(ts):
            return _z_pieces(ts, pool, workers)

        for _ in range(5):
            n = int(math.ceil((t_max - _SCAN_START) / step)) + 1
            grid = np.linspace(_SCAN_START, t_max, n)
            vals = z(grid)
            sign_flip = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
            roots = _bisect_brackets(grid[sign_flip], grid[sign_flip + 1],
                                     vals[sign_flip], z)
            fluct = _median_fluctuation(roots, t_max)
            if fluct > -0.6:
                return ZeroSet(ordinates=roots, t_max=float(t_max),
                               source="computed", claimed_complete=True)
            step *= 0.5
    raise MissedZerosError(
        f"zero count deficit {fluct:.2f} persists after grid refinement",
        gap=_widest_gap(roots))


def import_zeros(stream) -> ZeroSet:
    """Parse the zeros text format: one ascending decimal per line,
    '#' comments allowed, LF endings."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in stream]
    ordinates = []
    for i, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            val = float(text)
        except ValueError:
            raise ZerosParseError(f"line {i}: not a decimal: {text!r}",
                                  line_number=i) from None
        if ordinates and val <= ordinates[-1]:
            raise ZerosParseError(
                f"line {i}: ordinate {val!r} not increasing", line_number=i)
        ordinates.append(val)
    if not ordinates:
        raise ZerosParseError("no ordinates in stream", line_number=0)
    arr = np.array(ordinates)
    t_max = float(arr[-1])
    complete = _median_fluctuation(arr, t_max) > -0.6 if t_max >= 15 \
        else False
    return ZeroSet(ordinates=arr, t_max=t_max, source="imported",
                   claimed_complete=complete)


def export_zeros(zs: ZeroSet) -> str:
    """Render a ZeroSet in the zeros text format.

    Ordinates use shortest round-trip decimals, so export -> import
    reproduces the floats exactly and the output depends only on the
    ordinate list (byte-stable; no derived state in the header).
    """
    body = "\n".join(repr(float(g)) for g in zs.ordinates)
    return f"# zeta zero ordinates, one per line, ascending\n{body}\n"
