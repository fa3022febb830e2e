"""Panel Gauss-Legendre quadrature: one engine, the gap rule.

:func:`gap_rule` integrates over many segments where the integrand is
smooth (the zero gaps, or the pieces between a kernel's kinks), all in one
vectorized pass.  Each segment gets equal panels whose width respects an
oscillation cap (phase advance at most pi/2 per panel for an
``exp(i*omega*u)`` factor), an 8-node value and a 6-node error estimate.
When the estimate misses its bound, only the segments above their share
of it have their panels halved and are summed again.  :func:`integrate` is
the same engine over one range split at given breakpoints.  Both take a
scalar integrand, vectorized over its nodes, and both raise an
:class:`AccuracyError` naming the worst segment and carrying the estimate
instead of silently returning it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError

# the value's 8-node rule and the estimate's 6-node rule
_GL = {n: np.polynomial.legendre.leggauss(n) for n in (6, 8)}


# points per call of f: bounds the temporaries of f and of the sums, and
# fixes how the partial sums of a segment spread over calls are grouped
_CHUNK_POINTS = 4096


def _level_sums(f, lo, hi, n, nodes: int) -> np.ndarray:
    """Gauss-Legendre sums of ``f`` over segments ``[lo_i, hi_i]`` of ``n_i``
    equal panels, all segments' nodes going to ``f`` in bounded chunks."""
    x_gl, w_gl = _GL[nodes]
    step = (hi - lo) / n
    ends = np.cumsum(n)
    starts = ends - n
    total = int(ends[-1])
    sums = np.zeros(len(lo))
    per_call = max(1, _CHUNK_POINTS // nodes)
    for first in range(0, total, per_call):
        panel = np.arange(first, min(first + per_call, total))
        seg = np.searchsorted(ends, panel, "right")
        half = 0.5 * step[seg]
        mid = lo[seg] + (2 * (panel - starts[seg]) + 1) * half
        x = (mid[:, None] + half[:, None] * x_gl).ravel()
        y = np.asarray(f(x), dtype=float).reshape(len(panel), nodes)
        np.add.at(sums, seg, (y @ w_gl) * half)
    return sums


GAP_RULE_TOL = 1e-10   # gap_rule's bound on err / sum of |segment values|
MAX_DEPTH = 24         # panel halvings of one segment before AccuracyError


def _rule(f, lo, hi, n):
    """The 8-node sums over segments of ``n`` panels and, per segment,
    their distance from the 6-node sums."""
    fine = _level_sums(f, lo, hi, n, 8)
    return fine, np.abs(fine - _level_sums(f, lo, hi, n, 6))


def gap_rule(f, edges, omega: float = 0.0):
    """Integrate ``f`` over ``[edges[0], edges[-1]]``, smooth on every
    segment between consecutive ``edges``; returns ``(value, error_estimate)``.

    Each segment gets equal panels no wider than h = min(1, pi/(2|omega|)).
    The value is the 8-node Gauss-Legendre sum; the error estimate is the
    sum over segments of its distance from the 6-node sum, an estimate of
    the 6-node sum's error and so, generously, of the value's.  While the
    estimate exceeds the bound ``GAP_RULE_TOL`` times the sum of |segment
    values|, the panels of every segment whose own estimate is above its
    share of the bound (bound / number of segments) are halved and only
    those segments summed again; after ``MAX_DEPTH`` halvings it raises
    :class:`AccuracyError` naming the worst segment.  Vectorized ``f``
    required.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    if not len(lo):
        return 0.0, 0.0
    h = min(1.0, math.pi / (2.0 * abs(omega))) if omega else 1.0
    n = np.maximum(1, np.ceil((hi - lo) / h)).astype(np.int64)
    fine, change = _rule(f, lo, hi, n)
    for depth in range(MAX_DEPTH + 1):
        value, err = np.sum(fine), np.sum(change)
        bound = GAP_RULE_TOL * np.sum(np.abs(fine))
        if err <= bound:
            return float(value), float(err)
        redo = np.flatnonzero(change > bound / len(lo))
        if depth == MAX_DEPTH or not len(redo):   # NaN is above no share
            break
        n[redo] *= 2
        fine[redo], change[redo] = _rule(f, lo[redo], hi[redo], n[redo])
    worst = int(np.argmax(change))
    raise AccuracyError(
        f"gap rule estimate {err:.3e} above tolerance, "
        f"worst on [{lo[worst]:g}, {hi[worst]:g}] ({change[worst]:.3e})",
        achieved=float(err), estimate=float(value))


def integrate(f, a: float, b: float, omega: float = 0.0, breakpoints=()):
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    :func:`gap_rule` over the segments between ``a``, every one of
    ``breakpoints`` inside the range (kinks, derivative jumps the panels
    must not straddle) and ``b``.  Vectorized ``f`` required.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError("integrate requires b >= a")
    # sorted(set()) rather than np.unique, whose first call imports numpy.ma
    bp = sorted({float(p) for p in breakpoints if a < p < b})
    return gap_rule(f, [a, *bp, b], omega)
