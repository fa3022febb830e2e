"""Panel Gauss-Legendre quadrature: one engine, the gap rule.

:func:`gap_rule` integrates over many segments where the integrand is
smooth (the zero gaps, or the pieces between a kernel's kinks), all in one
vectorized pass.  Each segment gets equal panels whose width respects an
oscillation cap (phase advance at most pi/2 per panel for an
``exp(i*omega*u)`` factor), an 8-node value and a 6-node error estimate.
When the estimate misses its bound, only the segments above their share
of it have their panels halved and are summed again.  :func:`integrate` is
the same engine over one range split at given breakpoints.  Both take an
integrand returning a stack of rows, and both raise an
:class:`AccuracyError` naming the worst segment and carrying the estimate
instead of silently returning it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError

_GL_NODES = {}


def _gl(n: int):
    if n not in _GL_NODES:
        _GL_NODES[n] = np.polynomial.legendre.leggauss(n)
    return _GL_NODES[n]


# points per call of f: bounds the temporaries of f and of the sums, and
# fixes how the partial sums of a segment spread over calls are grouped
_CHUNK_POINTS = 512


def _level_sums(f, lo, hi, n, nodes: int) -> np.ndarray:
    """Gauss-Legendre sums of ``f`` over segments ``[lo_i, hi_i]`` of ``n_i``
    equal panels, all segments' nodes going to ``f`` in bounded chunks.
    An ``f`` returning a stack of rows gives one row of sums per row."""
    x_gl, w_gl = _gl(nodes)
    step = (hi - lo) / n
    ends = np.cumsum(n)
    starts = ends - n
    total = int(ends[-1])
    sums = None
    per_call = max(1, _CHUNK_POINTS // nodes)
    for first in range(0, total, per_call):
        panel = np.arange(first, min(first + per_call, total))
        seg = np.searchsorted(ends, panel, "right")
        half = 0.5 * step[seg]
        mid = lo[seg] + (2 * (panel - starts[seg]) + 1) * half
        x = (mid[:, None] + half[:, None] * x_gl).ravel()
        y = np.asarray(f(x), dtype=float)
        y = y.reshape(*y.shape[:-1], len(panel), nodes)
        if sums is None:
            sums = np.zeros((len(lo),) + y.shape[:-2])
        np.add.at(sums, seg, np.moveaxis((y @ w_gl) * half, -1, 0))
    return sums.T


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
    required.  An ``f`` returning a stack of rows (one integrand each) gets
    one value and one estimate per row, each row held to its own bound.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    if not len(lo):
        return 0.0, 0.0
    h = min(1.0, math.pi / (2.0 * abs(omega))) if omega else 1.0
    n = np.maximum(1, np.ceil((hi - lo) / h)).astype(np.int64)
    fine, change = _rule(f, lo, hi, n)
    for depth in range(MAX_DEPTH + 1):
        value, err = np.sum(fine, axis=-1), np.sum(change, axis=-1)
        bound = GAP_RULE_TOL * np.sum(np.abs(fine), axis=-1)
        failing = np.atleast_1d(~(err <= bound))
        if not failing.any():
            if np.ndim(value):      # a stack of rows
                return value, err
            return float(value), float(err)
        share = np.atleast_1d(bound)[failing, None] / len(lo)
        redo = np.flatnonzero(
            (np.atleast_2d(change)[failing] > share).any(axis=0))
        if depth == MAX_DEPTH or not len(redo):   # NaN is above no share
            break
        n[redo] *= 2
        fine[..., redo], change[..., redo] = _rule(f, lo[redo], hi[redo],
                                                   n[redo])
    r = int(np.argmax(failing))
    row = np.atleast_2d(change)[r]
    worst = int(np.argmax(row))
    raise AccuracyError(
        f"gap rule estimate {np.ravel(err)[r]:.3e} above tolerance, "
        f"worst on [{lo[worst]:g}, {hi[worst]:g}] ({row[worst]:.3e})",
        achieved=float(np.ravel(err)[r]),
        estimate=float(np.ravel(value)[r]))


def integrate(f, a: float, b: float, omega: float = 0.0, breakpoints=()):
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    :func:`gap_rule` over the segments between ``a``, every one of
    ``breakpoints`` inside the range (kinks, derivative jumps the panels
    must not straddle) and ``b``.  Vectorized ``f`` required; an ``f``
    returning a stack of rows gets one value and one estimate per row.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError("integrate requires b >= a")
    # sorted(set()) rather than np.unique, whose first call imports numpy.ma
    bp = sorted({float(p) for p in breakpoints if a < p < b})
    return gap_rule(f, [a, *bp, b], omega)
