"""Panel Gauss-Legendre quadrature: an adaptive engine and a fixed gap rule.

:func:`integrate` splits the range at every breakpoint it is given inside
it, lays down fixed panels whose width respects an oscillation cap (phase
advance at most pi/2 per panel for an ``exp(i*omega*u)`` factor), and
refines by doubling the panel count until two successive levels agree to
the module tolerances ``ABS_TOL`` and ``REL_TOL``, all segments in one
vectorized pass.  :func:`gap_rule` instead puts one fixed rule on each of
many segments where the integrand is smooth (the zero gaps).  Both take an
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


_CHUNK_POINTS = 512    # points per call of f; bounds (points x ordinates) f


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


def _result(value, err):
    """Floats for one integrand, arrays for a stack of rows."""
    if np.ndim(value):
        return value, err
    return float(value), float(err)


GAP_RULE_TOL = 1e-10   # gap_rule's bound on err / sum of |segment values|


def gap_rule(f, edges, omega: float = 0.0):
    """Integrate ``f`` over ``[edges[0], edges[-1]]``, smooth on every
    segment between consecutive ``edges``; returns ``(value, error_estimate)``.

    Each segment gets equal panels no wider than h = min(1, pi/(2|omega|)).
    The value is the 8-node Gauss-Legendre sum; the error estimate is the
    sum over segments of its distance from the 6-node sum, an estimate of
    the 6-node sum's error and so, generously, of the value's.  Raises
    :class:`AccuracyError` when the estimate exceeds ``GAP_RULE_TOL`` times
    the sum of |segment values|.  Vectorized ``f`` required.  An ``f``
    returning a stack of rows (one integrand each) gets one value and one
    estimate per row, each row held to the tolerance on its own.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    if not len(lo):
        return 0.0, 0.0
    h = min(1.0, math.pi / (2.0 * abs(omega))) if omega else 1.0
    n = np.maximum(1, np.ceil((hi - lo) / h)).astype(np.int64)
    fine = _level_sums(f, lo, hi, n, 8)
    change = np.abs(fine - _level_sums(f, lo, hi, n, 6))
    value, err = np.sum(fine, axis=-1), np.sum(change, axis=-1)
    bad = np.flatnonzero(~(err <= GAP_RULE_TOL
                           * np.sum(np.abs(fine), axis=-1)))
    if len(bad):
        r = int(bad[0])
        row = np.atleast_2d(change)[r]
        worst = int(np.argmax(row))
        raise AccuracyError(
            f"gap rule estimate {np.ravel(err)[r]:.3e} above tolerance, "
            f"worst on [{lo[worst]:g}, {hi[worst]:g}] ({row[worst]:.3e})",
            achieved=float(np.ravel(err)[r]),
            estimate=float(np.ravel(value)[r]))
    return _result(value, err)


# integrate's convergence test, read at call time: a segment is done when
# two successive levels differ by at most max(ABS_TOL, REL_TOL * |value|)
# in every row, and the call fails after MAX_DEPTH doublings
ABS_TOL = 1e-9
REL_TOL = 1e-9
MAX_DEPTH = 24


def integrate(f, a: float, b: float, omega: float = 0.0, breakpoints=()):
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    The range is split at every one of ``breakpoints`` inside it (kinks,
    derivative jumps the panels must not straddle), and the segments are
    refined by :func:`_adaptive`.  Vectorized ``f`` required; an ``f``
    returning a stack of rows gets one value and one estimate per row.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError("integrate requires b >= a")
    # sorted(set()) rather than np.unique, whose first call imports numpy.ma
    bp = sorted({float(p) for p in breakpoints if a < p < b})
    return _adaptive(f, np.array([a, *bp, b], dtype=float), omega)


def _adaptive(f, cuts, omega: float):
    """Adaptive 10-node Gauss-Legendre over the segments between ``cuts``
    (increasing, no two equal); returns ``(value, error_estimate)``.

    Each segment starts at ``max(4, ceil(width/h))`` panels, ``h =
    min(width/4, pi/(2|omega|))`` so no panel spans more than a quarter
    period of a phase ``omega*u``, and doubles them until two levels agree
    to tolerance in every row; converged segments drop out, and each call
    of ``f`` gets the nodes of many segments.  Raises
    :class:`AccuracyError` naming the worst open segment.
    """
    lo, hi = cuts[:-1], cuts[1:]
    width = hi - lo
    h = width / 4.0
    if omega:
        h = np.minimum(h, math.pi / (2.0 * abs(omega)))
    n = np.maximum(4, np.ceil(width / h)).astype(np.int64)
    prev = _level_sums(f, lo, hi, n, 10)
    value = np.zeros_like(prev)
    err = np.zeros_like(prev)
    live = np.arange(len(lo))
    for _ in range(MAX_DEPTH):
        n = 2 * n
        cur = _level_sums(f, lo[live], hi[live], n, 10)
        change = np.abs(cur - prev)
        value[..., live] = cur
        err[..., live] = change
        done = change <= np.maximum(ABS_TOL, REL_TOL * np.abs(cur))
        todo = ~np.atleast_2d(done).all(axis=0)
        live, n, prev = live[todo], n[todo], cur[..., todo]
        if not len(live):
            return _result(np.sum(value, axis=-1), np.sum(err, axis=-1))
    open_err = np.atleast_2d(err)[:, live]
    row, j = np.unravel_index(np.argmax(open_err), open_err.shape)
    worst = live[j]
    raise AccuracyError(
        f"quadrature did not converge on [{lo[worst]:g}, {hi[worst]:g}] "
        f"(last change {open_err[row, j]:.3e}, {len(live)} of {len(lo)} "
        "segments open)", achieved=float(open_err[row, j]),
        estimate=float(np.sum(np.atleast_2d(value)[row])))
