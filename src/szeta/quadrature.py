"""Panel Gauss-Kronrod quadrature: one engine, the gap rule.

:func:`gap_rule` integrates over many segments where the integrand is
smooth (the zero gaps, or the pieces between a kernel's kinks), all in one
vectorized pass.  Each segment gets equal panels whose width respects an
oscillation cap (phase advance at most pi per panel for an
``exp(i*omega*u)`` factor) and one evaluation of the integrand at the 15
Kronrod nodes of each panel: the 15-node Kronrod sum is the value and its
distance from the 7-node Gauss sum on the same nodes the error estimate
(QUADPACK's qk15).  When the estimate misses its bound, only the segments
above their share of it have their panels halved and are summed again.
:func:`integrate` is the same engine over one range split at given
breakpoints.  Both take a scalar integrand, vectorized over its nodes,
and both raise an :class:`AccuracyError` naming the worst segment and
carrying the estimate instead of silently returning it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError, refuse_beyond_memory

# QUADPACK's qk15 on [-1, 1]: the Kronrod nodes x >= 0, largest first (the
# odd entries are the 7-node Gauss nodes), their Kronrod weights, and the
# Gauss weights, zero at the Kronrod-only nodes
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327])
# the 15 nodes in ascending order and, per node, the weight of the value
# and of its excess over the 7-node sum
_MIRROR = [*range(8), *range(6, -1, -1)]
_NODES = np.concatenate((-_XK, _XK[6::-1]))
_WEIGHTS = np.stack((_WK, _WK - _WG), axis=1)[_MIRROR]


# points per call of f: bounds the temporaries of f and of the sums, and
# fixes how the partial sums of a segment spread over calls are grouped
_CHUNK_POINTS = 4096


def _level_sums(f, lo, hi, n):
    """The 15-node Kronrod sums of ``f`` over segments ``[lo_i, hi_i]`` of
    ``n_i`` equal panels and, per segment, their distance from the 7-node
    Gauss sums, all segments' nodes going to ``f`` once, in bounded
    chunks."""
    step = (hi - lo) / n
    ends = np.cumsum(n)
    starts = ends - n
    total = int(ends[-1])
    sums = np.zeros((len(lo), 2))
    per_call = _CHUNK_POINTS // len(_NODES)
    for first in range(0, total, per_call):
        panel = np.arange(first, min(first + per_call, total))
        seg = np.searchsorted(ends, panel, "right")
        half = 0.5 * step[seg]
        mid = lo[seg] + (2 * (panel - starts[seg]) + 1) * half
        x = (mid[:, None] + half[:, None] * _NODES).ravel()
        y = np.asarray(f(x), dtype=float).reshape(len(panel), len(_NODES))
        np.add.at(sums, seg, (y @ _WEIGHTS) * half[:, None])
    return sums[:, 0], np.abs(sums[:, 1])


GAP_RULE_TOL = 1e-10   # gap_rule's bound on err / sum of |segment values|
MAX_DEPTH = 24         # panel halvings of one segment before AccuracyError


def gap_rule(f, edges, omega: float = 0.0):
    """Integrate ``f`` over ``[edges[0], edges[-1]]``, smooth on every
    segment between consecutive ``edges``; returns ``(value, error_estimate)``.

    Each segment gets equal panels no wider than h = min(2, pi/|omega|),
    and ``f`` is evaluated once at the 15 Kronrod nodes of every panel.
    The value is the 15-node Gauss-Kronrod sum, exact to degree 22; the
    error estimate is the sum over segments of its distance from the
    7-node Gauss sum on the same values (exact to degree 13), an estimate
    of the 7-node sum's error and so, generously, of the value's.  While the
    estimate exceeds the bound ``GAP_RULE_TOL`` times the sum of |segment
    values|, the panels of every segment whose own estimate is above its
    share of the bound (bound / number of segments) are halved and only
    those segments summed again; after ``MAX_DEPTH`` halvings it raises
    :class:`AccuracyError` naming the worst segment.  Vectorized ``f``
    required.  Edges or omega that are not finite raise
    :class:`DomainError`, and more nodes than any address space holds
    ``MemoryError``, before ``f`` is called.
    """
    edges = np.asarray(edges, dtype=float)
    if not (math.isfinite(omega) and np.isfinite(edges).all()):
        raise DomainError("gap rule needs finite edges and omega")
    lo, hi = edges[:-1], edges[1:]
    if not len(lo):
        return 0.0, 0.0
    h = min(2.0, math.pi / abs(omega)) if omega else 2.0
    panels = np.maximum(1, np.ceil((hi - lo) / h))
    refuse_beyond_memory(len(_NODES) * panels.sum(), "quadrature nodes")
    n = panels.astype(np.int64)
    fine, change = _level_sums(f, lo, hi, n)
    for depth in range(MAX_DEPTH + 1):
        value, err = np.sum(fine), np.sum(change)
        bound = GAP_RULE_TOL * np.sum(np.abs(fine))
        if err <= bound:
            return float(value), float(err)
        redo = np.flatnonzero(change > bound / len(lo))
        if depth == MAX_DEPTH or not len(redo):   # NaN is above no share
            break
        n[redo] *= 2
        fine[redo], change[redo] = _level_sums(f, lo[redo], hi[redo], n[redo])
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
        raise DomainError(f"integrate needs finite a <= b, got [{a}, {b}]")
    # sorted(set()) rather than np.unique, whose first call imports numpy.ma
    bp = sorted({float(p) for p in breakpoints if a < p < b})
    return gap_rule(f, [a, *bp, b], omega)
