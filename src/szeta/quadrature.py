"""Panel Gauss-Legendre quadrature with mandatory breakpoints.

All numeric integration in the toolkit goes through :func:`integrate`, driven
by a :class:`QuadratureSpec`.  The engine splits the range at every spec
breakpoint falling inside it, lays down fixed panels whose width respects an
oscillation cap (phase advance at most pi/2 per panel for an ``exp(i*omega*u)``
factor), and refines by doubling the panel count until two successive levels
agree to tolerance.  Non-convergence raises an :class:`AccuracyError` carrying
the deepest estimate instead of silently returning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError

_GL_NODES = {}


def _gl(n: int):
    if n not in _GL_NODES:
        _GL_NODES[n] = np.polynomial.legendre.leggauss(n)
    return _GL_NODES[n]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, depth limits and mandatory breakpoints for integration.

    ``breakpoints`` are subdivision points the panels may never straddle
    (integrand kinks, derivative jumps).  ``infinite_cutoff`` is where
    integrals over infinite ranges are truncated; analytic tails beyond it
    are the producing module's responsibility.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_depth: int = 24
    breakpoints: tuple = ()
    infinite_cutoff: float = 40.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 1 <= self.max_depth <= 60:
            raise ValueError("max_depth must lie in [1, 60]")
        if self.breakpoints and self.infinite_cutoff <= max(self.breakpoints):
            raise ValueError("infinite_cutoff must exceed every breakpoint")

    def with_breakpoints(self, points) -> "QuadratureSpec":
        pts = tuple(sorted(set(self.breakpoints) | set(points)))
        cutoff = max(self.infinite_cutoff, (max(pts) * 1.5 if pts else 0.0))
        return QuadratureSpec(self.abs_tol, self.rel_tol, self.max_depth,
                              pts, cutoff)


DEFAULT_SPEC = QuadratureSpec()


def _panel_sum(f, a: float, b: float, n_panels: int, nodes: int) -> float:
    x_gl, w_gl = _gl(nodes)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * x_gl[None, :]).ravel()
    w = (half[:, None] * w_gl[None, :]).ravel()
    y = np.asarray(f(x), dtype=float)
    return float(np.dot(y, w))


def _segment(f, a, b, spec, omega, nodes):
    # initial panel count: at least 4, finer when the oscillation cap bites
    width = b - a
    h = width / 4.0
    if omega:
        h = min(h, math.pi / (2.0 * abs(omega)))
    n = max(4, int(math.ceil(width / h)))
    prev = _panel_sum(f, a, b, n, nodes)
    for _ in range(spec.max_depth):
        n *= 2
        cur = _panel_sum(f, a, b, n, nodes)
        err = abs(cur - prev)
        if err <= max(spec.abs_tol, spec.rel_tol * abs(cur)):
            return cur, err
        prev = cur
    raise AccuracyError(
        f"quadrature did not converge on [{a:g}, {b:g}] "
        f"(last change {err:.3e})", achieved=err, estimate=cur)


def integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC,
              omega: float = 0.0, nodes: int = 10):
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    ``omega`` is the angular frequency of any oscillatory factor in the
    integrand (phase ``omega*u``); panels are sized so a single panel never
    spans more than a quarter period.  Vectorized ``f`` required.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError("integrate requires b >= a")
    cuts = [a] + [p for p in sorted(spec.breakpoints) if a < p < b] + [b]
    total = 0.0
    err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, e = _segment(f, lo, hi, spec, omega, nodes)
        total += v
        err += e
    return total, err
