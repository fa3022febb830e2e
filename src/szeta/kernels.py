"""The smoothing weight f, the piecewise kernel k, and their transforms.

``f(u) = (pi/2) u cot(pi u / 2)`` on [0, 1] damps the prime sum of the
explicit formula.  The kernel::

    k(u) = (1/(2u) - (pi^2/2) cot(pi^2 u))^2   for |u| <= 1/(2 pi)
    k(u) = 1/(4 u^2)                           for |u| >  1/(2 pi)

arises from squaring the zero-sum side; its Fourier transform
``khat(y) = int k(u) e(-u y) du`` (with ``e(v) = exp(2 pi i v)``) drives every
pair-correlation identity downstream, with the transform of k'' beside it.
Both are real and even, so each is a cosine transform, and each is declared
once, as ``(h, n, weight)`` with h = k^(n-2): beyond the breakpoint h is
weight / (2 u^n), so the transform at y is 2 int_0^bp h(u) cos(2 pi y u) du
plus weight (2 pi)^(n-1) Re E_n(-i y), E_n the generalized exponential
integral.  Only the finite piece ``[0, 1/(2 pi)]`` needs quadrature.

From the spec come the two evaluations of each transform.  The reference
one (:func:`khat`) integrates the finite piece by error-estimated panel
quadrature: ``direct`` is the transform of k itself and ``closed`` that of
k'' plus the boundary cosine term picked up by parts integration, and their
agreement is one of the toolkit's primary identity checks.  The vectorized
one (``khat_many``, ``kpp_transform_many``) reads a piecewise Chebyshev
table below y = 50, loaded at first use from ``tables.npy`` next to this
module (``python scripts/make_tables.py`` fits it to a fixed
Gauss-Legendre grid on the finite piece plus the E_n tail and writes the
file), and above it is P(y) cos y + Q(y) sin y:
P and Q are series in 1/y, the finite piece's by-parts boundary series plus
the asymptotic series of E_n.  The pair engine takes each transform as its
vectorized values and its (P, Q) (``_KHAT``, ``_KPP``).

Near u = 0 both branches of the inner formula cancel to ~4 digits by
u = 1e-3, so evaluation switches to the Laurent-free power series of
``g(u) = 1/(2u) - (pi^2/2) cot(pi^2 u)`` below ``|u| = 0.05``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._tree import _clenshaw
from .errors import DomainError
from .quadrature import integrate

PI = math.pi
BREAKPOINT = 1.0 / (2.0 * PI)

# |B_2n| for n = 1..10, the package's one Bernoulli table (the digamma and
# sinh-integral series of s_of_t and the theta and Euler-Maclaurin series
# of zeros derive theirs from it)
_ABS_BERNOULLI = [Fraction(1, 6), Fraction(1, 30), Fraction(1, 42),
                  Fraction(1, 30), Fraction(5, 66), Fraction(691, 2730),
                  Fraction(7, 6), Fraction(3617, 510), Fraction(43867, 798),
                  Fraction(174611, 330)]

# g(u) = sum_n  b_n u^(2n-1),   b_n = 2^(2n-1) |B_2n| pi^(4n) / (2n)!
# b_n u^(2n) ~ (pi u)^(2n): all ten terms, since g'' at the switch u = 0.05
# needs them (the first omitted term is 7e-12 there, with eight it is 7e-9)
_G_COEF = [float(Fraction(2 ** (2 * n - 1), math.factorial(2 * n))
                 * _ABS_BERNOULLI[n - 1]) * PI ** (4 * n)
           for n in range(1, len(_ABS_BERNOULLI) + 1)]

_SERIES_CUT = 0.05   # series/raw switch for g and its derivatives


def _g_raw(u):
    return 0.5 / u - 0.5 * PI * PI / np.tan(PI * PI * u)


def _gp_raw(u):
    s = np.sin(PI * PI * u)
    return -0.5 / (u * u) + 0.5 * PI ** 4 / (s * s)


def _gpp_raw(u):
    s = np.sin(PI * PI * u)
    return 1.0 / u ** 3 - PI ** 6 * np.cos(PI * PI * u) / s ** 3


# g, g' and g'': the raw cotangent form, and below the switch a series in
# u^2, by its coefficients and whether it is odd (times u)
_G_DERIVATIVES = (
    (_g_raw, _G_COEF, True),
    (_gp_raw, [(2 * n - 1) * b for n, b in enumerate(_G_COEF, 1)], False),
    (_gpp_raw, [(2 * n - 1) * (2 * n - 2) * b
                for n, b in enumerate(_G_COEF, 1)][1:], True),
)


def _g_derivatives(u, count):
    """g, g', g'' (the first ``count`` of them) at |u| <= bp: by Horner
    below |u| = _SERIES_CUT, the raw cotangent forms above."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SERIES_CUT
    safe = np.where(small, _SERIES_CUT, u)   # keep raw() off the singularity
    u2 = u * u
    out = []
    for raw, coef, odd in _G_DERIVATIVES[:count]:
        s = 0.0
        for b in reversed(coef):
            s = u2 * s + b
        out.append(np.where(small, u * s if odd else s, raw(safe)))
    return out


def k_values(u):
    """Vectorized k(u); the breakpoint itself uses the inside branch
    (both branches agree there, k is continuous)."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    outside = u > BREAKPOINT
    out[outside] = 0.25 / u[outside] ** 2
    gi, = _g_derivatives(u[~outside], 1)
    out[~outside] = gi * gi
    return out


def kpp_values(u):
    """Vectorized k''(u) using the inside branch at the breakpoint."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    outside = u > BREAKPOINT
    out[outside] = 1.5 / u[outside] ** 4
    g, gp, gpp = _g_derivatives(u[~outside], 3)
    out[~outside] = 2.0 * (gp * gp + g * gpp)
    return out


def f_weight(u):
    """f(u) = (pi/2) u cot(pi u / 2) on [0, 1]; f(0)=1, f(1)=0 exactly."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DomainError("f is defined on [0, 1]")
    x = 0.5 * PI * u
    small = x < 0.01
    xs = np.where(small, 1.0, x)
    with np.errstate(invalid="ignore"):
        raw = xs * np.cos(xs) / np.sin(xs)
    # x cot x = 1 - x^2/3 - x^4/45 - 2 x^6/945 + ...
    x2 = x * x
    series = 1.0 - x2 / 3.0 - x2 * x2 / 45.0 - 2.0 * x2 ** 3 / 945.0
    out = np.where(small, series, raw)
    out = np.where(u == 1.0, 0.0, out)
    return float(out) if scalar else out


# ----------------------------------------------------------------------
# derivative tables at the breakpoint, for the high-frequency transform path
# ----------------------------------------------------------------------

_DERIV_MAX = 14
# cot^(n)(pi/2) = -tan^(n)(0): 0 for even n, and for n = 2k - 1 the negated
# tangent number 2^2k (2^2k - 1) |B_2k| / 2k
_COT_D = [0.0 if n % 2 == 0 else -float(
              Fraction(4 ** k * (4 ** k - 1), 2 * k) * _ABS_BERNOULLI[k - 1])
          for n in range(_DERIV_MAX + 1) for k in [(n + 1) // 2]]


def _k_derivs_at_breakpoint():
    """k^(j)(bp-) = (g^2)^(j) by Leibniz, from g^(n)(bp) = (-1)^n n! /
    (2 bp^(n+1)) - (pi^2/2) pi^(2n) cot^(n)(pi/2)."""
    gd = [((-1) ** n) * math.factorial(n) / (2.0 * BREAKPOINT ** (n + 1))
          - 0.5 * PI * PI * PI ** (2 * n) * _COT_D[n]
          for n in range(_DERIV_MAX + 1)]
    return [sum(math.comb(j, i) * gd[i] * gd[j - i] for i in range(j + 1))
            for j in range(_DERIV_MAX + 1)]


_KD_BP = _k_derivs_at_breakpoint()    # k^(j)(breakpoint-) for j = 0.._DERIV_MAX

# Each transform, as (h, n, weight) with h = k^(n-2): the transform at y is
#   2 int_0^bp h(u) cos(2 pi y u) du + weight int_bp^inf cos(2 pi y u)/u^n du,
# h being weight / (2 u^n) beyond the breakpoint
_KHAT_SPEC = (k_values, 2, 0.5)
_KPP_SPEC = (kpp_values, 4, 3.0)

_FAST_Y_SWITCH = 50.0                 # P cos y + Q sin y above, fixed grid below
_SERIES_TERMS = 5                     # boundary series of the finite piece
_AUX_TERMS = 25                       # terms of P and of Q


def _into_pq(p, q, k, term):
    """Add the term of y^-(k+1) to P (k odd) or Q (k even), each indexed
    by its power of 1/y^2."""
    (p if k % 2 else q)[(k + 1) // 2] += term


@functools.cache
def _high_y_coefficients(spec):
    """Coefficients of P(y) = sum_m p_m y^-2m and Q(y) = sum_m q_m y^-(2m+1)
    with transform(y) = P cos y + Q sin y for y >= _FAST_Y_SWITCH.

    Two pieces, both in powers of 1/y.  The finite piece int_0^bp h(u)
    cos(a u) du (a = 2 pi y, a bp = y) is its by-parts boundary series:
    odd derivatives of k vanish at 0, so only breakpoint data enters.  The
    tail is weight (2 pi)^(n-1) Re E_n(-iy), from the asymptotic series
    E_n(z) ~ (e^-z / z) sum_k (-1)^k (n)_k / z^k (DLMF 8.20.2) at z = -iy,
    whose remainder is below the first omitted term.  With e^-z = cos y +
    i sin y and 1/z = i/y, term k is (-1)^(j+1) (n)_k / y^(k+1), j =
    floor((k+1)/2), in P for odd k and in Q for even k.  No term cancels
    against another, so the tail keeps the precision that the route
    through the sine integral loses to cancellation, (2 pi y)^(n-1) eps
    absolute.
    """
    _, n, weight = spec
    p = np.zeros(_AUX_TERMS)
    q = np.zeros(_AUX_TERMS)
    two_pi = 2.0 * PI
    for i in range(2 * _SERIES_TERMS):
        _into_pq(p, q, i, 2.0 * (-1) ** (i // 2) * _KD_BP[i + n - 2]
                 / two_pi ** (i + 1))
    # (n)_k = (k + n - 1)! / (n - 1)!, the (n - 1)! taken into c
    c = weight * two_pi ** (n - 1) / math.factorial(n - 1)
    for k in range(2 * _AUX_TERMS - 1):
        _into_pq(p, q, k, c * (-1) ** ((k + 1) // 2 + 1)
                 * math.factorial(k + n - 1))
    return p[::-1].copy(), q[::-1].copy()


def _pq(y, spec):
    """(P, Q) of the transform ``spec`` at y >= _FAST_Y_SWITCH."""
    u = 1.0 / np.asarray(y, dtype=float)
    u2 = u * u
    p_c, q_c = _high_y_coefficients(spec)
    p = np.zeros_like(u)
    q = np.zeros_like(u)
    for cp, cq in zip(p_c, q_c):
        p *= u2
        p += cp
        q *= u2
        q += cq
    return p, q * u


_EN_SERIES_MAX = 2.0    # E_n(-iy): power series up to here, fraction above
_EN_SERIES_TERMS = 14   # y^2j / (2j)! < 1e-17 for y <= 2 beyond these
_EN_CF_STEPS = 400      # the fraction needs about 100 steps at y = 2


def _re_expint(n: int, y):
    """Re E_n(-i y) = int_1^inf cos(y t) / t^n dt for an even n >= 2 and
    an array of y >= 0.

    Up to y = 2 the real part of the power series (DLMF 8.19.8), whose
    terms y^k/k! sum to at most cosh 2 in magnitude; above it the continued
    fraction of DLMF section 8.19 in its even form, by the modified Lentz
    method.  Neither recurs upward in n, so neither loses the
    (2 pi y)^(n-1) eps that the route through the sine integral loses to
    cancellation.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty(y.shape)
    lo = y <= _EN_SERIES_MAX
    # at z = -iy, n even, the psi(n) - log z term of 8.19.8 leaves only
    # (-1)^(n/2) (pi/2) y^(n-1)/(n-1)! real, and of the sum the even powers:
    # Re E_n = that - sum_j (-1)^j y^2j / ((2j - n + 1) (2j)!)
    coef = [-(-1.0) ** j / ((2 * j - n + 1) * math.factorial(2 * j))
            for j in range(_EN_SERIES_TERMS)]
    ys = y[lo]
    out[lo] = (ys[:, None] ** (2 * np.arange(_EN_SERIES_TERMS))) @ coef \
        + (-1) ** (n // 2) * (0.5 * PI) * ys ** (n - 1) / math.factorial(n - 1)
    # E_n(z) = e^-z / (z + n - 1 n/(z + n + 2 - 2 (n + 1)/(z + n + 4 - ...)));
    # every 8 steps the converged points leave the iteration
    idx = np.flatnonzero(~lo)
    z = -1j * y[idx]
    b = z + n
    c = np.full(z.shape, 1e300, dtype=complex)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while len(idx) and i < _EN_CF_STEPS:
        i += 1
        a = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h *= step
        if i % 8 == 0:
            done = np.abs(step - 1.0) <= 1e-16
            out[idx[done]] = (h[done] * np.exp(-z[done])).real
            keep = ~done
            idx, z, b, c, d, h = (idx[keep], z[keep], b[keep], c[keep],
                                  d[keep], h[keep])
    out[idx] = (h * np.exp(-z)).real
    return out


def _tail_cos(y, n: int):
    """int_bp^inf cos(2 pi y u) / u^n du = (2 pi)^(n-1) Re E_n(-i y), the
    part of the khat (n = 2) and k'' (n = 4) transforms beyond the
    breakpoint, for an array of y (even in y)."""
    y = np.abs(np.asarray(y, dtype=float))
    return (2.0 * PI) ** (n - 1) * _re_expint(n, y).reshape(y.shape)


# Below _FAST_Y_SWITCH khat_many and kpp_transform_many read piecewise
# Chebyshev tables: _LOW_PANELS panels of degree _LOW_DEG, one table per
# transform, by its name in the shipped tables
_LOW_PANELS = 100
_LOW_DEG = 10
_LOW_WIDTH = _FAST_Y_SWITCH / _LOW_PANELS
_LOW_TABLES = {_KHAT_SPEC: "khat_low", _KPP_SPEC: "kpp_low"}

# The coefficient tables ship as one float64 array, written by
# scripts/make_tables.py so that no process builds them: each name's
# entries, of its shape in C order, one after the other.  rs_c0..rs_c2
# are the Riemann-Siegel corrections C0, C1, C2 of zeros._rs_tables: a
# degree-24 model of Psi, the series of Psi''' and that of Psi'' with
# Psi^(6).
_TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "tables.npy")
_TABLE_LAYOUT = (("khat_low", (_LOW_DEG + 1, _LOW_PANELS)),
                 ("kpp_low", (_LOW_DEG + 1, _LOW_PANELS)),
                 ("rs_c0", (25,)), ("rs_c1", (22,)), ("rs_c2", (23,)))


@functools.cache
def _tables() -> dict:
    """The shipped tables by name, read-only views of the one array of
    ``tables.npy``, read at first use."""
    flat = np.load(_TABLE_PATH)
    flat.flags.writeable = False
    out, start = {}, 0
    for name, shape in _TABLE_LAYOUT:
        size = math.prod(shape)
        out[name] = flat[start:start + size].reshape(shape)
        start += size
    if start != flat.size:
        raise ValueError(f"{_TABLE_PATH}: {flat.size} entries, "
                         f"layout {start}")
    return out


def _low_table(spec) -> np.ndarray:
    """Chebyshev coefficients, one column per panel of [0, 50), of the
    transform ``spec``: read from ``tables.npy``, where
    ``python scripts/make_tables.py`` writes the interpolant of
    :func:`_reference_transform` at each panel's Chebyshev points."""
    return _tables()[_LOW_TABLES[spec]]


def _transform_many(y, spec):
    """The transform ``spec`` at the points y: the P/Q split at y >=
    _FAST_Y_SWITCH, the low-y table below."""
    y = np.abs(np.asarray(y, dtype=float))
    out = np.empty_like(y)
    hi = y >= _FAST_Y_SWITCH
    if np.any(hi):
        yh = y[hi]
        p, q = _pq(yh, spec)
        out[hi] = p * np.cos(yh) + q * np.sin(yh)
    lo = ~hi
    if np.any(lo):
        pos = y[lo] / _LOW_WIDTH
        panel = np.minimum(pos.astype(np.int64), _LOW_PANELS - 1)
        out[lo] = _clenshaw(_low_table(spec), panel, 2.0 * (pos - panel) - 1.0)
    return out


def khat_many(y):
    """Vectorized khat: quadrature-free fast path, ~1e-13 absolute.

    Matches ``khat(y, method='direct')`` (verified in the test suite); meant
    for the pair sums, where per-pair adaptive quadrature is hopeless.
    """
    return _transform_many(y, _KHAT_SPEC)


def kpp_transform_many(y):
    """Vectorized transform of k'': int k''(u) e(-u y) du."""
    return _transform_many(y, _KPP_SPEC)


# Each transform as the pair engine takes it: its values at y, looked up in
# this module at each call, so that a wrapper bound to the name (perfbench's
# spans) sees the calls, and its (P, Q) for y >= _FAST_Y_SWITCH
_KHAT = (lambda y: khat_many(y), lambda y: _pq(y, _KHAT_SPEC))
_KPP = (lambda y: kpp_transform_many(y), lambda y: _pq(y, _KPP_SPEC))


# ----------------------------------------------------------------------
# reference (quadrature) transforms
# ----------------------------------------------------------------------

def _reference_transform(y: float, spec) -> float:
    """The transform ``spec`` at y >= 0 by error-estimated panel quadrature
    on [0, bp] and the closed-form tail."""
    h, n, weight = spec
    omega = 2.0 * PI * y
    main, _ = integrate(lambda u: h(u) * np.cos(omega * u),
                        0.0, BREAKPOINT, omega=omega)
    return 2.0 * main + weight * float(_tail_cos(y, n))


def khat(y: float, method: str = "direct") -> float:
    """Fourier transform of k at y, by error-estimated panel quadrature.

    ``direct`` integrates k itself; ``closed`` integrates k'' and adds the
    boundary cosine term produced by two integrations by parts:

        khat(y) = -(2 pi y)^-2 * int k''(u) e(-u y) du
                  + (pi^3 / (2 y^2)) cos y

    Both take their transform from :func:`_reference_transform`:
    quadrature on [0, 1/(2 pi)] plus the E_n tail beyond it.
    """
    if method not in ("direct", "closed"):
        raise DomainError(f"unknown khat method {method!r}")
    if not math.isfinite(y):
        raise DomainError(f"khat needs a finite y: {y}")
    ya = abs(y)
    if method == "direct":
        return _reference_transform(ya, _KHAT_SPEC)
    if ya <= 1e-3:
        raise DomainError("closed form is singular at y = 0")
    return -_reference_transform(ya, _KPP_SPEC) / (2.0 * PI * ya) ** 2 \
        + (PI ** 3 / (2.0 * ya * ya)) * math.cos(ya)


def _khat_complex_residual(y: float) -> float:
    """|imaginary part| of int over [-40, 40] of k(u) e(-2 pi i u y),
    integrated without exploiting evenness.  Sanity guard for the transform;
    analytically zero.  The breakpoints at +-1 keep refinement of the 1/u^2
    tail near the kernel's break from halving the panels out to 40."""
    omega = 2.0 * PI * y
    imag, _ = integrate(lambda u: -k_values(u) * np.sin(omega * u),
                        -40.0, 40.0, omega=omega,
                        breakpoints=(-1.0, -BREAKPOINT, BREAKPOINT, 1.0))
    return abs(imag)


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of a named identity check.

    ``assertable`` distinguishes true identities (pass/fail against
    ``tolerance``) from report-only comparisons whose discrepancy is itself
    the quantity of interest.  Serialized by the CLI to the JSON report
    schema.
    """

    name: str
    params: dict
    lhs: float
    rhs: float
    discrepancy_abs: float
    discrepancy_rel: float
    tolerance: float
    passed: bool
    assertable: bool = True
    error_scales: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def _report(name, params, lhs, rhs, tol, assertable=True, scale=None,
            terms=(), **kw):
    """The check's report; the relative discrepancy is taken against the
    largest of |lhs|, |rhs| and the |terms| that the caller names."""
    d_abs = abs(lhs - rhs)
    ref = max(abs(lhs), abs(rhs), *map(abs, terms))
    d_rel = d_abs / ref if ref > 0 else 0.0
    passed = True if not assertable else d_rel <= tol
    return CheckReport(name=name, params=params, lhs=lhs, rhs=rhs,
                       discrepancy_abs=d_abs, discrepancy_rel=d_rel,
                       tolerance=tol, passed=passed, assertable=assertable,
                       error_scales=scale or {}, **kw)


_W_PARTITION_TOL = 1e-15


def _check_w_partition():
    n, lo, hi = 10_000, -10.0, 10.0
    u = np.linspace(lo, hi, n)
    w = 4.0 / (4.0 + u * u)
    comp = u * u / (4.0 + u * u)
    worst = float(np.max(np.abs(w + comp - 1.0)))
    rep = _report("w_partition", {"n": n, "u_min": lo, "u_max": hi},
                  1.0, 1.0, _W_PARTITION_TOL)
    rep.discrepancy_abs = worst
    rep.discrepancy_rel = worst
    rep.passed = worst <= _W_PARTITION_TOL
    return rep


_FD_TARGETS = {
    "k_prime_0": 0.0,
    "k_dprime_0": PI ** 8 / 18.0,
    "k_prime_right": -4.0 * PI ** 3,
    "k_prime_left": -4.0 * PI ** 3 + PI ** 5,
    "k_dprime_right": 24.0 * PI ** 4,
    "k_dprime_left": PI ** 8 / 2.0 - 4.0 * PI ** 6 + 24.0 * PI ** 4,
}


def _one_sided_d1(f0, f1, f2, f3, f4, h):
    return (25 * f0 - 48 * f1 + 36 * f2 - 16 * f3 + 3 * f4) / (12 * h)


def _one_sided_d2(f0, f1, f2, f3, f4, h):
    return (35 * f0 - 104 * f1 + 114 * f2 - 56 * f3 + 11 * f4) / (12 * h * h)


def _fd_derivatives(x0, h, direction):
    """(d1, d2) one-sided finite differences of k at x0, Richardson-refined.

    ``direction=-1`` uses stencil points x0, x0-h, ..; ``+1`` the mirror.
    Only k *values* enter, keeping the route independent of the closed-form
    derivative branches.
    """
    def stencil(hh):
        pts = x0 + direction * hh * np.arange(5)
        return k_values(pts)

    f_h = stencil(h)
    f_h2 = stencil(h / 2.0)
    # the 25/-48/36/-16/3 pattern is the backward stencil; mirror for forward
    d1_h = -direction * _one_sided_d1(*f_h, h)
    d1_h2 = -direction * _one_sided_d1(*f_h2, h / 2.0)
    d2_h = _one_sided_d2(*f_h, h)
    d2_h2 = _one_sided_d2(*f_h2, h / 2.0)
    # orders: d1 stencil O(h^4), d2 stencil O(h^3)
    d1 = (16.0 * d1_h2 - d1_h) / 15.0
    d2 = (8.0 * d2_h2 - d2_h) / 7.0
    return d1, d2


# lemma3's bounds: k''(0) against its target, every other difference
_FD_ZERO_TOL = 1e-4
_FD_SIDE_TOL = 1e-3


def _check_kernel_derivatives():
    h = 1e-3

    # central differences at 0: k even, so d1 should vanish
    pts = h * np.array([-2.0, -1.0, 1.0, 2.0])
    kv = k_values(pts)
    d1_0 = (kv[0] - 8 * kv[1] + 8 * kv[2] - kv[3]) / (12 * h)

    def central_d2(hh):
        a = k_values(np.array([hh]))[0]
        return 2.0 * a / (hh * hh)    # k(0) = 0 and k even

    d2_h = central_d2(h)
    d2_h2 = central_d2(h / 2.0)
    d2_0 = (4.0 * d2_h2 - d2_h) / 3.0

    left_d1, left_d2 = _fd_derivatives(BREAKPOINT, h, -1)
    right_d1, right_d2 = _fd_derivatives(BREAKPOINT, h, +1)

    got = {"k_prime_0": d1_0, "k_dprime_0": d2_0,
           "k_prime_left": left_d1, "k_dprime_left": left_d2,
           "k_prime_right": right_d1, "k_dprime_right": right_d2}
    rel = {}
    for key, target in _FD_TARGETS.items():
        if target == 0.0:
            rel[key] = abs(got[key])
        else:
            rel[key] = abs(got[key] - target) / abs(target)
    passed = (rel["k_dprime_0"] <= _FD_ZERO_TOL
              and all(rel[k] <= _FD_SIDE_TOL for k in
                      ("k_prime_left", "k_prime_right",
                       "k_dprime_left", "k_dprime_right"))
              and rel["k_prime_0"] <= _FD_SIDE_TOL)
    worst = max(rel.values())
    rep = CheckReport(
        name="lemma3", params={"step": h},
        lhs=got["k_dprime_0"], rhs=_FD_TARGETS["k_dprime_0"],
        discrepancy_abs=abs(got["k_dprime_0"] - _FD_TARGETS["k_dprime_0"]),
        discrepancy_rel=worst, tolerance=_FD_SIDE_TOL, passed=passed,
        detail={"finite_difference": got, "targets": dict(_FD_TARGETS),
                "relative_errors": rel})
    return rep


# lemma4's bounds; the imaginary residual is analytically zero
_FOURIER_TOL = 1e-6
_IMAG_RESIDUAL_TOL = 1e-8


def _check_fourier_identity():
    ys = (0.5, 1.0, 2.0, 5.0, 10.0)
    pairs = {y: (khat(y, "direct"), khat(y, "closed")) for y in ys}
    diffs = {y: a - b for y, (a, b) in pairs.items()}
    worst_y = max(diffs, key=lambda y: abs(diffs[y]))
    worst = abs(diffs[worst_y])
    imag = _khat_complex_residual(min(ys))
    rep = CheckReport(
        name="lemma4", params={"y_values": list(ys)},
        lhs=pairs[worst_y][0], rhs=pairs[worst_y][1],
        discrepancy_abs=worst, discrepancy_rel=worst,
        tolerance=_FOURIER_TOL,
        passed=(worst <= _FOURIER_TOL and imag <= _IMAG_RESIDUAL_TOL),
        detail={"per_y_differences": {f"{y:g}": d for y, d in diffs.items()},
                "imag_residual": imag})
    return rep


def t_weighted_kernel_integral(T: float, beta: float,
                               deriv: bool = False) -> float:
    """int_0^beta T^(-2 alpha) k(alpha / (2 pi beta)) d alpha (or with k'').

    Shared by the parts-integration check and the conditional asymptotic
    evaluators; a single implementation keeps those cross-references exact.
    """
    logT = math.log(T)
    fn = kpp_values if deriv else k_values
    val, _ = integrate(
        lambda a: np.exp(-2.0 * logT * a) * fn(a / (2.0 * PI * beta)),
        0.0, beta)
    return val


def _check_parts_identity():
    beta, T = 0.5, 1000.0
    logT = math.log(T)
    lhs = t_weighted_kernel_integral(T, beta, deriv=True)
    base = t_weighted_kernel_integral(T, beta)
    rhs = 16.0 * PI ** 2 * beta ** 2 * logT ** 2 * base
    # as printed the identity drops the boundary terms of the two parts
    # integrations; they are computed here so the report can show that the
    # residual is fully explained by them
    c = 1.0 / (2.0 * PI * beta)
    tpow = T ** (-2.0 * beta)
    kp_left = -4.0 * PI ** 3 + PI ** 5
    boundary = (1.0 / c) * tpow * kp_left \
        + (2.0 * logT / c ** 2) * tpow * PI ** 2
    rep = _report("lemma7", {"beta": beta, "T": T}, lhs, rhs, 0.0,
                  assertable=False)
    rep.detail = {"boundary_terms": boundary,
                  "residual_after_boundary": lhs - rhs - boundary}
    rep.notes.append(
        "identity as printed omits parts boundary terms; discrepancy is "
        "reported, not asserted, and matches the boundary terms shown")
    return rep


def _check_geometric_moment_bound():
    kk = 1
    cs = (2.0, 4.0, 8.0, 16.0)
    vals = {}
    for C in cs:
        total = 0.0
        n = 1
        while True:
            term = n ** kk / C ** n
            total += term
            if term < 1e-18 * max(total, 1.0) and n > kk:
                break
            n += 1
        vals[C] = C * total
    seq = [vals[C] for C in cs]
    bound = seq[0] * (1.0 + 1e-12)
    passed = all(v <= bound for v in seq) \
        and all(a >= b for a, b in zip(seq, seq[1:]))
    rep = CheckReport(
        name="lemma11", params={"k": kk, "C_values": list(cs)},
        lhs=max(seq), rhs=bound, discrepancy_abs=0.0, discrepancy_rel=0.0,
        tolerance=0.0, passed=passed,
        detail={"C_times_sum": {f"{c:g}": v for c, v in vals.items()}})
    rep.notes.append("C * sum n^k / C^n is decreasing in C, hence bounded "
                     "by its value at C=2")
    return rep


_CHECKS = {
    "w_partition": _check_w_partition,
    "lemma3": _check_kernel_derivatives,
    "lemma4": _check_fourier_identity,
    "lemma7": _check_parts_identity,
    "lemma11": _check_geometric_moment_bound,
}


def check_identity(name: str) -> CheckReport:
    """Run one of the kernel-level identity checks by name.

    Each asserting check passes against fixed tolerances that sit beside
    it; lemma11 compares exactly, and the report-only lemma7 reports
    tolerance 0.0.
    """
    if name not in _CHECKS:
        raise DomainError(
            f"unknown identity {name!r}; choose from {sorted(_CHECKS)}")
    return _CHECKS[name]()
