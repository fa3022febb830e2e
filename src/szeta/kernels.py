"""The smoothing weight f, the piecewise kernel k, and their transforms.

``f(u) = (pi/2) u cot(pi u / 2)`` on [0, 1] damps the prime sum of the
explicit formula.  The kernel::

    k(u) = (1/(2u) - (pi^2/2) cot(pi^2 u))^2   for |u| <= 1/(2 pi)
    k(u) = 1/(4 u^2)                           for |u| >  1/(2 pi)

arises from squaring the zero-sum side; its Fourier transform
``khat(y) = int k(u) e(-u y) du`` (with ``e(v) = exp(2 pi i v)``) drives every
pair-correlation identity downstream.  khat is real and even, so it is
computed as a cosine transform; the ``1/(4u^2)`` branch beyond the breakpoint
is integrated in closed form via the sine integral, leaving quadrature only
on the finite piece ``[0, 1/(2 pi)]``.

Two independent evaluations of khat are exposed: ``direct`` (transform of k
itself) and ``closed`` (transform of k'' plus the boundary cosine term picked
up by parts integration); their agreement is one of the toolkit's primary
identity checks.

Near u = 0 both branches of the inner formula cancel to ~4 digits by
u = 1e-3, so evaluation switches to the Laurent-free power series of
``g(u) = 1/(2u) - (pi^2/2) cot(pi^2 u)`` below ``|u| = 0.05``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import sici

from .errors import DomainError
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate

PI = math.pi
BREAKPOINT = 1.0 / (2.0 * PI)

# |B_2n| for n = 1..10
_ABS_BERNOULLI = [Fraction(1, 6), Fraction(1, 30), Fraction(1, 42),
                  Fraction(1, 30), Fraction(5, 66), Fraction(691, 2730),
                  Fraction(7, 6), Fraction(3617, 510), Fraction(43867, 798),
                  Fraction(174611, 330)]

# g(u) = sum_n  b_n u^(2n-1),   b_n = 2^(2n-1) |B_2n| pi^(4n) / (2n)!
_G_COEF = [float(Fraction(2 ** (2 * n - 1), math.factorial(2 * n))
                 * _ABS_BERNOULLI[n - 1]) * PI ** (4 * n)
           for n in range(1, 9)]

_SERIES_CUT = 0.05   # series/raw switch for g and its derivatives


def _g_series(u):
    u2 = u * u
    s = 0.0
    for b in reversed(_G_COEF):
        s = u2 * s + b
    return u * s


def _gp_series(u):
    u2 = u * u
    s = 0.0
    for n in range(len(_G_COEF), 0, -1):
        s = u2 * s + (2 * n - 1) * _G_COEF[n - 1]
    return s


def _gpp_series(u):
    u2 = u * u
    s = 0.0
    for n in range(len(_G_COEF), 1, -1):
        s = u2 * s + (2 * n - 1) * (2 * n - 2) * _G_COEF[n - 1]
    return u * s


def _g_raw(u):
    return 0.5 / u - 0.5 * PI * PI / np.tan(PI * PI * u)


def _gp_raw(u):
    s = np.sin(PI * PI * u)
    return -0.5 / (u * u) + 0.5 * PI ** 4 / (s * s)


def _gpp_raw(u):
    s = np.sin(PI * PI * u)
    return 1.0 / u ** 3 - PI ** 6 * np.cos(PI * PI * u) / s ** 3


def _inside(u, raw, series):
    """Evaluate an inside-branch helper with the series/raw switch, |u|<=bp."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SERIES_CUT
    safe = np.where(small, _SERIES_CUT, u)   # keep raw() off the singularity
    return np.where(small, series(u), raw(safe))


def k_values(u):
    """Vectorized k(u); the breakpoint itself uses the inside branch
    (both branches agree there, k is continuous)."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    outside = u > BREAKPOINT
    out[outside] = 0.25 / u[outside] ** 2
    gi = _inside(u[~outside], _g_raw, _g_series)
    out[~outside] = gi * gi
    return out


def _kp_inside(u):
    g = _inside(u, _g_raw, _g_series)
    gp = _inside(u, _gp_raw, _gp_series)
    return 2.0 * g * gp


def _kpp_inside(u):
    g = _inside(u, _g_raw, _g_series)
    gp = _inside(u, _gp_raw, _gp_series)
    gpp = _inside(u, _gpp_raw, _gpp_series)
    return 2.0 * (gp * gp + g * gpp)


def kpp_values(u):
    """Vectorized k''(u) using the inside branch at the breakpoint."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    outside = u > BREAKPOINT
    out[outside] = 1.5 / u[outside] ** 4
    out[~outside] = _kpp_inside(u[~outside])
    return out


@dataclass(frozen=True)
class KernelId:
    """Selector for :func:`eval_kernel`.

    ``side`` matters only for ``k_prime``/``k_double_prime`` at the
    breakpoint ``|u| = 1/(2 pi)``: ``left`` is the inside branch, ``right``
    the ``1/(4u^2)`` branch; ``auto`` picks by the sign of ``|u| - 1/(2 pi)``
    and falls back to ``right`` exactly at the breakpoint.
    """

    which: str
    side: str = "auto"

    def __post_init__(self):
        if self.which not in ("f", "k", "k_prime", "k_double_prime"):
            raise DomainError(f"unknown kernel selector {self.which!r}")
        if self.side not in ("left", "right", "auto"):
            raise DomainError(f"unknown side {self.side!r}")


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


def _use_inside(u_abs, side):
    if side == "left":
        return u_abs <= BREAKPOINT
    if side == "right":
        return u_abs < BREAKPOINT
    return u_abs < BREAKPOINT      # auto: breakpoint itself -> outside value


def eval_kernel(kid: KernelId, u: float) -> float:
    """Pointwise evaluation of f, k, k' or k'' with one-sided control."""
    if kid.which == "f":
        return f_weight(u)
    if not math.isfinite(u):
        raise DomainError("u must be finite")
    ua = abs(u)
    sgn = -1.0 if u < 0 else 1.0
    if kid.which == "k":
        return float(k_values(ua))
    inside = _use_inside(ua, kid.side)
    if kid.which == "k_prime":
        if inside:
            val = float(_kp_inside(np.asarray(ua)))
        else:
            val = -0.5 / ua ** 3
        return sgn * val            # k is even, k' odd
    if inside:
        return float(_kpp_inside(np.asarray(ua)))
    return 1.5 / ua ** 4


# ----------------------------------------------------------------------
# derivative tables at the breakpoint, for the high-frequency transform path
# ----------------------------------------------------------------------

def _cot_derivative_values(nmax):
    """cot^(n)(pi/2) for n=0..nmax via the polynomial recurrence
    P_{n+1}(c) = -(1+c^2) P_n'(c) evaluated at c = cot(pi/2) = 0."""
    from numpy.polynomial import polynomial as P
    poly = np.array([0.0, 1.0])
    vals = [0.0]
    for _ in range(nmax):
        poly = -P.polymul(np.array([1.0, 0.0, 1.0]), P.polyder(poly))
        vals.append(float(P.polyval(0.0, poly)))
    return vals


_DERIV_MAX = 14
_COT_D = _cot_derivative_values(_DERIV_MAX)


def _g_derivs_at_breakpoint():
    out = []
    for n in range(_DERIV_MAX + 1):
        t1 = ((-1) ** n) * math.factorial(n) / (2.0 * BREAKPOINT ** (n + 1))
        t2 = 0.5 * PI * PI * PI ** (2 * n) * _COT_D[n]
        out.append(t1 - t2)
    return out


def _k_derivs_at_breakpoint():
    gd = _g_derivs_at_breakpoint()
    return [sum(math.comb(j, i) * gd[i] * gd[j - i] for i in range(j + 1))
            for j in range(_DERIV_MAX + 1)]


_KD_BP = _k_derivs_at_breakpoint()    # k^(j)(breakpoint-) for j = 0.._DERIV_MAX

_FAST_Y_SWITCH = 50.0                 # boundary series above, fixed grid below
_SERIES_TERMS = 5


def _fixed_grid(n_panels=40, nodes=12):
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, BREAKPOINT, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * x_gl[None, :]).ravel()
    w = (half[:, None] * w_gl[None, :]).ravel()
    return x, w


_GRID_X, _GRID_W = _fixed_grid()
_GRID_K = None
_GRID_KPP = None


def _grid_tables():
    global _GRID_K, _GRID_KPP
    if _GRID_K is None:
        _GRID_K = k_values(_GRID_X) * _GRID_W
        _GRID_KPP = kpp_values(_GRID_X) * _GRID_W
    return _GRID_K, _GRID_KPP


def _cos_moment_series(a, deriv_offset):
    """Asymptotic-by-parts value of int_0^bp h(u) cos(a u) du where
    h = k^(deriv_offset).  Odd derivatives of k vanish at 0, so only
    breakpoint boundary data enters.  Valid for large |a|."""
    s = np.sin(a * BREAKPOINT)
    c = np.cos(a * BREAKPOINT)
    total = np.zeros_like(a)
    sign = 1.0
    for j in range(_SERIES_TERMS):
        d0 = _KD_BP[2 * j + deriv_offset]
        d1 = _KD_BP[2 * j + 1 + deriv_offset]
        total += sign * (d0 * s / a ** (2 * j + 1) + d1 * c / a ** (2 * j + 2))
        sign = -sign
    return total


def _cos_moments(y, deriv_offset):
    """int_0^bp h(u) cos(2 pi y u) du for array y, h = k or k''."""
    y = np.abs(np.asarray(y, dtype=float))
    a = 2.0 * PI * y
    out = np.empty_like(y)
    hi = y >= _FAST_Y_SWITCH
    if np.any(hi):
        out[hi] = _cos_moment_series(a[hi], deriv_offset)
    if np.any(~hi):
        tab_k, tab_kpp = _grid_tables()
        tab = tab_k if deriv_offset == 0 else tab_kpp
        out[~hi] = np.cos(np.outer(a[~hi], _GRID_X)) @ tab
    return out


def _tail_cos_over_u2(y, b=BREAKPOINT):
    """int_b^inf cos(2 pi y u) / u^2 du, exact via the sine integral."""
    y = np.abs(np.asarray(y, dtype=float))
    a = 2.0 * PI * y
    ab = a * b
    si, _ = sici(ab)
    out = np.cos(ab) / b - a * (0.5 * PI - si)
    return np.where(y == 0.0, 1.0 / b, out)


def _tail_cos_over_u4(y, b=BREAKPOINT):
    """int_b^inf cos(2 pi y u) / u^4 du, exact via the sine integral."""
    y = np.abs(np.asarray(y, dtype=float))
    a = 2.0 * PI * y
    ab = a * b
    si, _ = sici(ab)
    iu2 = np.cos(ab) / b - a * (0.5 * PI - si)
    iu3 = np.sin(ab) / (2.0 * b * b) + 0.5 * a * iu2
    out = np.cos(ab) / (3.0 * b ** 3) - (a / 3.0) * iu3
    return np.where(y == 0.0, 1.0 / (3.0 * b ** 3), out)


def khat_many(y):
    """Vectorized khat: quadrature-free fast path, ~1e-11 absolute.

    Matches ``khat(y, method='direct')`` (verified in the test suite); meant
    for the O(N^2) pair sums where per-pair adaptive quadrature is hopeless.
    """
    y = np.asarray(y, dtype=float)
    return 2.0 * _cos_moments(y, 0) + 0.5 * _tail_cos_over_u2(y)


def kpp_transform_many(y):
    """Vectorized transform of k'': int k''(u) e(-u y) du."""
    y = np.asarray(y, dtype=float)
    return 2.0 * _cos_moments(y, 2) + 3.0 * _tail_cos_over_u4(y)


# ----------------------------------------------------------------------
# reference (quadrature) transforms
# ----------------------------------------------------------------------

def khat(y: float, method: str = "direct",
         spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Fourier transform of k at y, by adaptive panel quadrature.

    ``direct`` integrates k itself; ``closed`` integrates k'' and adds the
    boundary cosine term produced by two integrations by parts:

        khat(y) = -(2 pi y)^-2 * int k''(u) e(-u y) du
                  + (pi^3 / (2 y^2)) cos y

    Both reduce the infinite range to [0, 1/(2 pi)] plus a closed-form sine
    integral tail, since k and k'' coincide with 1/(4u^2), 3/(2u^4) beyond
    the breakpoint.
    """
    if method not in ("direct", "closed"):
        raise DomainError(f"unknown khat method {method!r}")
    ya = abs(y)
    omega = 2.0 * PI * ya
    if method == "direct":
        main, _ = integrate(lambda u: k_values(u) * np.cos(omega * u),
                            0.0, BREAKPOINT, spec, omega=omega)
        val = 2.0 * main + 0.5 * float(_tail_cos_over_u2(ya))
    else:
        if ya <= 1e-3:
            raise DomainError("closed form is singular at y = 0")
        main, _ = integrate(lambda u: kpp_values(u) * np.cos(omega * u),
                            0.0, BREAKPOINT, spec, omega=omega)
        k2 = 2.0 * main + 3.0 * float(_tail_cos_over_u4(ya))
        val = -k2 / (2.0 * PI * ya) ** 2 \
            + (PI ** 3 / (2.0 * ya * ya)) * math.cos(ya)
    return val


def _khat_complex_residual(y: float, spec: QuadratureSpec) -> float:
    """|imaginary part| of int over [-cutoff, cutoff] of k(u) e(-2 pi i u y),
    integrated without exploiting evenness.  Sanity guard for the transform;
    analytically zero."""
    omega = 2.0 * PI * y
    c = max(spec.infinite_cutoff, 4.0 * BREAKPOINT)
    sp = spec.with_breakpoints((-BREAKPOINT, BREAKPOINT))
    imag, _ = integrate(lambda u: -k_values(u) * np.sin(omega * u),
                        -c, c, sp, omega=omega)
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
            **kw):
    d_abs = abs(lhs - rhs)
    ref = max(abs(lhs), abs(rhs))
    d_rel = d_abs / ref if ref > 0 else 0.0
    passed = True if not assertable else d_rel <= tol
    return CheckReport(name=name, params=params, lhs=lhs, rhs=rhs,
                       discrepancy_abs=d_abs, discrepancy_rel=d_rel,
                       tolerance=tol, passed=passed, assertable=assertable,
                       error_scales=scale or {}, **kw)


def _check_w_partition(params, spec):
    n = int(params.get("n", 10_000))
    lo = float(params.get("u_min", -10.0))
    hi = float(params.get("u_max", 10.0))
    tol = float(params.get("tol", 1e-15))
    u = np.linspace(lo, hi, n)
    w = 4.0 / (4.0 + u * u)
    comp = u * u / (4.0 + u * u)
    worst = float(np.max(np.abs(w + comp - 1.0)))
    rep = _report("w_partition", {"n": n, "u_min": lo, "u_max": hi},
                  1.0, 1.0, tol)
    rep.discrepancy_abs = worst
    rep.discrepancy_rel = worst
    rep.passed = worst <= tol
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


def _check_kernel_derivatives(params, spec):
    h = float(params.get("step", 1e-3))
    tol_zero = float(params.get("tol_center", 1e-4))
    tol_side = float(params.get("tol", 1e-3))

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
    passed = (rel["k_dprime_0"] <= tol_zero
              and all(rel[k] <= tol_side for k in
                      ("k_prime_left", "k_prime_right",
                       "k_dprime_left", "k_dprime_right"))
              and rel["k_prime_0"] <= tol_side)
    worst = max(rel.values())
    rep = CheckReport(
        name="lemma3", params={"step": h},
        lhs=got["k_dprime_0"], rhs=_FD_TARGETS["k_dprime_0"],
        discrepancy_abs=abs(got["k_dprime_0"] - _FD_TARGETS["k_dprime_0"]),
        discrepancy_rel=worst, tolerance=tol_side, passed=passed,
        detail={"finite_difference": got, "targets": dict(_FD_TARGETS),
                "relative_errors": rel})
    return rep


def _check_fourier_identity(params, spec):
    ys = params.get("y_values", (0.5, 1.0, 2.0, 5.0, 10.0))
    tol = float(params.get("tol", 1e-6))
    diffs = {}
    for y in ys:
        diffs[float(y)] = khat(float(y), "direct", spec) \
            - khat(float(y), "closed", spec)
    worst_y = max(diffs, key=lambda y: abs(diffs[y]))
    worst = abs(diffs[worst_y])
    imag = _khat_complex_residual(float(min(ys)), spec)
    rep = CheckReport(
        name="lemma4", params={"y_values": list(map(float, ys))},
        lhs=khat(worst_y, "direct", spec), rhs=khat(worst_y, "closed", spec),
        discrepancy_abs=worst, discrepancy_rel=worst,
        tolerance=tol, passed=(worst <= tol and imag <= spec.abs_tol * 10),
        detail={"per_y_differences": {f"{y:g}": d for y, d in diffs.items()},
                "imag_residual": imag})
    return rep


def t_weighted_kernel_integral(T: float, beta: float,
                               spec: QuadratureSpec = DEFAULT_SPEC,
                               deriv: bool = False) -> float:
    """int_0^beta T^(-2 alpha) k(alpha / (2 pi beta)) d alpha (or with k'').

    Shared by the parts-integration check and the conditional asymptotic
    evaluators; a single implementation keeps those cross-references exact.
    """
    logT = math.log(T)
    fn = kpp_values if deriv else k_values
    val, _ = integrate(
        lambda a: np.exp(-2.0 * logT * a) * fn(a / (2.0 * PI * beta)),
        0.0, beta, spec)
    return val


def _check_parts_identity(params, spec):
    beta = float(params.get("beta", 0.5))
    T = float(params.get("T", 1000.0))
    logT = math.log(T)
    lhs = t_weighted_kernel_integral(T, beta, spec, deriv=True)
    base = t_weighted_kernel_integral(T, beta, spec, deriv=False)
    rhs = 16.0 * PI ** 2 * beta ** 2 * logT ** 2 * base
    # as printed the identity drops the boundary terms of the two parts
    # integrations; they are computed here so the report can show that the
    # residual is fully explained by them
    c = 1.0 / (2.0 * PI * beta)
    tpow = T ** (-2.0 * beta)
    kp_left = -4.0 * PI ** 3 + PI ** 5
    boundary = (1.0 / c) * tpow * kp_left \
        + (2.0 * logT / c ** 2) * tpow * PI ** 2
    rep = _report("lemma7", {"beta": beta, "T": T}, lhs, rhs,
                  tol=float(params.get("tol", 1e-6)), assertable=False)
    rep.detail = {"boundary_terms": boundary,
                  "residual_after_boundary": lhs - rhs - boundary}
    rep.notes.append(
        "identity as printed omits parts boundary terms; discrepancy is "
        "reported, not asserted, and matches the boundary terms shown")
    return rep


def _check_geometric_moment_bound(params, spec):
    kk = int(params.get("k", 1))
    cs = params.get("C_values", (2.0, 4.0, 8.0, 16.0))
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
        vals[float(C)] = C * total
    seq = [vals[float(C)] for C in cs]
    bound = seq[0] * (1.0 + 1e-12)
    passed = all(v <= bound for v in seq) \
        and all(a >= b for a, b in zip(seq, seq[1:]))
    rep = CheckReport(
        name="lemma11", params={"k": kk, "C_values": list(map(float, cs))},
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


def check_identity(name: str, params: dict | None = None,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> CheckReport:
    """Run one of the kernel-level identity checks by name."""
    if name not in _CHECKS:
        raise DomainError(
            f"unknown identity {name!r}; choose from {sorted(_CHECKS)}")
    return _CHECKS[name](params or {}, spec)
