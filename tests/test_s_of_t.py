import gc
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from oracles import (gap_integral_oracle, gh_gap_pass_oracle,
                     sinh_integral_oracle, theta_binet_oracle)
from szeta.errors import DomainError
from szeta.kernels import f_weight
from szeta.primes import build_prime_table
from szeta.s_of_t import (SEvaluator, _s_power_integral, _theta_sin_tail,
                          _zero_tail_bound, g_and_h_direct, s_exact,
                          s_explicit, s_mean, second_moment,
                          sin_sinh_integral, sinh_integral)
from szeta.zeros import ZeroSet, theta

PI = math.pi


@pytest.fixture(scope="module")
def ev_120(zeros_120, prime_table_small):
    return SEvaluator(zeros=zeros_120, prime_table=prime_table_small)


def test_s_exact_at_14_against_oracle(ev_120):
    # N(14) = 0, so S(14) = -1 - theta(14)/pi with theta from the
    # log-Gamma quadrature oracle
    oracle = -1.0 - theta_binet_oracle(14.0) / PI
    assert s_exact(14.0, ev_120) == pytest.approx(oracle, abs=1e-10)


def test_s_exact_jump_at_first_zero(ev_120):
    g1 = float(ev_120.zeros.ordinates[0])
    jump = s_exact(g1 + 1e-6, ev_120) - s_exact(g1 - 1e-6, ev_120)
    assert jump == pytest.approx(1.0, abs=1e-5)


def test_s_exact_midpoint_convention(ev_120):
    g1 = float(ev_120.zeros.ordinates[0])
    mid = 0.5 * (s_exact(g1 - 1e-9, ev_120) + s_exact(g1 + 1e-9, ev_120))
    assert s_exact(g1, ev_120) == pytest.approx(mid, abs=1e-5)


def test_s_exact_domain(ev_120):
    for t in (-0.5, math.nan, 500.0):
        with pytest.raises(DomainError):
            s_exact(t, ev_120)
    incomplete = ZeroSet(ordinates=np.array([15.0]), t_max=100.0,
                         source="imported", claimed_complete=False)
    with pytest.raises(DomainError):
        s_exact(20.0, SEvaluator(zeros=incomplete,
                                 prime_table=ev_120.prime_table))


def test_s_exact_decreasing_between_zeros(ev_120):
    g = ev_120.zeros.ordinates
    for i in (0, 5, 20):
        ts = np.linspace(g[i] + 1e-6, g[i + 1] - 1e-6, 9)
        vals = [s_exact(float(t), ev_120) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sinh_integral_against_oracle():
    # log-spaced grid, both sides of v = 30 (the old asymptotic switch) and
    # of v = 60 (the digamma/series switch): I(v) itself, then sin(v) I(|v|)
    # at both signs (it is odd)
    vs = np.concatenate((np.logspace(-3.0, 3.0, 60),
                         [29.999, 30.001, 59.999, 60.0, 60.001]))
    for v, i in zip(vs, sinh_integral(vs)):
        want_i = sinh_integral_oracle(v)
        assert abs(i - want_i) <= 1e-12 * want_i, v
        for sv in (v, -v):
            want = math.sin(sv) * want_i
            got = float(sin_sinh_integral(sv))
            assert abs(got - want) <= 1e-12 * abs(want), sv


def test_sinh_integral_zero_and_limits():
    # midpoint value 0 at v = 0, limits +-pi/2 from either side
    assert sin_sinh_integral(np.array([0.0]))[0] == 0.0
    assert float(sin_sinh_integral(0.0)) == 0.0
    for v in (1e-300, 1e-12):
        assert float(sin_sinh_integral(v)) == pytest.approx(PI / 2, rel=1e-12)
        assert float(sin_sinh_integral(-v)) == pytest.approx(-PI / 2,
                                                             rel=1e-12)


def test_sinh_integral_even_and_monotone():
    # I(v) = sin_sinh_integral(v) / sin(v) away from the roots of sin
    v = np.array([0.01, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 50.0, 59.0, 61.0,
                  100.0, 400.0])
    assert np.array_equal(sin_sinh_integral(-v), -sin_sinh_integral(v))
    i_of_v = sin_sinh_integral(v) / np.sin(v)
    assert np.all(np.diff(i_of_v) < 0.0)


def test_sinh_integral_large_v_limit():
    # v^2 I(v) -> int_0^inf u/sinh u du = pi^2/4, next term -pi^4/(8 v^2)
    for v, rel in ((50.0, 0.01), (1e4, 1e-7)):
        assert v * v * float(sin_sinh_integral(v)) / math.sin(v) == \
            pytest.approx(PI ** 2 / 4, rel=rel)


def test_s_explicit_agreement(ev_120):
    for t in (30.0, 50.0, 80.0):
        val, budget = s_explicit(t, t, ev_120)
        assert abs(val - s_exact(t, ev_120)) < 0.15
        assert budget > 0.0


def test_s_explicit_support_at_x4(ev_120):
    # independent oracle: same formula assembled by hand, prime part over
    # n in {2,3,4} only, zero part by library quadrature per ordinate
    t = 40.0
    x = 4.0
    logx = math.log(x)
    prime = 0.0
    for n, lam in ((2, math.log(2)), (3, math.log(3)), (4, math.log(2))):
        ln = math.log(n)
        prime -= lam / math.sqrt(n) * math.sin(t * ln) / ln \
            * f_weight(ln / logx) / PI
    zpart = 0.0
    for g in ev_120.zeros.ordinates:
        v = (t - g) * logx
        if v != 0.0:
            zpart += math.sin(v) * sinh_integral_oracle(v) / PI
    val, _ = s_explicit(t, x, ev_120)
    assert val == pytest.approx(prime + zpart, abs=1e-7)


def test_s_explicit_zero_sum_antisymmetry(prime_table_small):
    # synthetic two-zero set, t mirrored about the midpoint: the zero sums
    # cancel, so the two values add up to the prime parts alone
    zs = ZeroSet(ordinates=np.array([20.0, 21.0]), t_max=60.0,
                 source="imported", claimed_complete=False)
    ev = SEvaluator(zeros=zs, prime_table=prime_table_small)
    x = 9.0
    lo, hi = 20.5 - 0.3, 20.5 + 0.3
    v_lo, _ = s_explicit(lo, x, ev)
    v_hi, _ = s_explicit(hi, x, ev)
    logx = math.log(x)
    prime = 0.0
    for t in (lo, hi):
        for n, lam in ((2, math.log(2)), (3, math.log(3)), (4, math.log(2)),
                       (5, math.log(5)), (7, math.log(7)),
                       (8, math.log(2)), (9, math.log(3))):
            ln = math.log(n)
            prime -= lam / math.sqrt(n) * math.sin(t * ln) / ln \
                * f_weight(ln / logx) / PI
    assert v_lo + v_hi == pytest.approx(prime, abs=1e-9)


def test_s_explicit_residual_shrinks_with_x(zeros_120, prime_table_small):
    ev = SEvaluator(zeros=zeros_120, prime_table=prime_table_small)
    t = 50.0
    exact = s_exact(t, ev)
    near, _ = s_explicit(t, math.sqrt(t), ev)
    far, _ = s_explicit(t, t * t, ev)
    assert abs(far - exact) < abs(near - exact)


def _s_explicit_per_call(t, x, ev):
    # s_explicit's value with its prime terms rebuilt from the table on
    # every call, operation for operation
    logx = math.log(x)
    tab = ev.prime_table
    sel = tab.support_n <= x
    n = tab.support_n[sel].astype(float)
    logp = np.log(tab.support_p[sel].astype(float))
    logn = np.log(n)
    coef = logp / (np.sqrt(n) * logn) * f_weight(logn / logx)
    prime = -float(np.sum(coef * np.sin(t * logn))) / PI
    g = ev.zeros.ordinates
    return prime + float(np.sum(sin_sinh_integral((t - g) * logx))) / PI


def test_s_explicit_prime_terms_kept_per_x_and_table(zeros_120):
    # two values of x on one table, back and forth, and a second table of
    # the same limit: every value bit-identical to the per-call formula
    ev = SEvaluator(zeros=zeros_120, prime_table=build_prime_table(3000))
    other = SEvaluator(zeros=zeros_120, prime_table=build_prime_table(3000))
    for e, x, t in ((ev, 100.0, 40.0), (ev, 30.0, 40.0), (ev, 100.0, 57.5),
                    (other, 100.0, 57.5), (ev, 30.0, 63.25)):
        assert s_explicit(t, x, e)[0] == _s_explicit_per_call(t, x, e)
    # a freed table's terms are not read for a new one, even one that may
    # reuse its id: the new table's memo starts empty and holds its own x
    del ev, other
    gc.collect()
    small = SEvaluator(zeros=zeros_120, prime_table=build_prime_table(64))
    assert "prime_terms" not in small.prime_table.memo
    assert s_explicit(57.5, 50.0, small)[0] \
        == _s_explicit_per_call(57.5, 50.0, small)
    assert small.prime_table.memo["prime_terms"][0] == 50.0
    # x beyond the table's limit is refused, not summed over n <= 64 only
    with pytest.raises(DomainError):
        s_explicit(57.5, 100.0, small)


def test_s_explicit_domain(ev_120):
    for x in (3.0, math.nan):
        with pytest.raises(DomainError):
            s_explicit(50.0, x, ev_120)
    with pytest.raises(DomainError):
        s_explicit(119.0, 100.0, ev_120)   # t + 50/log x beyond coverage
    # an array is refused if any of its points is
    for t in ([30.0, 119.0], [30.0, 0.0], [30.0, math.nan]):
        with pytest.raises(DomainError):
            s_explicit(np.array(t), 100.0, ev_120)
    for t in ([30.0, 121.0], [30.0, -1.0], [30.0, math.nan]):
        with pytest.raises(DomainError):
            s_exact(np.array(t), ev_120)


def test_s_exact_below_the_first_zero(ev_120):
    # N(t) = 0 below 14.13, so S is -1 - theta/pi there, bit for bit, at
    # t = 0 too and through theta's switch of forms at t = 10
    ts = np.array([0.0, 0.5, 5.0, 9.999, 10.0, 14.0])
    assert np.array_equal(s_exact(ts, ev_120), -1.0 - theta(ts) / PI)
    for t in ts:
        assert s_exact(float(t), ev_120) == -1.0 - theta(float(t)) / PI


def test_s_explicit_within_budget_below_10(ev_120):
    # the explicit route stays within its own budget on [0.5, 10), where
    # the budget's 1/t terms grow
    ts = np.arange(0.5, 10.0, 0.5)
    exact = s_exact(ts, ev_120)
    for x in (4.0, 20.0, 100.0):
        vals, budgets = s_explicit(ts, x, ev_120)
        assert np.all(np.abs(vals - exact) <= budgets), x


def _windowed_s_explicit(t, x, ev):
    # the explicit formula as it was summed before every ordinate counted:
    # the zeros with |t - gamma| <= 50/log x only, and the bound on the
    # value of the ordinates it leaves out, (1/pi) sum pi^2/(4 v^2) by
    # I(v) <= pi^2/(4 v^2), next to the same bound for those beyond the
    # file: the zero density's integral and the by-parts term of
    # |N - N0| <= B = 0.112 log s + 0.278 log log s + 2.510 (Trudgian),
    # 2 B(a)/d^2 + c (1/(t d) - log(a/d)/t^2), c = d(B)/d(log s) at a
    logx = math.log(x)
    g = ev.zeros.ordinates
    near = np.abs(g - t) <= 50.0 / logx
    value = _s_explicit_per_call(t, x, ev) \
        - float(np.sum(sin_sinh_integral((t - g[~near]) * logx))) / PI
    inside = float(np.sum(1.0 / (g[~near] - t) ** 2))
    a = ev.zeros.t_max
    d = a - t
    b_a = 0.112 * math.log(a) + 0.278 * math.log(math.log(a)) + 2.510
    c = 0.112 + 0.278 / math.log(a)
    beyond = (math.log(a / (2 * PI)) / d + math.log(a / d) / t) / (2 * PI) \
        + 2.0 * b_a / (d * d) + c * (1.0 / (t * d) - math.log(a / d) / t ** 2)
    scale = PI / 4.0 / (logx * logx)
    return value, scale * inside, scale * beyond


def test_s_explicit_differs_from_the_window_within_its_bound(ev_120):
    # the sum over every ordinate moves the old windowed value by less
    # than the old bound on the in-range ordinates the window left out;
    # the budget keeps only the bound for the ordinates beyond the file
    x = 100.0
    logx = math.log(x)
    ts = np.linspace(15.0, ev_120.zeros.t_max - 50.0 / logx, 60)
    vals, budgets = s_explicit(ts, x, ev_120)
    for t, val, budget in zip(ts, vals, budgets):
        old, inside, beyond = _windowed_s_explicit(float(t), x, ev_120)
        assert abs(val - old) < inside
        terms = math.sqrt(x) / (t * t * logx) + 1.0 / (t * logx)
        assert budget == pytest.approx(terms + beyond, rel=1e-13)


def test_zero_tail_bound_covers_the_reference_ordinates(zeros_ref):
    # a file cut at a = 512: the bound for the ordinates beyond it against
    # pi/(4 L^2) sum 1/(gamma - t)^2 over the reference ordinates in
    # (512, 10010]; the density integral alone fell short by up to 0.13 %
    g = zeros_ref.ordinates
    cut = ZeroSet(ordinates=g[g <= 512.0], t_max=512.0, source="imported")
    logx = math.log(100.0)
    t = np.linspace(20.0, 501.0, 2000)
    above = g[g > 512.0]
    total = np.array([np.sum((above - x) ** -2.0) for x in t]) \
        * PI / (4.0 * logx * logx)
    assert np.all(_zero_tail_bound(t, logx, cut) >= total)
    # and it is the integral it states, to the digit: by mpmath, the
    # density f dN0 plus f(a) B(a) + int B |f'|, with B(s) <= c log s + k
    # (the tangent of log log s at a) on s >= a
    a = mpmath.mpf(512)
    c = 0.112 + 0.278 / mpmath.log(a)
    k = 0.112 * mpmath.log(a) + 0.278 * mpmath.log(mpmath.log(a)) + 2.510 \
        - c * mpmath.log(a)
    for x in (20.0, 250.0, 501.0):
        want = mpmath.quad(
            lambda s: mpmath.log(s / (2 * mpmath.pi)) / (2 * mpmath.pi)
            / (s - x) ** 2 + 2 * (c * mpmath.log(s) + k) / (s - x) ** 3,
            [a, 2 * a, mpmath.inf]) + (c * mpmath.log(a) + k) / (a - x) ** 2
        got = _zero_tail_bound(np.array([x]), logx, cut)[0]
        assert got == pytest.approx(float(want * mpmath.pi / 4) / logx ** 2,
                                    rel=1e-13)


def test_s_routes_on_arrays_match_the_scalar_calls(ev_120):
    # an array of t gets the values, and the shape, of one call per point;
    # s_exact's to the bit, and s_explicit's to the bit in calls of at
    # most _DENSE points, to the tree's accuracy in larger ones
    ts = np.array([[20.0, 31.25], [14.134725141734695, 101.5]])
    exact = s_exact(ts, ev_120)
    assert exact.shape == ts.shape
    assert all(exact[i] == s_exact(float(ts[i]), ev_120)
               for i in np.ndindex(ts.shape))
    vals, budgets = s_explicit(ts, 50.0, ev_120)
    assert vals.shape == budgets.shape == ts.shape
    for i in np.ndindex(ts.shape):
        val, budget = s_explicit(float(ts[i]), 50.0, ev_120)
        assert vals[i] == val and budgets[i] == pytest.approx(budget, 1e-15)
    assert s_exact(np.array([]), ev_120).shape == (0,)
    assert s_explicit(np.array([]), 50.0, ev_120)[0].shape == (0,)
    dense = np.linspace(40.0, 44.0, 200)
    one_by_one = np.array([s_explicit(float(t), 50.0, ev_120)[0]
                           for t in dense])
    vals, _ = s_explicit(dense, 50.0, ev_120)
    assert np.max(np.abs(vals - one_by_one)) < 1e-13


def test_second_moment_additive(ev_120):
    m100 = second_moment(100.0, ev_120)
    m50 = second_moment(50.0, ev_120)
    upper = _s_power_integral(2, 50.0, 100.0, ev_120.zeros)
    assert abs(m100 - (m50 + upper)) < 1e-10


def test_second_moment_positive(ev_120):
    for T in (15.0, 40.0, 100.0):
        assert second_moment(T, ev_120) > 0.0


def test_second_moment_grid_stable(ev_120):
    # the gap rule against itself on a grid with every gap split in four
    from szeta.quadrature import gap_rule
    from szeta.s_of_t import _s_between_zeros
    g = ev_120.zeros.ordinates
    base = second_moment(60.0, ev_120)
    edges = np.concatenate(([0.0], g[g < 60.0], [60.0]))
    quarters = edges[:-1, None] + np.diff(edges)[:, None] * np.arange(4) / 4
    fine = np.append(quarters.ravel(), 60.0)
    tight, _ = gap_rule(lambda t: _s_between_zeros(t, ev_120.zeros) ** 2,
                        fine)
    assert abs(base - tight) / base < 1e-9


def test_second_moment_growth_trend(zeros_10k, prime_table_small):
    # desk-scale band around the loglog main term
    ev = SEvaluator(zeros=zeros_10k, prime_table=prime_table_small)
    for T in (1e3, 5e3, 1e4):
        ratio = (second_moment(T, ev) / T) \
            / (math.log(math.log(T)) / (2 * PI ** 2))
        assert 0.4 < ratio < 2.5


def test_mean_value_small(zeros_1010, prime_table_small):
    ev = SEvaluator(zeros=zeros_1010, prime_table=prime_table_small)
    assert abs(s_mean(1000.0, ev)) < 0.05


def test_s_mean_domain(ev_120):
    # second_moment's floor: not a value at T = -5, nor a division by zero
    for T in (-5.0, 0.0, 9.99, math.nan):
        with pytest.raises(DomainError, match="T >= 10"):
            s_mean(T, ev_120)


def test_g_and_h_direct_vs_sum_formulas(zeros_10k, prime_table_small):
    ev = SEvaluator(zeros=zeros_10k, prime_table=prime_table_small)
    res = g_and_h_direct(2000.0, 40.0, ev)
    assert res.g >= 0.0
    assert res.h_sum_formula < 0.0
    assert abs(res.g - res.g_sum_formula) < 0.05 * res.g
    # H is negative and of the sum-formula size at desk scale
    assert res.h < 0.0
    assert abs(res.h - res.h_sum_formula) < 0.25 * abs(res.h_sum_formula)


@pytest.mark.parametrize("T, x, top, g_want, h_want", [
    # G and H as the two-row gap pass gave them, on the reference zeros: H
    # moves with every ordinate, so computed zeros would pin the polish's
    # last bits as well.  H at T = 200 pins rounding of the 15-node rule's
    # theta*D quadrature on [10, 100]: in 30-digit arithmetic its
    # truncation there is 3e-27, and in floats it sits 1.2e-12 off, a few
    # eps times the integral of |theta D| (3.5e-13)
    (200.0, 9.0, "zeros_ref", 7.152930795888007, -17.82362896666087),
    (2000.0, 40.0, "zeros_ref", 115.0147552911603, -269.6603949363169),
])
def test_gap_pass_s_squared_row(request, prime_table_small, T, x, top,
                                g_want, h_want):
    ev = SEvaluator(zeros=request.getfixturevalue(top),
                    prime_table=prime_table_small)
    res = g_and_h_direct(T, x, ev)
    assert res.g == pytest.approx(g_want, rel=1e-14, abs=0.0)
    assert res.h == pytest.approx(h_want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("T, x", [(2500.0, 20.0), (1e4, 90.0)])
def test_g_and_h_against_gap_pass_oracle(zeros_ref, prime_table_small, T, x):
    # the closed forms against the quadrature over the zero gaps that they
    # replaced; T = 1e4 takes the by-parts tail over [100, 1e4]
    ev = SEvaluator(zeros=zeros_ref, prime_table=prime_table_small)
    res = g_and_h_direct(T, x, ev)
    g_want, h_want = gh_gap_pass_oracle(zeros_ref, T, x, prime_table_small)
    assert res.g == pytest.approx(g_want, rel=1e-13, abs=0.0)
    assert res.h == pytest.approx(h_want, rel=1e-13, abs=0.0)


def test_theta_tail_by_parts_against_mpmath():
    # Riemann-Siegel theta from mpmath at 25 digits, at the same float
    # frequencies; what is left is the rounding of the phases l t
    logn = np.log([2.0, 97.0])
    got = _theta_sin_tail(logn, 100.0, 600.0)
    with mpmath.workdps(25):
        pts = mpmath.linspace(100, 600, 126)
        want = [mpmath.quad(lambda u, L=mpmath.mpf(ln):
                            mpmath.siegeltheta(u) * mpmath.sin(L * u),
                            pts, method="gauss-legendre") for ln in logn]
    assert got == pytest.approx([float(w) for w in want], rel=1e-12, abs=0.0)


def test_h_continuous_across_an_ordinate(zeros_ref, prime_table_small):
    # the zero count below T is N(T-), ordinates strictly below T: at T an
    # ordinate, a half-weight count would move H by about c cos(l T)/(2 l)
    ev = SEvaluator(zeros=zeros_ref, prime_table=prime_table_small)
    gamma = float(zeros_ref.ordinates[np.searchsorted(
        zeros_ref.ordinates, 2000.0)])
    at = g_and_h_direct(gamma, 20.0, ev).h
    for T in (gamma - 1e-9, gamma + 1e-9):
        assert abs(g_and_h_direct(T, 20.0, ev).h - at) < 1e-7


def test_g_and_h_requires_regime(ev_120):
    for x in (50.0, math.nan):
        with pytest.raises(DomainError):
            g_and_h_direct(100.0, x, ev_120)


def test_gap_integrals_against_quad_oracle(zeros_220, prime_table_small):
    # the gap rule on every gap, the refined head included, vs scipy quad
    # gap by gap
    ev = SEvaluator(zeros=zeros_220, prime_table=prime_table_small)
    g = zeros_220.ordinates
    T, x = 200.0, 9.0
    for top in (14.0, 60.0, T):     # 14: the head below gamma_1 alone
        assert second_moment(top, ev) == pytest.approx(
            gap_integral_oracle(lambda t, s: s * s, g, 0.0, top), rel=1e-10)
    assert s_mean(T, ev) == pytest.approx(
        gap_integral_oracle(lambda t, s: s, g, 0.0, T) / T, rel=1e-10)

    def dirichlet(t):
        out = 0.0
        for n, p in ((2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)):
            ln = math.log(n)
            out += math.log(p) / math.sqrt(n) * math.sin(t * ln) / ln \
                * f_weight(ln / math.log(x))
        return out

    res = g_and_h_direct(T, x, ev)
    assert res.g == pytest.approx(gap_integral_oracle(
        lambda t, s: dirichlet(t) ** 2, g, 1.0, T) / PI ** 2, rel=1e-10)
    assert res.h == pytest.approx(gap_integral_oracle(
        lambda t, s: s * dirichlet(t), g, 1.0, T) * 2.0 / PI, rel=1e-10)
    assert res.g_err <= 1e-10 * res.g
    assert res.h_err <= 1e-10 * abs(res.h)


def test_g_and_h_take_integer_heights(zeros_1010, prime_table_small):
    # an int T and x give the floats' G and H, field for field
    ev = SEvaluator(zeros=zeros_1010, prime_table=prime_table_small)
    assert g_and_h_direct(500, 9, ev) == g_and_h_direct(500.0, 9.0, ev)


def test_gap_integrals_need_complete_coverage(zeros_220, prime_table_small):
    short = ZeroSet(ordinates=zeros_220.up_to(100.0), t_max=100.0,
                    source="imported", claimed_complete=True)
    unvalidated = replace(zeros_220, claimed_complete=False)
    for zs in (short, unvalidated):
        ev = SEvaluator(zeros=zs, prime_table=prime_table_small)
        with pytest.raises(DomainError):
            second_moment(200.0, ev)
        with pytest.raises(DomainError):
            s_mean(200.0, ev)
        with pytest.raises(DomainError):
            g_and_h_direct(200.0, 9.0, ev)
