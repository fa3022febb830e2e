import cmath
import math

import numpy as np
import pytest

from oracles import gap_integral_oracle, ordered_pair_sum_oracle
from szeta import paircorr, s_of_t
from szeta.errors import DomainError
from szeta.kernels import khat, khat_many, kpp_transform_many
from szeta.paircorr import (PairCorrelationCurve, f_weighted_kernel_integral,
                            lemma5_check, lemma6_check, lemma6_eval,
                            pair_weight, pcf, pcf_curve, tail_integral,
                            weighted_khat_sum)
from szeta.s_of_t import sin_sinh_integral
from szeta.zeros import ZeroSet

PI = math.pi


def ordered_complex_pcf_oracle(alpha, ordinates, T):
    """Direct double loop over ordered pairs with the complex phase."""
    total = 0j
    for gi in ordinates:
        for gj in ordinates:
            d = gi - gj
            total += cmath.exp(1j * alpha * math.log(T) * d) \
                * 4.0 / (4.0 + d * d)
    norm = (T / (2 * PI)) * math.log(T)
    return total / norm


def test_single_synthetic_zero():
    zs = ZeroSet(ordinates=np.array([10.0]), t_max=100.0, source="imported")
    expect = 1.0 / ((100.0 / (2 * PI)) * math.log(100.0))
    for alpha in (0.0, 0.5, 1.0, 3.0):
        assert pcf(alpha, zs, 100.0) == pytest.approx(expect, rel=1e-14)


def test_two_synthetic_zeros_hand_sum():
    zs = ZeroSet(ordinates=np.array([10.0, 10.5]), t_max=100.0,
                 source="imported")
    oracle = ordered_complex_pcf_oracle(1.0, [10.0, 10.5], 100.0)
    assert abs(oracle.imag) < 1e-12
    assert pcf(1.0, zs, 100.0) == pytest.approx(oracle.real, rel=1e-13)


def test_pcf_symmetric_in_alpha(zeros_220):
    assert pcf(-0.7, zeros_220, 200.0) == pytest.approx(
        pcf(0.7, zeros_220, 200.0), abs=1e-12)


def test_pcf_matches_ordered_oracle_on_real_zeros(zeros_220):
    g = zeros_220.ordinates[:25]
    zs = ZeroSet(ordinates=g, t_max=float(g[-1]), source="imported")
    T = float(g[-1])
    oracle = ordered_complex_pcf_oracle(0.8, list(map(float, g)), T)
    assert abs(oracle.imag) < 1e-9
    assert pcf(0.8, zs, T) == pytest.approx(oracle.real, rel=1e-12)


def test_pcf_requires_coverage(zeros_220):
    with pytest.raises(DomainError):
        pcf(1.0, zeros_220, 300.0)
    with pytest.raises(DomainError):
        pcf(1.0, zeros_220, 19.0)


def test_curve_matches_pointwise(zeros_220):
    curve = pcf_curve(zeros_220, 200.0, 2.0, 0.25)
    for i, a in enumerate(curve.alpha_grid):
        assert curve.values[i] == pytest.approx(
            pcf(float(a), zeros_220, 200.0), abs=1e-10)
    assert curve.zero_count == len(zeros_220.up_to(200.0))


def test_curve_nonnegative_and_golden_band(zeros_1010):
    curve = pcf_curve(zeros_1010, 1000.0, 4.0, 0.02)
    assert np.min(curve.values) > -1e-9
    # golden value from the first run: F(1) ~ 0.599 at T=1e3, consistent
    # with the conjectural 1 + O(1/log T) (1/log T ~ 0.145 here)
    f1 = pcf(1.0, zeros_1010, 1000.0)
    assert f1 == pytest.approx(0.5986, abs=0.05)


def test_tail_integral_flat_curve_exact():
    grid = np.linspace(0.0, 4.0, 161)
    flat = PairCorrelationCurve(T=100.0, alpha_grid=grid,
                                values=np.ones_like(grid), zero_count=5)
    assert tail_integral(flat, 2, 4.0) == pytest.approx(1.0, abs=1e-12)
    assert tail_integral(flat, 4, 4.0) == pytest.approx(1 / 3, abs=1e-12)


def test_tail_integral_validation():
    grid = np.linspace(0.0, 2.0, 21)
    c = PairCorrelationCurve(T=100.0, alpha_grid=grid,
                             values=np.ones_like(grid), zero_count=5)
    with pytest.raises(DomainError):
        tail_integral(c, 3, 2.0)
    with pytest.raises(DomainError):
        tail_integral(c, 2, 3.0)
    with pytest.raises(DomainError):
        tail_integral(c, 2, 2.0, "extrapolate")


def test_tail_integral_grid_independence(zeros_1010):
    a = tail_integral(pcf_curve(zeros_1010, 1000.0, 4.0, 0.02), 2, 4.0)
    b = tail_integral(pcf_curve(zeros_1010, 1000.0, 4.0, 0.01), 2, 4.0)
    assert abs(a - b) / abs(b) < 1e-3


def test_goldston_window(zeros_1010):
    curve = pcf_curve(zeros_1010, 1000.0, 4.0, 0.02)
    for model in ("constant_one", "last_value"):
        val = tail_integral(curve, 2, 4.0, model)
        assert 2 / 3 - 0.1 < val < 2 + 0.1


def test_weighted_sum_partition(zeros_220):
    x = math.e ** 5
    sn = weighted_khat_sum(zeros_220, x, "none", T=200.0)
    sw = weighted_khat_sum(zeros_220, x, "w", T=200.0)
    sc = weighted_khat_sum(zeros_220, x, "complement", T=200.0)
    assert abs(sn - (sw + sc)) / abs(sn) < 1e-8


def test_weighted_sum_single_zero():
    zs = ZeroSet(ordinates=np.array([20.0]), t_max=50.0, source="imported")
    x = 16.0
    assert weighted_khat_sum(zs, x, "none") == pytest.approx(
        khat(0.0, "direct"), rel=1e-9)
    assert weighted_khat_sum(zs, x, "complement") == 0.0


def test_weighted_sum_validation(zeros_220):
    with pytest.raises(DomainError):
        weighted_khat_sum(zeros_220, 2.0, "none")
    with pytest.raises(DomainError):
        weighted_khat_sum(zeros_220, 16.0, "sometimes")


def test_weighted_sum_against_bruteforce(zeros_220):
    # brute-force double loop with adaptive-quadrature khat per pair
    g = zeros_220.ordinates[:100]
    zs = ZeroSet(ordinates=g, t_max=float(g[-1]) + 1.0, source="imported")
    x = math.e ** 5
    logx = 5.0
    oracle = 0.0
    for i in range(len(g)):
        for j in range(len(g)):
            d = float(g[i] - g[j])
            w = 4.0 / (4.0 + d * d)
            oracle += khat(abs(d) * logx, "direct") * w
    ours = weighted_khat_sum(zs, x, "w")
    assert ours == pytest.approx(oracle, rel=1e-9)


def test_lemma5_real_and_synthetic(zeros_220):
    rep = lemma5_check(zeros_220, 200.0, 0.5)
    assert rep.passed and rep.discrepancy_rel < 1e-4
    zsyn = ZeroSet(ordinates=np.arange(15.0, 41.0), t_max=200.0,
                   source="imported")
    rep2 = lemma5_check(zsyn, 200.0, 0.5)
    assert rep2.passed and rep2.discrepancy_rel < 1e-4


def test_lemma5_small_beta_stress(zeros_220):
    zsyn = ZeroSet(ordinates=np.arange(15.0, 41.0), t_max=200.0,
                   source="imported")
    rep = lemma5_check(zsyn, 200.0, 0.05)
    # reported, not asserted: stays below 1e-2 even in the hard regime
    assert rep.discrepancy_rel < 1e-2


def test_lemma6_regrouping(zeros_220):
    dec = lemma6_eval(zeros_220, 100.0, 0.4)
    term_sum = dec.term_main + dec.term_F_beta - dec.term_k2_integral
    assert abs(dec.r_total - term_sum) / abs(dec.r_total) < 1e-6
    assert dec.x == pytest.approx(100.0 ** 0.4, rel=1e-15)
    # direct time integral exists at small T and lands near the pair sum
    assert dec.r_total_direct is not None
    assert abs(dec.r_total_direct - term_sum) <= 50 * math.log(100.0) ** 3


def test_lemma6_direct_against_quad_oracle(zeros_120):
    # the fixed gap rule against scipy quad gap by gap, on the same squared
    # zero sum (every ordinate of the set, sinh integral in closed form)
    T, beta = 60.0, 0.4
    dec = lemma6_eval(zeros_120, T, beta)
    g = zeros_120.ordinates
    logx = beta * math.log(T)
    oracle = gap_integral_oracle(
        lambda t, s: (np.sum(sin_sinh_integral((t - g) * logx)) / PI) ** 2,
        g, 1.0, T)
    assert dec.r_total_direct == pytest.approx(oracle, rel=1e-9)
    assert dec.r_direct_err <= 1e-10 * dec.r_total_direct


def _assert_zero_sum_matches_dense(t, g, logx):
    # the explicit formula's zero sum (in blocks of more than _CHEB points:
    # near band by the closed form, the rest interpolated, with shared
    # phases) against every ordinate through sin_sinh_integral at every
    # point
    got = s_of_t._zero_sum(np.asarray(t, dtype=float), g, logx)
    want = sin_sinh_integral(np.subtract.outer(t, g) * logx).sum(axis=1)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _blocks(t):
    # the zero sum's blocks: from the lowest point left, all points within
    # _SPAN of it
    ts, out = np.sort(t), []
    while len(ts):
        j = int(np.searchsorted(ts, ts[0] + s_of_t._SPAN, "right"))
        out.append(ts[:j])
        ts = ts[j:]
    return out


def _in_wide_blocks(special):
    # each special point among 2 _CHEB + 1 others within 1 of it, so that
    # its block is interpolated (asserted)
    t = np.concatenate([special] + [np.linspace(p - 1.0, p + 1.0,
                                                2 * s_of_t._CHEB + 1)
                                    for p in special])
    for block in _blocks(t):
        if np.isin(special, block).any():
            assert len(block) > s_of_t._CHEB
    return t


def test_zero_sum_split_blocks_all_near_or_all_far():
    logx = math.log(100.0)
    g = np.array([20.0, 21.5, 24.0, 27.25])
    # one block with every ordinate within the near reach: nothing is
    # interpolated
    t = np.linspace(22.0, 23.0, 2 * s_of_t._CHEB)
    assert np.all((g > t[0] - s_of_t._REACH) & (g < t[-1] + s_of_t._REACH))
    _assert_zero_sum_matches_dense(t, g, logx)
    # two blocks: the first sits in a cluster of ordinates, with points
    # 0.1 from one (so the sums reach about 1, and 1e-15 of that lies
    # above the rounding of the closed form's terms); the second has no
    # ordinate within the near reach (no band), and takes every ordinate
    # from its interpolant, two by the closed form and five by the series
    g = np.array([10.0, 14.0, 18.0, 50.0, 75.0, 120.0, 131.0])
    near = _in_wide_blocks(np.array([12.0, 13.9, 14.1, 16.0]))
    wide = np.linspace(60.0, 64.0, 2 * s_of_t._CHEB)
    far = np.abs(np.subtract.outer(wide, g)).min(axis=0)
    assert np.all(far > s_of_t._REACH)
    assert np.sum(far * logx < 60.0) == 2 and np.sum(far * logx > 60.0) == 5
    _assert_zero_sum_matches_dense(np.concatenate((near, wide)), g, logx)


def test_zero_sum_split_at_the_switch_and_at_ordinates(zeros_220):
    g = zeros_220.ordinates
    logx = 0.4 * math.log(100.0)
    reach = s_of_t._SINH_SWITCH / logx
    # points exactly one reach from an ordinate on either side, and points
    # equal to ordinates (v = 0, the midpoint value 0), in blocks that
    # interpolate
    j = 40
    t = np.array([g[j] - reach, g[j] + reach, g[j], g[j + 1],
                  0.5 * (g[j] + g[j + 1])])
    _assert_zero_sum_matches_dense(_in_wide_blocks(t), g, logx)
    # one wide block whose lowest and highest points sit one reach from the
    # last ordinates of the closed form's side, with the next ordinates
    # just beyond, on the series' side, and whose near band ends exactly at
    # two ordinates
    logx = math.log(100.0)
    reach = s_of_t._SINH_SWITCH / logx
    lo, hi = 50.0, 54.0
    t = np.linspace(lo, hi, 2 * s_of_t._CHEB)
    assert len(_blocks(t)) == 1
    g = np.array([lo - reach - 1e-7, lo - reach, lo - s_of_t._REACH, lo - 1.0,
                  lo + 2.0, hi + s_of_t._REACH, hi + reach,
                  hi + reach + 1e-7])
    _assert_zero_sum_matches_dense(t, g, logx)


def test_zero_sum_split_with_the_end_ordinates_in_the_band(zeros_220):
    g = zeros_220.ordinates
    logx = math.log(20.0)
    rng = np.random.default_rng(5)
    # blocks whose band takes in the first ordinate, the last one, and one
    # point set spread so wide that several blocks cover the whole set;
    # then points sparser than one per block, blocks of exactly as many
    # points as Chebyshev points (summed at their points) and of one more,
    # and a dense point set in random order
    for t in (np.linspace(g[0] - 2.0, g[0] + 3.0, 40),
              np.linspace(g[-1] - 3.0, g[-1] + 2.0, 40),
              np.linspace(1.0, g[-1] + 5.0, 700),
              np.linspace(2.0, 215.0, 30),
              np.linspace(100.0, 104.0, s_of_t._CHEB),
              np.linspace(100.0, 104.0, s_of_t._CHEB + 1),
              rng.permutation(np.linspace(40.0, 90.0, 800))):
        _assert_zero_sum_matches_dense(t, g, logx)


def test_zero_sum_split_keeps_digits_near_t_1e5():
    # 3000 ordinates at the density near t = 99000: phases measured from 0
    # (sin(t L) cos(gamma L) - cos(t L) sin(gamma L)) put about 1.7e-14
    # relative into the sum, phases from each block's lowest point 5e-16
    rng = np.random.default_rng(7)
    g = np.sort(99000.0 + rng.uniform(-975.0, 975.0, 3000))
    logx = 0.5 * math.log(99000.0)
    t = np.sort(99000.0 + rng.uniform(-40.0, 40.0, 1000))
    assert all(len(b) > s_of_t._CHEB for b in _blocks(t)[:-1])
    _assert_zero_sum_matches_dense(t, g, logx)


def test_zero_sum_split_with_clustered_ordinates():
    # 3000 of 4500 ordinates within 3 of each other: blocks inside the
    # cluster take it all in their near band, blocks beside it interpolate
    # it, by the closed form within the switch and by the series beyond
    rng = np.random.default_rng(11)
    g = np.sort(np.concatenate((rng.uniform(200.0, 203.0, 3000),
                                rng.uniform(10.0, 1000.0, 1500))))
    logx = math.log(100.0)
    t = np.linspace(180.0, 225.0, 400)
    _assert_zero_sum_matches_dense(t, g, logx)


def test_lemma6_check_reports_the_regrouping(zeros_220):
    dec = lemma6_eval(zeros_220, 100.0, 0.4)
    rep = lemma6_check(zeros_220, 100.0, 0.4)
    assert rep.lhs == dec.r_total
    assert rep.rhs == dec.term_main + dec.term_F_beta - dec.term_k2_integral
    assert rep.assertable and rep.passed and rep.tolerance == 1e-6
    assert 0.0 < rep.discrepancy_rel < 1e-6
    assert rep.detail["r_total_direct"] == dec.r_total_direct
    assert not lemma6_check(zeros_220, 100.0, 0.4, tol=0.0).passed


def test_lemma5_and_lemma6_one_engine_call_each(zeros_220, monkeypatch):
    calls = []
    real = paircorr._pair_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(paircorr, "_pair_sum", counted)
    lemma5_check(zeros_220, 200.0, 0.5)
    assert len(calls) == 1
    lemma6_eval(zeros_220, 200.0, 0.4, direct_limit=0.0)
    assert len(calls) == 2


def test_lemma6_skips_direct_at_large_T(zeros_220):
    dec = lemma6_eval(zeros_220, 200.0, 0.4, direct_limit=150.0)
    assert dec.r_total_direct is None


def test_lemma6_single_zero_f_beta_term():
    zs = ZeroSet(ordinates=np.array([30.0]), t_max=120.0, source="imported")
    T, beta = 120.0, 0.5
    dec = lemma6_eval(zs, T, beta, direct_limit=0.0)
    norm = (T / (2 * PI)) * math.log(T)
    expect = T / (16 * math.log(T) ** 2) * (1.0 / norm) / beta ** 3
    assert dec.term_F_beta == pytest.approx(expect, rel=1e-12)


def _pair_engine_outputs(zs, T, beta):
    """lemma5 sums, lemma6 terms and a pcf curve, all through the engine."""
    rep = lemma5_check(zs, T, beta)
    dec = lemma6_eval(zs, T, beta, direct_limit=0.0)
    curve = pcf_curve(zs, T, 2.0, 0.25)
    return ([rep.lhs, rep.detail["F_beta"], rep.detail["kpp_integral"],
             dec.r_total, dec.term_main, dec.term_F_beta,
             dec.term_k2_integral], curve)


def test_pair_engine_against_ordered_oracle(zeros_220, monkeypatch):
    head = zeros_220.ordinates[:60]
    real = ZeroSet(ordinates=head, t_max=float(head[-1]), source="imported")
    zsyn = ZeroSet(ordinates=np.arange(15.0, 41.0), t_max=200.0,
                   source="imported")
    beta = 0.45
    cases = [(real, float(head[-1])), (zsyn, 200.0)]
    outputs = [_pair_engine_outputs(zs, T, beta) for zs, T in cases]
    for (zs, T), (sums, curve) in zip(cases, outputs):
        g = zs.up_to(T)
        logT = math.log(T)
        logx = beta * logT
        norm = (T / (2 * PI)) * logT

        def oracle(kernel):
            return ordered_pair_sum_oracle(g, kernel)

        w = pair_weight
        f_beta = oracle(lambda d: np.cos(logx * d) * w(d)) / norm
        kh_w = oracle(lambda d: khat_many(d * logx) * w(d)) \
            * 2 * PI * beta / norm
        kpp_w = oracle(lambda d: kpp_transform_many(d * logx) * w(d)) \
            * 2 * PI * beta / norm
        lhs5 = oracle(lambda d: khat_many(d * math.log(T ** beta))
                      * d * d / (4 + d * d))
        expect = [
            lhs5, f_beta, kpp_w,
            oracle(lambda d: khat_many(d * logx)) / (PI ** 2 * logx),
            T / (2 * PI ** 2 * beta) ** 2 * kh_w,
            T / (16 * logT ** 2) * f_beta / beta ** 3,
            T / (64 * PI ** 6 * beta ** 4 * logT ** 2) * kpp_w,
        ]
        assert sums == pytest.approx(expect, rel=1e-12)
        for k in (1, 4, 8):
            a = float(curve.alpha_grid[k])
            want = oracle(lambda d: np.cos(a * logT * d) * w(d)) / norm
            assert curve.values[k] == pytest.approx(want, rel=1e-12)
    # with the default leaf size 60 ordinates make a tree of at most one
    # level, all near field; two ordinates per leaf force a deep tree
    # (the khat sums stay bounded by the leaf width 50 / log x)
    assert paircorr._Tree(head, 0.0).levels <= 1
    monkeypatch.setattr(paircorr, "_LEAF", 2)
    assert paircorr._Tree(head, 0.0).levels == 4
    for (zs, T), (sums, curve) in zip(cases, outputs):
        deep_sums, deep_curve = _pair_engine_outputs(zs, T, beta)
        assert deep_sums == pytest.approx(sums, rel=1e-12)
        assert deep_curve.values == pytest.approx(curve.values, rel=1e-12)


def _oracle_rows(logT, logx, alphas):
    """Per-pair kernels of every pair sum, stacked: khat, khat w, khat
    d^2/(4+d^2), k'' w, cos(log x d) w, then cos(alpha log T d) w per
    alpha."""
    def kernel(d):
        kh = khat_many(d * logx)
        w = pair_weight(d)
        return np.stack([kh, kh * w, kh * d * d / (4.0 + d * d),
                         kpp_transform_many(d * logx) * w,
                         np.cos(logx * d) * w]
                        + [np.cos(a * logT * d) * w for a in alphas])
    return kernel


def _all_pair_sums(zs, T, beta, alphas):
    """The six pair-sum functions on one set, as the _oracle_rows sums."""
    logT = math.log(T)
    x = T ** beta
    norm = (T / (2 * PI)) * logT
    kscale = 2 * PI * beta / norm
    rep = lemma5_check(zs, T, beta)
    dec = lemma6_eval(zs, T, beta, direct_limit=0.0)
    curve = pcf_curve(zs, T, max(alphas), 0.25)
    on_grid = [curve.values[int(round(a / 0.25))] for a in alphas]
    return {
        "khat": [weighted_khat_sum(zs, x, "none", T=T),
                 dec.r_total * PI ** 2 * beta * logT],
        "khat_w": [weighted_khat_sum(zs, x, "w", T=T),
                   f_weighted_kernel_integral(zs, T, beta) / kscale,
                   dec.term_main * (2 * PI ** 2 * beta) ** 2 / T / kscale],
        "khat_c": [weighted_khat_sum(zs, x, "complement", T=T), rep.lhs],
        "kpp_w": [f_weighted_kernel_integral(zs, T, beta, deriv=True)
                  / kscale, rep.detail["kpp_integral"] / kscale,
                  dec.term_k2_integral * 64 * PI ** 6 * beta ** 4
                  * logT ** 2 / T / kscale],
        "f_beta": [pcf(beta, zs, T) * norm, rep.detail["F_beta"] * norm,
                   dec.term_F_beta * 16 * logT ** 2 * beta ** 3 / T * norm],
        "curve": [np.array(on_grid) * norm,
                  np.array([pcf(a, zs, T) for a in alphas]) * norm],
    }


def _assert_matches_oracle(zs, T, beta, alphas=(0.25, 1.0, 2.5, 4.0)):
    g = zs.up_to(T)
    logT = math.log(T)
    sums = ordered_pair_sum_oracle(g, _oracle_rows(logT, beta * logT,
                                                   alphas))
    want = {"khat": sums[0], "khat_w": sums[1], "khat_c": sums[2],
            "kpp_w": sums[3], "f_beta": sums[4], "curve": sums[5:]}
    for key, values in _all_pair_sums(zs, T, beta, alphas).items():
        for v in values:
            assert np.all(np.abs(np.asarray(v) - want[key])
                          <= 1e-10 * np.abs(want[key])), (key, v, want[key])


def test_pair_functions_against_ordered_oracle(zeros_2510):
    # N ~ 2000 reference-like ordinates: a five-level tree, most pairs far
    T, beta = 2500.0, math.log(20.0) / math.log(2500.0)
    g = zeros_2510.up_to(T)
    assert len(g) > 1900
    assert paircorr._Tree(g, 0.0).levels >= 3
    assert paircorr._Tree(g, 50.0 / (beta * math.log(T))).levels >= 3
    _assert_matches_oracle(zeros_2510, T, beta)
    # x = 4: the widest near field the khat sums allow, 50 / log 4 ~ 36
    beta4 = math.log(4.0 + 1e-9) / math.log(T)
    assert paircorr._Tree(g, 50.0 / math.log(4.0)).levels >= 3
    _assert_matches_oracle(zeros_2510, T, beta4, alphas=(1.0,))
    lemma = lemma5_check(zeros_2510, T, beta)
    assert lemma.passed and lemma.discrepancy_rel < 1e-4


def test_pair_functions_on_synthetic_sets(monkeypatch):
    def zset(g):
        return ZeroSet(ordinates=np.asarray(g, dtype=float), t_max=200.0,
                       source="imported")

    # N = 1 and N = 2: the diagonal, then one pair
    for g in ([30.0], [30.0, 30.7]):
        _assert_matches_oracle(zset(g), 200.0, 0.45)
    # all ordinates in one leaf: at x = 4 the leaves are >= 36 wide
    one_leaf = np.arange(15.0, 41.0)
    assert paircorr._Tree(one_leaf, 50.0 / math.log(4.0)).levels == 0
    _assert_matches_oracle(zset(one_leaf), 200.0,
                           math.log(4.0 + 1e-9) / math.log(200.0))
    # differences straddling y = 50: pairs at 50 / log x (1 -+ 1e-9)
    beta = 0.5
    r = 50.0 / (beta * math.log(200.0))
    base = 20.0 + 0.37 * np.arange(250)
    straddle = np.sort(np.concatenate(
        [base, base + r * (1 - 1e-9), base + r * (1 + 1e-9)]))
    assert paircorr._Tree(straddle, r).levels >= 2
    _assert_matches_oracle(zset(straddle), 200.0, beta)
    # gaps wider than a leaf leave empty leaves
    monkeypatch.setattr(paircorr, "_LEAF", 4)
    gappy = np.concatenate([np.arange(20.0, 60.0, 0.25),
                            np.arange(60.0, 160.0, 9.5),
                            np.arange(160.0, 199.0, 0.25)])
    tree = paircorr._Tree(gappy, 0.0)
    h = (gappy[-1] - gappy[0]) / 2 ** tree.levels
    leaf = np.minimum(((gappy - gappy[0]) / h).astype(int),
                      2 ** tree.levels - 1)
    assert tree.levels >= 5
    assert np.any(np.bincount(leaf, minlength=2 ** tree.levels) == 0)
    _assert_matches_oracle(zset(gappy), 200.0, 0.45)


def _assert_curve_matches_oracle(g, T):
    """pcf_curve on the full 161-point grid against the ordered-pair sum
    of w(d) cos(alpha log T d), 1e-12 relative at every grid point."""
    zs = ZeroSet(ordinates=np.asarray(g, dtype=float), t_max=T,
                 source="imported")
    curve = pcf_curve(zs, T, 4.0, 0.025)
    assert len(curve.alpha_grid) == 161
    logT = math.log(T)
    omegas = curve.alpha_grid * logT
    want = ordered_pair_sum_oracle(
        zs.up_to(T), lambda d: np.cos(np.outer(omegas, d)) * pair_weight(d))
    got = curve.values * (T / (2 * PI)) * logT
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_curve_against_ordered_oracle_at_the_top_of_the_range():
    # ordinates near 1e5 with alpha up to 4: near-field charges with phases
    # taken from g itself (up to 4.6e6), or a factor exp(i omega h) between
    # leaf edges that are h apart only up to rounding, put 1e-11 to 3e-11
    # relative error into these sums; 160 steps of the column recurrence
    # must keep the phases too
    rng = np.random.default_rng(11)
    g = 99000.0 + np.arange(300) + rng.uniform(-0.4, 0.4, 300)
    assert paircorr._Tree(g, 0.0).levels >= 2
    _assert_curve_matches_oracle(g, 99300.0)


def test_curve_against_ordered_oracle_with_empty_leaves():
    # an empty stretch wider than two leaves: one leaf holds no ordinate,
    # and the partly filled leaves are padded to the fullest
    g = np.concatenate([20.0 + 0.08 * np.arange(120),
                        39.42 + 0.08 * np.arange(180)])
    tree = paircorr._Tree(g, 0.0)
    assert tree.levels >= 2
    assert not np.all(tree.filled.any(axis=1))
    assert len(set(tree.filled.sum(axis=1))) > 2
    _assert_curve_matches_oracle(g, 60.0)


def test_curve_against_ordered_oracle_with_a_cluster():
    # 200 ordinates within 0.2 fill one leaf: the near field takes that
    # leaf's weight matrix in blocks of rows, and the sparse leaves at
    # their own width rather than padded to the cluster's
    g = np.concatenate([20.0 + 0.001 * np.arange(200),
                        21.0 + 2.5 * np.arange(100)])
    tree = paircorr._Tree(g, 0.0)
    width = tree.filled.sum(axis=1)
    assert width.max() > 200 and np.median(width) < 20
    _assert_curve_matches_oracle(g, 270.0)


def test_curve_of_a_single_ordinate():
    _assert_curve_matches_oracle([30.0], 100.0)


def test_pair_engine_far_field_on_a_flat_kernel():
    # kernel 1: the ordered pair sum of cos(omega d) is |sum e^(i omega g)|^2,
    # and every pair between non-adjacent leaves goes through the far field
    rng = np.random.default_rng(7)
    g = np.sort(np.concatenate([rng.uniform(0.0, 50.0, 300),
                                rng.uniform(1000.0, 1100.0, 300)]))
    tree = paircorr._Tree(g, 0.0)
    assert tree.levels >= 3
    for omega in (0.0, 0.3, 2.9):
        got = paircorr._pair_sum(g, lambda d: np.sum(np.cos(omega * d)),
                                 [(np.ones_like, omega)])
        want = abs(np.sum(np.exp(1j * omega * (g - g[0])))) ** 2
        assert got == pytest.approx(want, rel=1e-11, abs=1e-9 * len(g))


def test_pair_weight_even():
    u = np.linspace(-5, 5, 11)
    assert np.array_equal(pair_weight(u), pair_weight(-u))
