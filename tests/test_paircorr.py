import cmath
import math

import numpy as np
import pytest

from oracles import ordered_pair_sum_oracle
from szeta import paircorr
from szeta.errors import DomainError
from szeta.kernels import khat, khat_many, kpp_transform_many
from szeta.paircorr import (PairCorrelationCurve, lemma5_check, lemma6_eval,
                            pair_weight, pcf, pcf_curve, tail_integral,
                            weighted_khat_sum)
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
    # 60 ordinates fit in one chunk by default; force many chunks
    monkeypatch.setattr(paircorr, "_CHUNK", 7)
    for (zs, T), (sums, curve) in zip(cases, outputs):
        small_sums, small_curve = _pair_engine_outputs(zs, T, beta)
        assert small_sums == pytest.approx(sums, rel=1e-12)
        assert small_curve.values == pytest.approx(curve.values, rel=1e-12)


def test_pair_weight_even():
    u = np.linspace(-5, 5, 11)
    assert np.array_equal(pair_weight(u), pair_weight(-u))
