import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szeta.errors import DomainError
from szeta.paircorr import lemma6_eval
from szeta.primes import (euler_constant, prime_power_double_sum,
                          prime_sum_terms)
from szeta.theorem import (EQ2_CONSTANT, FModel, MomentReport, conjectural_F,
                           full_report, g_plus_h_closed, lemma8_check,
                           lemma9_check, lemma10_check, lemma_8_9_10_eval,
                           theorem_rhs)

PI = math.pi


def test_model_constant():
    assert EQ2_CONSTANT == pytest.approx(-2 * math.log(2 * PI) - 2,
                                         abs=1e-15)


def test_conjectural_f_spot_values():
    m = FModel(T=math.e ** 10)
    assert conjectural_F(0.0, m) == pytest.approx(8 - 2 * math.log(2 * PI),
                                                  abs=1e-12)
    assert conjectural_F(1.0, m) == 1.0
    assert conjectural_F(2.0, m) == 1.0
    # even extension
    assert conjectural_F(-0.2, m) == conjectural_F(0.2, m)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=100.0, max_value=1e8))
def test_model_boundary_in_unit_interval(T):
    m = FModel(T=T)
    assert 0.0 < m.regime_boundary < 1.0


def test_model_floor_rejects_degenerate_boundary():
    # 1 - 3 log log T / log T < 0 for T below ~93, so the model floor is 100
    with pytest.raises(DomainError):
        FModel(T=90.0)


def test_model_boundary_continuity():
    # main-term jump at the regime boundary vs the dropped O-term scale;
    # meaningful once the boundary clears 1/3 (T = e^20 here), since below
    # that the T^(-2 alpha) term legitimately dominates the dropped terms
    T = math.e ** 20
    m = FModel(T=T)
    b = m.regime_boundary
    assert b > 1 / 3
    jump = abs(conjectural_F(b, m) - b)
    bound = math.log(T) * T ** (2 * b - 2) * 2
    assert jump < bound


def test_theorem_rhs_composition():
    bd = theorem_rhs(1000.0, 1.0)
    ds, _ = prime_power_double_sum(lambda m: 1.0 / m - 1.0 / m ** 2)
    scale = 1000.0 / (2 * PI ** 2)
    assert bd.f_tail_term == pytest.approx(scale, rel=1e-14)
    assert bd.euler_term == pytest.approx(scale * euler_constant(),
                                          rel=1e-14)
    assert bd.prime_sum_term == pytest.approx(-scale * ds, rel=1e-14)
    # breakdown sums to the total bit-for-bit
    assert bd.rhs_theorem == (bd.loglog_term + bd.f_tail_term
                              + bd.euler_term + bd.prime_sum_term)


def test_bracket_forms_bit_equal():
    for T in (100.0, 1000.0, 31623.0):
        bd = theorem_rhs(T, 0.83)
        assert bd.rhs_theorem == bd.rhs_goldston


def test_theorem_rhs_domain():
    with pytest.raises(DomainError):
        theorem_rhs(50.0, 1.0)


def test_g_plus_h_closed_linear_in_T():
    a = g_plus_h_closed(1000.0, 100.0)
    b = g_plus_h_closed(2000.0, 100.0)
    assert b == 2.0 * a


def test_g_plus_h_bracket_decreasing_in_x():
    vals = [g_plus_h_closed(1000.0, x) for x in (16.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]


def test_g_plus_h_closed_matches_prime_sums(prime_table_1e6):
    # cross-module oracle: the closed form vs the exact four-sum bundle;
    # the gap is governed by the dropped O(1/log^4 x) plus the tail of s3
    T, x = 1000.0, 10 ** 4
    bundle = prime_sum_terms(x, prime_table_1e6)
    direct = T / (2 * PI ** 2) * (bundle.s1 - 2 * bundle.s2 - bundle.s3
                                  + bundle.s4)
    closed = g_plus_h_closed(T, x)
    slack = T / (2 * PI ** 2) * (bundle.s4 + 10.0 / math.log(x) ** 4
                                 + bundle.tail_bound_s3)
    assert abs(direct - closed) < slack


def test_lemma8_model_self_consistency_trend():
    gaps = []
    for logT in (8.0, 10.0, 12.0):
        rep = lemma8_check(math.e ** logT, 0.5, f_source="model")
        gaps.append(rep.discrepancy_abs)
    assert gaps[0] > gaps[1] > gaps[2]


def test_lemma9_model_reasonable():
    rep = lemma9_check(math.e ** 10, 0.5, f_source="model")
    assert not rep.assertable and rep.passed
    assert rep.discrepancy_rel < 0.05


def test_conditional_checks_empirical(zeros_1010):
    reps = lemma_8_9_10_eval(zeros_1010, 1000.0, 0.5)
    assert set(reps) == {"lemma8", "lemma9", "lemma10"}
    for rep in reps.values():
        assert rep.passed and not rep.assertable
        assert rep.error_scales
    # golden sanity from the first run: gaps stay within 10x the largest
    # printed error scale
    for rep in reps.values():
        worst = max(rep.error_scales.values())
        assert rep.discrepancy_abs < 10.0 * max(worst, abs(rep.lhs) * 0.5)


def test_lemma10_footnote_mentions_tail_form(zeros_220):
    rep = lemma10_check(200.0, 0.5, zeros_220)
    assert any("from 1" in n for n in rep.notes)


def test_full_report_fields_and_isolation(zeros_220, prime_table_small):
    rep = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    assert isinstance(rep, MomentReport)
    assert rep.beta == pytest.approx(math.log(9) / math.log(200), rel=1e-15)
    rep_model = full_report(200.0, 9.0, zeros_220,
                            prime_table=prime_table_small,
                            f_tail_source="model")
    # switching the F-tail source moves only the F-tail term
    assert rep_model.breakdown.loglog_term == rep.breakdown.loglog_term
    assert rep_model.breakdown.euler_term == rep.breakdown.euler_term
    assert rep_model.breakdown.prime_sum_term == rep.breakdown.prime_sum_term
    assert rep_model.breakdown.f_tail_term != rep.breakdown.f_tail_term
    assert rep_model.lhs_integral == rep.lhs_integral


def test_full_report_r_matches_lemma6(zeros_220, prime_table_small):
    rep = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    dec = lemma6_eval(zeros_220, 200.0, rep.beta, direct_limit=0.0)
    note = next(n for n in rep.notes if n.startswith("squared-formula"))
    assert f"R = {dec.r_total:.12g}," in note


def test_full_report_deterministic(zeros_220, prime_table_small):
    a = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    b = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    assert a.lhs_integral == b.lhs_integral
    assert a.breakdown == b.breakdown
    assert a.notes == b.notes


def test_full_report_regime_guards(zeros_220, prime_table_small):
    with pytest.raises(DomainError):
        full_report(200.0, 20.0, zeros_220, prime_table=prime_table_small)
    with pytest.raises(DomainError):
        full_report(500.0, 9.0, zeros_220, prime_table=prime_table_small)
