import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szeta import paircorr, theorem
from szeta.errors import DomainError
from szeta.paircorr import (f_weighted_kernel_integral, lemma5_check,
                            lemma6_check, lemma6_eval, weighted_khat_sum)
from szeta.primes import prime_power_double_sum
from szeta.theorem import (EQ2_CONSTANT, FModel, MomentReport, conjectural_F,
                           full_report, lemma_8_9_10_eval, theorem_rhs)

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
    # 1 - 3 log log T / log T < 0 for T below ~93, so the model floor is
    # 100; an infinite T leaves the boundary undefined
    for T in (90.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            FModel(T=T)


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
    # Euler's constant correctly rounded (the harmonic-sum route was 1 ulp low)
    assert bd.euler_term == scale * float(mpmath.euler)
    assert bd.prime_sum_term == pytest.approx(-scale * ds, rel=1e-14)
    # breakdown sums to the total bit-for-bit
    assert bd.rhs_theorem == (bd.loglog_term + bd.f_tail_term
                              + bd.euler_term + bd.prime_sum_term)


def test_bracket_forms_bit_equal():
    for T in (100.0, 1000.0, 31623.0):
        bd = theorem_rhs(T, 0.83)
        assert bd.rhs_theorem == bd.rhs_goldston


def test_theorem_rhs_domain():
    for T in (50.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            theorem_rhs(T, 1.0)


def test_lemma8_model_self_consistency_trend():
    gaps = []
    for logT in (8.0, 10.0, 12.0):
        rep = lemma_8_9_10_eval(None, math.e ** logT, 0.5, "model")["lemma8"]
        gaps.append(rep.discrepancy_abs)
    assert gaps[0] > gaps[1] > gaps[2]


def test_lemma9_model_reasonable():
    rep = lemma_8_9_10_eval(None, math.e ** 10, 0.5, "model")["lemma9"]
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
    rep = lemma_8_9_10_eval(zeros_220, 200.0, 0.5)["lemma10"]
    assert any("from 1" in n for n in rep.notes)


@pytest.mark.parametrize("T, beta, rel", [(200.0, 0.5, 0.0),
                                          (100.0, 0.4, 1e-13)])
def test_conditional_lhs_against_single_sum_routes(zeros_220, T, beta, rel):
    # the one engine call's lhs against the one-sum public routes: bit for
    # bit where log(T^beta) == beta log T, as at (200, 0.5); at (100, 0.4)
    # weighted_khat_sum's log x differs from beta log T in the last bit
    reps = lemma_8_9_10_eval(zeros_220, T, beta)
    x = T ** beta
    want = {
        "lemma8": f_weighted_kernel_integral(zeros_220, T, beta),
        "lemma9": f_weighted_kernel_integral(zeros_220, T, beta, deriv=True),
        "lemma10": weighted_khat_sum(zeros_220, x, T=T)
        / (PI ** 2 * math.log(x)),
    }
    assert (math.log(x) == beta * math.log(T)) == (rel == 0.0)
    for name, value in want.items():
        assert reps[name].lhs == pytest.approx(value, rel=rel, abs=0.0)


def test_conditional_checks_one_engine_call(zeros_220, monkeypatch):
    # empirical F: one pair-sum engine call for all three lhs (the curve
    # for the F-tails has its own engine); model F: none.  A fresh set:
    # the session's may hold pair sums from earlier tests
    zs = replace(zeros_220)
    calls = []
    real = paircorr._pair_sum

    def counted(g, L, terms):
        calls.append(len(terms))
        return real(g, L, terms)

    monkeypatch.setattr(paircorr, "_pair_sum", counted)
    reps = lemma_8_9_10_eval(zs, 200.0, 0.5)
    assert calls == [5] and set(reps) == {"lemma8", "lemma9", "lemma10"}
    calls.clear()
    reps = lemma_8_9_10_eval(None, 1000.0, 0.4, "model")
    assert calls == [] and set(reps) == {"lemma8", "lemma9"}


def test_lemmas_at_one_height_share_one_engine_call(zeros_220, monkeypatch):
    # Lemmas 5, 6 and 8-10 at one (zero set, T, beta) make one pair-engine
    # call between them, and read the bits a fresh set gives; another beta
    # makes a new call
    T, beta = 200.0, 0.5
    zs = replace(zeros_220)
    calls = []
    real = paircorr._pair_sum

    def counted(g, L, terms):
        calls.append(len(terms))
        return real(g, L, terms)

    monkeypatch.setattr(paircorr, "_pair_sum", counted)
    shared = [lemma5_check(zs, T, beta), lemma6_eval(zs, T, beta),
              lemma6_check(zs, T, beta), lemma_8_9_10_eval(zs, T, beta)]
    assert calls == [5]
    fresh = [lemma5_check(replace(zeros_220), T, beta),
             lemma6_eval(replace(zeros_220), T, beta),
             lemma6_check(replace(zeros_220), T, beta),
             lemma_8_9_10_eval(replace(zeros_220), T, beta)]
    assert calls == [5] * 5
    assert repr(shared) == repr(fresh)
    lemma5_check(zs, T, 0.4)
    assert calls == [5] * 6


def test_conditional_checks_domain(zeros_220):
    # empirical F without zeros, and an unknown F source, are domain errors
    # raised before any work
    with pytest.raises(DomainError, match="zero set"):
        lemma_8_9_10_eval(None, 1000.0, 0.5)
    for zs in (None, zeros_220):
        with pytest.raises(DomainError, match="f_source"):
            lemma_8_9_10_eval(zs, 200.0, 0.5, "sometimes")
    with pytest.raises(DomainError):
        lemma_8_9_10_eval(zeros_220, 200.0, 1.0)
    # x = T^beta within 5% of 1 leaves log x meaningless, whichever F;
    # so does T <= 1, where T^beta is complex or below 1
    for zs, source in ((zeros_220, "empirical"), (None, "model")):
        for beta in (1e-300, 1e-100):
            with pytest.raises(DomainError, match="T\\^beta"):
                lemma_8_9_10_eval(zs, 200.0, beta, source)
    for T in (-5.0, 0.0, 1.0):
        with pytest.raises(DomainError, match="T\\^beta"):
            lemma_8_9_10_eval(zeros_220, T, 0.5)


def test_model_tails_are_exact():
    # F == 1 beyond alpha = 1: int_1^inf alpha^-2 = 1 and alpha^-4 = 1/3
    model = theorem._f_source("model", None, 1000.0)
    assert isinstance(model, FModel)
    assert model.tail(2) == 1.0 and model.tail(4) == 1.0 / 3.0


def test_report_and_lemmas_read_one_curve(zeros_220, prime_table_small,
                                          monkeypatch):
    # the report's F-tail is the measured source's tail(2), bit for bit;
    # a source, the empirical full_report and lemma_8_9_10_eval each build
    # the fixed curve once; the model report builds it only when its curve
    # (the one --pcf-out writes) is read, and then once
    calls = []
    real = theorem.pcf_curve

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(theorem, "pcf_curve", counted)
    measured = theorem._f_source("empirical", zeros_220, 200.0)
    want = measured.tail(2)
    measured.tail(4)
    assert calls == [(4.0, 0.025)]
    reps = {}
    for source in ("empirical", "model"):
        calls.clear()
        reps[source] = full_report(200.0, 9.0, zeros_220,
                                   f_tail_source=source,
                                   prime_table=prime_table_small)
        built = [(4.0, 0.025)] if source == "empirical" else []
        assert calls == built
        for _ in range(2):
            assert np.array_equal(reps[source].curve.values,
                                  measured.curve.values)
        assert calls == [(4.0, 0.025)]
    assert float.hex(reps["empirical"].breakdown.f_tail) == float.hex(want)
    assert reps["model"].breakdown.f_tail == 1.0
    calls.clear()
    lemma_8_9_10_eval(zeros_220, 200.0, 0.5)
    assert calls == [(4.0, 0.025)]


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
    dec = lemma6_eval(zeros_220, 200.0, rep.beta)
    note = next(n for n in rep.notes if n.startswith("squared-formula"))
    assert f"R = {dec.r_total:.12g}," in note


def test_full_report_one_gap_pass(zeros_220, prime_table_small,
                                  monkeypatch):
    # int_1^T S^2 is one pass over the zero gaps of [1, T] and the piece
    # of int_0^T S^2 below t = 1 the only other one; G and H make none
    from szeta import s_of_t
    edges = []

    def counted(f, e, *args, **kwargs):
        edges.append(np.asarray(e))
        return gap_rule(f, e, *args, **kwargs)

    gap_rule = s_of_t.gap_rule
    monkeypatch.setattr(s_of_t, "gap_rule", counted)
    rep = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    assert sorted((e[0], e[-1]) for e in edges) == [(0.0, 1.0), (1.0, 200.0)]
    g = zeros_220.ordinates
    assert np.array_equal(max(edges, key=len)[1:-1], g[g < 200.0])
    ev = s_of_t.SEvaluator(zeros=zeros_220, prime_table=prime_table_small)
    assert rep.lhs_integral == pytest.approx(
        s_of_t.second_moment(200.0, ev), rel=1e-12)


def test_prime_double_sum_constant_is_the_sum():
    # the constant lives beside the sieve; the bracket reads that one
    from szeta import primes
    ds, _ = prime_power_double_sum(lambda m: 1.0 / m - 1.0 / m ** 2)
    assert primes.PRIME_DOUBLE_SUM == ds
    assert float.hex(primes.PRIME_DOUBLE_SUM) == float.hex(float(ds))
    assert theorem.PRIME_DOUBLE_SUM is primes.PRIME_DOUBLE_SUM


def test_full_report_one_prime_double_sum(zeros_220, prime_table_small,
                                          monkeypatch):
    # the bracket reads the double sum as a constant: no call of
    # prime_power_double_sum, under any name, reaches its primes to 1e6;
    # the opposite-sign bracket negates it, bit for bit
    from szeta import primes
    calls = []
    real_primes = primes._cutoff_primes

    def counted():
        calls.append(1)
        return real_primes()

    monkeypatch.setattr(primes, "_cutoff_primes", counted)
    rep = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    assert calls == []
    bd = rep.breakdown
    assert bd.rhs_theorem == bd.rhs_goldston
    ds_neg, _ = primes.prime_power_double_sum(
        lambda m: -1.0 / m + 1.0 / m ** 2)
    assert bd.prime_sum_term == 200.0 / (2.0 * PI ** 2) * ds_neg


def test_full_report_deterministic(zeros_220, prime_table_small):
    a = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    b = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    assert a.lhs_integral == b.lhs_integral
    assert a.breakdown == b.breakdown
    assert a.notes == b.notes


def test_full_report_takes_integer_heights(zeros_220, prime_table_small):
    # an int T and x give the report of the floats, field for field
    a = full_report(200, 9, zeros_220, prime_table=prime_table_small)
    b = full_report(200.0, 9.0, zeros_220, prime_table=prime_table_small)
    for f in fields(MomentReport):
        if f.compare:       # the cached F source is compared by its curve
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    assert np.array_equal(a.curve.values, b.curve.values)


def test_full_report_regime_guards(zeros_220, prime_table_small):
    for x in (20.0, math.nan):
        with pytest.raises(DomainError):
            full_report(200.0, x, zeros_220, prime_table=prime_table_small)
    with pytest.raises(DomainError):
        full_report(500.0, 9.0, zeros_220, prime_table=prime_table_small)
