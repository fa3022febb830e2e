import cmath
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from oracles import (chebyshev_nodes, gap_integral_oracle,
                     node_interpolant_l2p, ordered_pair_sum_oracle)
from szeta import _tree, paircorr, s_of_t
from szeta._tree import _Tree
from szeta.errors import DomainError
from szeta.kernels import khat, khat_many, kpp_transform_many
from szeta.paircorr import (_COS, _KHAT, _KPP, PairCorrelationCurve,
                            _complement, _one, f_weighted_kernel_integral,
                            lemma5_check, lemma6_check, lemma6_eval,
                            pair_weight, pcf, pcf_curve, tail_integral,
                            weighted_khat_sum)
from szeta.quadrature import gap_rule
from szeta.s_of_t import sin_sinh_integral, sinh_integral
from szeta.zeros import ZeroSet, export_zeros, import_zeros

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
    # a cut outside [1, end of the curve], NaN included
    for cut in (3.0, 0.5, math.nan):
        with pytest.raises(DomainError):
            tail_integral(c, 2, cut)
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


def _khat_sums(g, logx, weights):
    """The khat pair sums of ``g`` at log x, one per weight."""
    return paircorr._pair_sum(g, logx, [(_KHAT, w) for w in weights])


def test_weighted_sum_partition(zeros_220):
    x = math.e ** 5
    sn, sw, sc = _khat_sums(zeros_220.up_to(200.0), math.log(x),
                            [_one, pair_weight, _complement])
    assert abs(sn - (sw + sc)) / abs(sn) < 1e-8
    assert weighted_khat_sum(zeros_220, x, T=200.0) == sn


def test_weighted_sum_single_zero():
    zs = ZeroSet(ordinates=np.array([20.0]), t_max=50.0, source="imported")
    x = 16.0
    assert weighted_khat_sum(zs, x, T=50.0) == pytest.approx(
        khat(0.0, "direct"), rel=1e-9)
    assert _khat_sums(zs.ordinates, math.log(x), [_complement])[0] == 0.0


def test_weighted_sum_validation(zeros_220):
    with pytest.raises(DomainError):
        weighted_khat_sum(zeros_220, 2.0, T=200.0)
    with pytest.raises(DomainError):
        weighted_khat_sum(zeros_220, math.nan, T=200.0)
    with pytest.raises(DomainError):
        weighted_khat_sum(zeros_220, 16.0, T=300.0)


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
    ours, = _khat_sums(zs.ordinates, math.log(x), [pair_weight])
    assert ours == pytest.approx(oracle, rel=1e-9)


def test_lemma5_real_and_synthetic(zeros_220):
    # at T = 20 one ordinate lies below T: lhs is 0 and the two right-hand
    # terms cancel to 1e-14, a discrepancy measured against the terms
    for T, beta in ((200.0, 0.5), (20.0, 0.4)):
        rep = lemma5_check(zeros_220, T, beta)
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
    # the explicit formula's zero sum (through the tree for more than
    # _DENSE points) against every ordinate through sin_sinh_integral at
    # every point, in rows of 64 points
    t = np.asarray(t, dtype=float)
    got = s_of_t._zero_sum(t, g, logx)
    want = np.concatenate([
        sin_sinh_integral(np.subtract.outer(t[k:k + 64], g) * logx).sum(1)
        for k in range(0, len(t), 64)])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _with_neighbours(special):
    # each special point among 2 _DENSE + 1 others within 1 of it, so that
    # the call goes through the tree
    return np.concatenate([special] + [
        np.linspace(p - 1.0, p + 1.0, 2 * s_of_t._DENSE + 1)
        for p in special])


def _near_pairs(t, g):
    # the (point, ordinate) pairs the zero field sums directly
    tree = _Tree.over(g, t.min(), t.max())
    return sum(len(i) for i, _ in tree.near_at(t))


def test_zero_sum_split_blocks_all_near_or_all_far():
    logx = math.log(100.0)
    # four ordinates about the points: the smallest tree with a far field
    g = np.array([20.0, 21.5, 24.0, 27.25])
    t = np.linspace(22.0, 23.0, 2 * s_of_t._DENSE)
    assert 0 < _near_pairs(t, g) < t.size * g.size
    _assert_zero_sum_matches_dense(t, g, logx)
    # seven ordinates: a cluster of points 0.1 from one (so the sums reach
    # about 1, and 1e-15 of that lies above the rounding of the closed
    # form's terms), and points with no ordinate within 5
    g = np.array([10.0, 14.0, 18.0, 50.0, 75.0, 120.0, 131.0])
    near = _with_neighbours(np.array([12.0, 13.9, 14.1, 16.0]))
    wide = np.linspace(60.0, 64.0, 2 * s_of_t._DENSE)
    _assert_zero_sum_matches_dense(np.concatenate((near, wide)), g, logx)
    # 43 ordinates, the same cluster of points, and points with no
    # ordinate in their leaf or the next two: every ordinate through the
    # far field, within the switch v = 60 by the closed form and beyond it
    # by the series
    g = np.concatenate((10.0 + 0.5 * np.arange(40), [50.0, 75.0, 120.0]))
    far = np.linspace(36.0, 40.0, 2 * s_of_t._DENSE)
    assert _near_pairs(far, g) == 0
    d = np.abs(np.subtract.outer(far, g)) * logx
    assert np.any(d < s_of_t._SINH_SWITCH) and np.any(d > s_of_t._SINH_SWITCH)
    _assert_zero_sum_matches_dense(np.concatenate((near, far)), g, logx)


def test_zero_sum_split_at_the_switch_and_at_ordinates(zeros_220):
    g = zeros_220.ordinates
    logx = 0.4 * math.log(100.0)
    reach = s_of_t._SINH_SWITCH / logx
    # points exactly one reach from an ordinate on either side, and points
    # equal to ordinates (v = 0, the midpoint value 0)
    j = 40
    t = np.array([g[j] - reach, g[j] + reach, g[j], g[j + 1],
                  0.5 * (g[j] + g[j + 1])])
    _assert_zero_sum_matches_dense(_with_neighbours(t), g, logx)
    # points whose lowest and highest sit one reach from the last
    # ordinates of the closed form's side, with the next ordinates just
    # beyond, on the series' side
    logx = math.log(100.0)
    reach = s_of_t._SINH_SWITCH / logx
    lo, hi = 50.0, 54.0
    t = np.linspace(lo, hi, 2 * s_of_t._DENSE)
    g = np.array([lo - reach - 1e-7, lo - reach, lo - 5.0, lo - 1.0,
                  lo + 2.0, hi + 5.0, hi + reach, hi + reach + 1e-7])
    _assert_zero_sum_matches_dense(t, g, logx)


def test_zero_sum_split_with_the_end_ordinates_in_the_band(zeros_220):
    g = zeros_220.ordinates
    logx = math.log(20.0)
    rng = np.random.default_rng(5)
    # points about the first ordinate, the last one, and a point set
    # spread wider than the whole set; then points sparser than the
    # ordinates, calls of exactly _DENSE points (summed at every ordinate)
    # and of one more, and a dense point set in random order
    for t in (np.linspace(g[0] - 2.0, g[0] + 3.0, 40),
              np.linspace(g[-1] - 3.0, g[-1] + 2.0, 40),
              np.linspace(1.0, g[-1] + 5.0, 700),
              np.linspace(2.0, 215.0, 30),
              np.linspace(100.0, 104.0, s_of_t._DENSE),
              np.linspace(100.0, 104.0, s_of_t._DENSE + 1),
              rng.permutation(np.linspace(40.0, 90.0, 800))):
        _assert_zero_sum_matches_dense(t, g, logx)


def test_zero_sum_split_keeps_digits_near_t_1e5():
    # 3000 ordinates at the density near t = 99000: phases measured from 0
    # (sin(t L) cos(gamma L) - cos(t L) sin(gamma L)) put about 1.7e-14
    # relative into the sum, phases from exact box centres 3e-16
    rng = np.random.default_rng(7)
    g = np.sort(99000.0 + rng.uniform(-975.0, 975.0, 3000))
    logx = 0.5 * math.log(99000.0)
    t = np.sort(99000.0 + rng.uniform(-40.0, 40.0, 1000))
    _assert_zero_sum_matches_dense(t, g, logx)


def test_zero_sum_split_with_clustered_ordinates():
    # 3000 of 4500 ordinates within 3 of each other: points inside the
    # cluster sum thousands of terms of size about 1 directly, points
    # beside it take it through the far field, by the closed form within
    # the switch and by the series beyond
    rng = np.random.default_rng(11)
    g = np.sort(np.concatenate((rng.uniform(200.0, 203.0, 3000),
                                rng.uniform(10.0, 1000.0, 1500))))
    logx = math.log(100.0)
    t = np.linspace(180.0, 225.0, 400)
    _assert_zero_sum_matches_dense(t, g, logx)


def test_zero_sum_at_sparse_points_of_the_reference_set(zeros_ref):
    # 998 points 10 apart over the 10154 reference ordinates: one tree
    # over the whole set, a few ordinates summed directly at each point
    g = zeros_ref.ordinates
    t = 20.0 + 10.0 * np.arange(998)
    assert _near_pairs(t, g) < 20 * len(t)
    _assert_zero_sum_matches_dense(t, g, 0.5 * math.log(1000.0))


def _assert_l2p_matches_the_node_interpolant(g, logx):
    # the zero field's far field by Clenshaw's recurrence on each leaf's
    # coefficients against the interpolant of the same expansion's values
    # at the leaf's Chebyshev nodes, at 5000 random points
    t = np.random.default_rng(3).uniform(g[0], g[-1], 5000)
    tree = _Tree.over(g, t.min(), t.max())
    coef = tree.locals(lambda d: sinh_integral(np.abs(d) * logx), logx)
    leaf, xi = tree._locate(t)
    u = t - (tree.origin + (leaf + 0.5) * tree.h)
    values = chebval(chebyshev_nodes(len(coef)), coef)
    want = node_interpolant_l2p(xi, u, logx, values[leaf])
    got = tree.far_at(t, coef, logx)
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


def test_l2p_against_the_node_interpolant(zeros_ref):
    # the dense sums above check the near and far fields only together;
    # this checks L2P alone, on the sets of
    # test_zero_sum_split_keeps_digits_near_t_1e5, ..._with_clustered_
    # ordinates and the reference ordinates (1.04e-15, 0.81e-15 and
    # 1.24e-15 of the largest value when written)
    rng = np.random.default_rng(7)
    g = np.sort(99000.0 + rng.uniform(-975.0, 975.0, 3000))
    _assert_l2p_matches_the_node_interpolant(g, 0.5 * math.log(99000.0))
    rng = np.random.default_rng(11)
    g = np.sort(np.concatenate((rng.uniform(200.0, 203.0, 3000),
                                rng.uniform(10.0, 1000.0, 1500))))
    _assert_l2p_matches_the_node_interpolant(g, math.log(100.0))
    _assert_l2p_matches_the_node_interpolant(zeros_ref.ordinates,
                                             0.5 * math.log(1000.0))


def _traced_peak(f, *args, **kwargs):
    # the largest traced allocation total during the call, in MiB
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_tree_temporaries_are_bounded_by_a_block(zeros_ref):
    # tracemalloc traces NumPy's allocations, so the peaks are the same
    # on every run.  With near-field pieces of 2^16 differences the pair
    # sum of R peaked at 6.22 MiB, and L2P through the (4096 x 20) node
    # interpolant at 2.22 MiB; pieces of 2^14 and Clenshaw's recurrence
    # read 1.65 and 0.50 MiB
    assert _traced_peak(weighted_khat_sum, zeros_ref, 20.0, T=2500.0) <= 3.0
    # the curve's near and far fields hold one workspace per call, sized
    # by a batch of leaves: fresh temporaries per batch and pass peaked at
    # 1.81 MiB, far batch buffers sized by all the leaves at 2.22 MiB, and
    # buffers sized by a batch, shared with the level loop, at 1.58
    assert _traced_peak(pcf_curve, zeros_ref, 2500.0, 4.0, 0.025) <= 2.0
    logx = math.log(20.0)
    tree = _Tree.over(zeros_ref.up_to(2500.0), 1.0, 2500.0)
    coef = tree.locals(lambda d: sinh_integral(np.abs(d) * logx), logx)
    t = np.random.default_rng(1).uniform(1.0, 2500.0, 4096)
    assert _traced_peak(tree.far_at, t, coef, logx) <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pieces_cover_every_pair_once(data):
    # random runs [lo[i], hi[i]), empty ones and ones longer than a piece
    # among them, split at the module's piece size and at small ones
    near = data.draw(st.sampled_from([1, 3, 16, 100, _tree._NEAR]))
    counts = np.array(data.draw(st.lists(
        st.integers(0, 2 * near + 1), max_size=8 if near > 100 else 40)),
        dtype=np.int64)
    lo = np.array(data.draw(st.lists(st.integers(0, 50), min_size=len(counts),
                                     max_size=len(counts))), dtype=np.int64)
    hi = lo + counts
    with mock.patch.object(_tree, "_NEAR", near):
        pieces = list(_tree._pieces(lo, hi))
    longest = int(counts.max(initial=0))
    assert all(0 < len(i) <= max(near, longest) for i, _ in pieces)
    got = np.concatenate([np.stack(p) for p in pieces], axis=1) \
        if pieces else np.zeros((2, 0), dtype=np.int64)
    want = np.stack([np.repeat(np.arange(len(lo)), counts),
                     np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)]
                                    + [np.zeros(0, dtype=np.int64)])])
    order = np.lexsort(got[::-1])
    assert np.array_equal(got[:, order], want)


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
    # a fresh set: the session's may hold pair sums from earlier tests
    zs = replace(zeros_220)
    calls = []
    real = paircorr._pair_sum

    def counted(g, L, terms):
        calls.append(len(terms))
        return real(g, L, terms)

    monkeypatch.setattr(paircorr, "_pair_sum", counted)
    lemma5_check(zs, 200.0, 0.5)
    assert calls == [5]
    lemma6_eval(zs, 200.0, 0.4)
    assert calls == [5, 5]


def test_zero_set_memo_and_read_only_ordinates(zeros_220):
    # the pair sums are kept per set: a replaced or re-imported set starts
    # empty, and the ordinates they were summed over cannot change
    zs = replace(zeros_220)
    assert zs.memo == {}
    lemma5_check(zs, 200.0, 0.5)
    assert set(zs.memo) == {"beta_sums"}
    assert replace(zs).memo == {}
    assert import_zeros(export_zeros(zs)).memo == {}
    with pytest.raises(ValueError):
        zs.ordinates[0] = 14.0
    mine = zeros_220.ordinates.copy()
    zs = ZeroSet(ordinates=mine, t_max=220.0)
    mine[0] = 14.0
    assert zs.ordinates[0] == zeros_220.ordinates[0]


def test_lemma6_direct_against_the_dense_sum_at_T_1000(zeros_1010):
    # the direct integral at every T: its integrand through the tree
    # against every ordinate summed at every node of the same gap rule
    T, beta = 1000.0, 0.5
    dec = lemma6_eval(zeros_1010, T, beta)
    g = zeros_1010.ordinates
    logx = beta * math.log(T)

    def dense(t):
        return (sin_sinh_integral(np.subtract.outer(t, g) * logx).sum(1)
                / PI) ** 2

    edges = np.concatenate(([1.0], g[g < T], [T]))
    want, err = gap_rule(dense, edges, omega=logx)
    assert dec.r_total_direct == pytest.approx(want, rel=1e-12, abs=0.0)
    assert dec.r_direct_err <= 1e-10 * dec.r_total_direct


def test_lemma6_single_zero_f_beta_term():
    zs = ZeroSet(ordinates=np.array([30.0]), t_max=120.0, source="imported")
    T, beta = 120.0, 0.5
    dec = lemma6_eval(zs, T, beta)
    norm = (T / (2 * PI)) * math.log(T)
    expect = T / (16 * math.log(T) ** 2) * (1.0 / norm) / beta ** 3
    assert dec.term_F_beta == pytest.approx(expect, rel=1e-12)


def _pair_engine_outputs(zs, T, beta):
    """lemma5 sums, lemma6 terms and a pcf curve, all through the engine."""
    rep = lemma5_check(zs, T, beta)
    dec = lemma6_eval(zs, T, beta)
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
    # with the default leaf size 60 ordinates make a cos tree of at most
    # one level, all near field; two ordinates per leaf force a deep one
    # (the khat and k'' sums' trees are laid out by 50 / log x alone)
    assert _Tree(head, 0.0).levels <= 1
    monkeypatch.setattr(_tree, "_LEAF", 2)
    assert _Tree(head, 0.0).levels == 4
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
    dec = lemma6_eval(zs, T, beta)
    curve = pcf_curve(zs, T, max(alphas), 0.25)
    on_grid = [curve.values[int(round(a / 0.25))] for a in alphas]
    khat_w, khat_c = _khat_sums(zs.up_to(T), math.log(x),
                                [pair_weight, _complement])
    return {
        "khat": [weighted_khat_sum(zs, x, T=T),
                 dec.r_total * PI ** 2 * beta * logT],
        "khat_w": [khat_w, f_weighted_kernel_integral(zs, T, beta) / kscale,
                   dec.term_main * (2 * PI ** 2 * beta) ** 2 / T / kscale],
        "khat_c": [khat_c, rep.lhs],
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
    assert _Tree(g, 0.0).levels >= 3
    # the khat and k'' sums' leaves: 19.4 wide against the floor 16.7
    assert _Tree(g, 50.0 / (beta * math.log(T))).levels == 7
    _assert_matches_oracle(zeros_2510, T, beta)
    # x = 4: the widest near field the khat sums allow, 50 / log 4 ~ 36
    beta4 = math.log(4.0 + 1e-9) / math.log(T)
    assert _Tree(g, 50.0 / math.log(4.0)).levels == 6
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
    assert _Tree(one_leaf, 50.0 / math.log(4.0)).levels == 0
    _assert_matches_oracle(zset(one_leaf), 200.0,
                           math.log(4.0 + 1e-9) / math.log(200.0))
    # differences straddling y = 50: pairs at 50 / log x (1 -+ 1e-9)
    beta = 0.5
    r = 50.0 / (beta * math.log(200.0))
    base = 20.0 + 0.37 * np.arange(250)
    straddle = np.sort(np.concatenate(
        [base, base + r * (1 - 1e-9), base + r * (1 + 1e-9)]))
    assert _Tree(straddle, r).levels >= 2
    _assert_matches_oracle(zset(straddle), 200.0, beta)
    # gaps wider than a leaf leave empty leaves
    monkeypatch.setattr(_tree, "_LEAF", 4)
    gappy = np.concatenate([np.arange(20.0, 60.0, 0.25),
                            np.arange(60.0, 160.0, 9.5),
                            np.arange(160.0, 199.0, 0.25)])
    tree = _Tree(gappy, 0.0)
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


def _top_of_range_set():
    # ordinates near 1e5 with alpha up to 4: near-field charges with phases
    # taken from g itself (up to 4.6e6), or a factor exp(i omega h) between
    # leaf edges that are h apart only up to rounding, put 1e-11 to 3e-11
    # relative error into these sums; 160 steps of the column recurrence
    # must keep the phases too
    rng = np.random.default_rng(11)
    return 99000.0 + np.arange(300) + rng.uniform(-0.4, 0.4, 300), 99300.0


def _empty_leaf_set():
    # an empty stretch wider than two leaves: one leaf holds no ordinate,
    # and the partly filled leaves are padded to the fullest
    return np.concatenate([20.0 + 0.08 * np.arange(120),
                           39.42 + 0.08 * np.arange(180)]), 60.0


def _cluster_set():
    # 200 ordinates within 0.2 fill one leaf: the near field takes that
    # leaf's weight matrix in blocks of rows, and the sparse leaves at
    # their own width rather than padded to the cluster's
    return np.concatenate([20.0 + 0.001 * np.arange(200),
                           21.0 + 2.5 * np.arange(100)]), 270.0


def test_curve_against_ordered_oracle_at_the_top_of_the_range():
    g, T = _top_of_range_set()
    assert _Tree(g, 0.0).levels >= 2
    _assert_curve_matches_oracle(g, T)


def test_curve_against_ordered_oracle_with_empty_leaves():
    g, T = _empty_leaf_set()
    tree = _Tree(g, 0.0)
    assert tree.levels >= 2
    assert not np.all(tree.filled.any(axis=1))
    assert len(set(tree.filled.sum(axis=1))) > 2
    _assert_curve_matches_oracle(g, T)


def test_curve_against_ordered_oracle_with_a_cluster():
    g, T = _cluster_set()
    tree = _Tree(g, 0.0)
    width = tree.filled.sum(axis=1)
    assert width.max() > 200 and np.median(width) < 20
    _assert_curve_matches_oracle(g, T)


def test_curve_workspace_across_batches_and_passes():
    # the near and far fields each fill one workspace per call, sized by
    # their largest batch; with batches of 2000 charges, near batches of
    # different padded widths, blocks of fewer rows than the one before,
    # far batches of fewer leaves than the first, and the last pass of
    # 161 = 10 * 16 + 1 columns all reuse it
    assert 161 % _tree._COLUMNS == 1
    with mock.patch.object(_tree, "_BATCH", 2000):
        for g, T in (_top_of_range_set(), _empty_leaf_set(),
                     _cluster_set()):
            tree = _Tree(g, 0.0)
            assert len({w for _, _, w in tree._batches(161)}) > 1
            _assert_curve_matches_oracle(g, T)
        g, _ = _top_of_range_set()
        assert [b - a for a, b, _ in _Tree(g, 0.0)._batches(16)] == [3, 3, 2]


def test_pair_sum_far_field_in_small_batches(zeros_1010):
    # the single-column far field of _pair_sum (khat and k'' terms on the
    # floor layout) in batches of two and three leaves, its workspace
    # sized by the first and reused by the last
    T, beta = 1000.0, 0.45
    tree = _Tree(zeros_1010.up_to(T), 50.0 / (beta * math.log(T)))
    with mock.patch.object(_tree, "_BATCH", 80):
        assert len({b - a for a, b, _ in tree._batches(1)}) > 1
        _assert_matches_oracle(zeros_1010, T, beta, alphas=(1.0,))


def test_curve_of_a_single_ordinate():
    _assert_curve_matches_oracle([30.0], 100.0)


def test_pair_engine_far_field_on_a_flat_kernel():
    # kernel 1: the ordered pair sum of cos(omega d) is |sum e^(i omega g)|^2,
    # and every pair between non-adjacent leaves goes through the far field
    rng = np.random.default_rng(7)
    g = np.sort(np.concatenate([rng.uniform(0.0, 50.0, 300),
                                rng.uniform(1000.0, 1100.0, 300)]))
    tree = _Tree(g, 0.0)
    assert tree.levels >= 3
    for omega in (0.0, 0.3, 2.9):
        got, = paircorr._pair_sum(g, omega, [(_COS, _one)])
        want = abs(np.sum(np.exp(1j * omega * (g - g[0])))) ** 2
        assert got == pytest.approx(want, rel=1e-11, abs=1e-9 * len(g))


def test_pair_sum_terms_are_independent_and_set_the_leaf_floor(
        zeros_1010, monkeypatch):
    # the near field evaluates each transform once per piece for all its
    # terms: a permuted term list gives the permuted sums bit for bit, and
    # a term alone its sum in the list, the leaf floor being the same
    g = zeros_1010.up_to(1000.0)
    L = 0.5 * math.log(1000.0)
    terms = [(_KHAT, _one), (_KHAT, pair_weight), (_KHAT, _complement),
             (_KPP, pair_weight), (_COS, pair_weight)]
    assert _Tree(g, 50.0 / L).levels == 6
    sums = paircorr._pair_sum(g, L, terms)
    rng = np.random.default_rng(3)
    for order in [[4, 3, 2, 1, 0], [3, 0, 4, 1, 2]] \
            + [rng.permutation(5) for _ in range(3)]:
        got = paircorr._pair_sum(g, L, [terms[k] for k in order])
        assert np.array_equal(got, sums[order]), order
    for k in range(4):
        assert np.array_equal(paircorr._pair_sum(g, L, [terms[k]]),
                              sums[k:k + 1])
    # the P/Q far kernels hold for d L >= 50 only: leaves at least 50 / L
    # wide with any khat or k'' term, no floor for cos terms alone
    floors = []

    def spy(g, floor):
        floors.append(floor)
        return _Tree(g, floor)

    monkeypatch.setattr(paircorr, "_Tree", spy)
    for chosen in ([4], [4, 4], [0], [3], [4, 3]):
        paircorr._pair_sum(g, L, [terms[k] for k in chosen])
    assert floors == [0.0, 0.0, 50.0 / L, 50.0 / L, 50.0 / L]


def test_pair_tree_leaves_are_as_narrow_as_the_floor(zeros_ref):
    # with a floor (a khat or k'' term) the leaves are in [floor, 2 floor)
    # wide, whatever the ordinates per leaf, unless all fit in one leaf
    rng = np.random.default_rng(5)
    sets = [zeros_ref.up_to(T) for T in (30.0, 200.0, 2500.0, 10000.0)]
    sets += [np.sort(rng.uniform(20.0, 900.0, 50)),
             np.concatenate([20.0 + 0.001 * np.arange(300),
                             21.0 + 2.5 * np.arange(100)])]
    for g in sets:
        width = g[-1] - g[0]
        for L in (math.log(4.0), math.log(20.0), 0.5 * math.log(g[-1]),
                  0.99 * math.log(g[-1]), 40.0):
            floor = 50.0 / L
            tree = _Tree(g, floor)
            assert tree.h * 2 ** tree.levels == pytest.approx(width)
            if tree.levels:
                assert floor <= tree.h < 2.0 * floor, (len(g), L)
            else:
                assert width < 2.0 * floor, (len(g), L)


def test_cos_tree_layout_holds_about_leaf_ordinates(zeros_ref):
    # without a floor (cos terms alone, the curve) the most levels whose
    # leaves still hold _LEAF = 24 ordinates on average, as before
    for T, levels in ((30.0, 0), (200.0, 1), (2500.0, 6), (10000.0, 8)):
        g = zeros_ref.up_to(T)
        assert _Tree(g, 0.0).levels == levels, T
        assert len(g) / 2 ** levels >= 24 or levels == 0
        assert len(g) / 2 ** (levels + 1) < 24


def test_pair_weight_even():
    u = np.linspace(-5, 5, 11)
    assert np.array_equal(pair_weight(u), pair_weight(-u))
