import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import kernel_transforms_oracle, tail_cos_oracle
from szeta import kernels
from szeta.errors import DomainError
from szeta.kernels import (_KD_BP, BREAKPOINT, _g_raw, _gp_raw,
                           check_identity, f_weight, k_values, khat,
                           khat_many, kpp_transform_many, kpp_values,
                           t_weighted_kernel_integral)

PI = math.pi


def test_f_endpoint_values():
    assert f_weight(1.0) == 0.0
    assert f_weight(0.0) == 1.0
    assert f_weight(0.5) == pytest.approx(PI / 4, rel=1e-14)
    with pytest.raises(DomainError):
        f_weight(1.5)
    with pytest.raises(DomainError):
        f_weight(-0.1)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-8, max_value=0.5))
def test_f_near_one_bound(u):
    # f(u) = 1 + O(u^2) with margin: |f(u) - 1| <= u^2 on (0, 1/2],
    # up to the floating noise floor of the evaluation itself
    assert abs(f_weight(u) - 1.0) <= u * u + 1e-15


def test_kernel_point_values():
    assert k_values(1.0) == 0.25
    both = (k_values(BREAKPOINT), 0.25 / BREAKPOINT ** 2)
    assert both[0] == pytest.approx(PI ** 2, rel=1e-13)
    assert both[1] == pytest.approx(PI ** 2, rel=1e-13)
    assert kpp_values(0.0) == pytest.approx(PI ** 8 / 18.0, rel=1e-13)
    # one-sided k' and k'' at the breakpoint: the inside branch (left, also
    # the derivative table the high-y transforms expand in), and for k''
    # the 1/(4u^2) branch just beyond it (right)
    kp_left = -4 * PI ** 3 + PI ** 5
    assert 2.0 * _g_raw(BREAKPOINT) * _gp_raw(BREAKPOINT) == \
        pytest.approx(kp_left, rel=1e-12)
    assert _KD_BP[1] == pytest.approx(kp_left, rel=1e-12)
    kpp_left = PI ** 8 / 2 - 4 * PI ** 6 + 24 * PI ** 4
    assert kpp_values(BREAKPOINT) == pytest.approx(kpp_left, rel=1e-12)
    assert _KD_BP[2] == pytest.approx(kpp_left, rel=1e-12)
    assert kpp_values(np.nextafter(BREAKPOINT, 1.0)) == \
        pytest.approx(24 * PI ** 4, rel=1e-13)


def test_k_prime_odd_symmetry():
    # k is even, so k' (central differences of k) is odd and k'' even; the
    # differences also match k' = 2 g g' on the inside branch
    h = 1e-6
    for u in (0.1, 0.12):
        kp = (k_values(u + h) - k_values(u - h)) / (2 * h)
        kp_neg = (k_values(-u + h) - k_values(-u - h)) / (2 * h)
        assert kp_neg == -kp
        assert kp == pytest.approx(2.0 * _g_raw(u) * _gp_raw(u), rel=1e-8)
    assert kpp_values(-0.12) == kpp_values(0.12)


def test_k_nonnegative_on_grid():
    u = np.linspace(-10.0, 10.0, 10_000)
    assert np.all(k_values(u) >= 0.0)


def test_k_outside_branch_is_exact():
    u = np.linspace(BREAKPOINT * 1.0001, 10.0, 1000)
    assert np.max(np.abs(k_values(u) - 0.25 / u ** 2)) == 0.0


def test_k_series_matches_raw_formula():
    # cancellation guard: series evaluation vs the raw two-term formula
    u = 1e-3
    raw = (0.5 / u - 0.5 * PI * PI / math.tan(PI * PI * u)) ** 2
    assert abs(float(k_values(u)) - raw) < 1e-8


def test_khat_even():
    for y in (0.7, 3.1):
        assert khat(y, "direct") == khat(-y, "direct")


def test_khat_zero_against_quad_oracle():
    # independent quadrature oracle: 2 int_0^bp k + tail pi (=1/(2 bp))
    inner, err = quad(lambda u: float(k_values(u)), 0.0, BREAKPOINT,
                      epsabs=1e-13, limit=200)
    assert err < 1e-10
    oracle = 2.0 * inner + PI
    assert khat(0.0, "direct") == pytest.approx(oracle, abs=1e-9)


def test_khat_closed_rejects_origin():
    with pytest.raises(DomainError):
        khat(0.0, "closed")
    with pytest.raises(DomainError):
        khat(1.0, "bogus")


def test_fourier_identity_lemma4():
    rep = check_identity("lemma4")
    assert rep.passed
    assert rep.discrepancy_abs < 1e-6
    assert rep.detail["imag_residual"] < 1e-8


def test_imag_residual_refines_near_the_break(monkeypatch):
    # with [1/(2 pi), 40] as one segment, refining the 1/u^2 tail near its
    # left end halved the panels out to 40: 15694 points at y = 0.5
    points = []

    def counted(u):
        points.append(np.size(u))
        return k_values(u)

    monkeypatch.setattr(kernels, "k_values", counted)
    assert kernels._khat_complex_residual(0.5) < 1e-15
    assert sum(points) < 3000


def test_fast_path_matches_quadrature():
    ys = np.array([0.0, 0.3, 0.9, 3.7, 20.0, 49.9, 50.1, 123.4,
                   1000.3, 15000.7])
    fast = khat_many(ys)
    slow = np.array([khat(float(y), "direct") for y in ys])
    assert np.max(np.abs(fast - slow)) < 5e-11


def test_kpp_transform_at_zero():
    # int k'' over R equals the total jump of k', 2 pi^5
    assert float(kpp_transform_many(np.zeros(1))[0]) == pytest.approx(
        2 * PI ** 5, rel=1e-10)


def test_khat_decay_bound():
    y = np.linspace(1.0, 50.0, 70)
    vals = khat_many(y)
    assert np.all(np.abs(vals) * y * y <= 2 * PI ** 3)


def test_w_partition_identity():
    rep = check_identity("w_partition")
    assert rep.passed and rep.discrepancy_abs <= 1e-15
    u = 3.0
    assert 4.0 / (4.0 + u * u) + u * u / (4.0 + u * u) == 1.0


def test_kernel_derivative_constants():
    rep = check_identity("lemma3")
    assert rep.passed
    rel = rep.detail["relative_errors"]
    assert rel["k_dprime_0"] < 1e-4
    for key in ("k_prime_left", "k_prime_right", "k_dprime_left",
                "k_dprime_right"):
        assert rel[key] < 1e-3


def test_parts_identity_reports_boundary():
    rep = check_identity("lemma7")
    assert rep.passed and not rep.assertable
    # the discrepancy is exactly the dropped boundary terms
    assert abs(rep.detail["residual_after_boundary"]) < 1e-8
    assert rep.discrepancy_abs == pytest.approx(
        abs(rep.detail["boundary_terms"]), rel=1e-6)


def test_geometric_moment_bound():
    rep = check_identity("lemma11")
    assert rep.passed
    assert rep.detail["C_times_sum"]["2"] == pytest.approx(4.0, rel=1e-12)


def test_unknown_identity():
    with pytest.raises(DomainError):
        check_identity("lemma99")


def test_t_weighted_integral_positive_and_scales():
    a = t_weighted_kernel_integral(1000.0, 0.5)
    b = t_weighted_kernel_integral(1000.0, 0.5, deriv=True)
    assert a > 0.0 and b > 0.0


def test_low_y_branch_against_mpmath():
    # the piecewise Chebyshev tables below y = 50 against a 30-digit
    # quadrature of the finite piece plus the sine-integral tails; the k''
    # transform reaches 2 pi^5 ~ 612 at y = 0 (measured: 2e-14 and 3.4e-12)
    ys = [1e-6, 0.5, 2.0, 5.0, 13.7, 20.0, 35.2, 49.0, 49.999]
    got_k = khat_many(np.array(ys))
    got_p = kpp_transform_many(np.array(ys))
    for y, gk, gp in zip(ys, got_k, got_p):
        want_k, want_p = kernel_transforms_oracle(y)
        assert abs(gk - want_k) <= 1e-13, y
        assert abs(gp - want_p) <= 2e-11, y
    # every panel against what it interpolates: the fixed grid with each
    # node's cosine taken directly, plus the E_n tail
    from szeta import kernels
    x_gl, w_gl = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, BREAKPOINT, 41)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * x_gl[None, :]).ravel()
    w = (half[:, None] * w_gl[None, :]).ravel()
    y = np.concatenate(([0.0, np.nextafter(50.0, 0.0)],
                        np.random.default_rng(3).uniform(0.0, 50.0, 3000)))
    outer = np.cos(np.outer(2 * PI * y, x))
    grid_k = 2.0 * (outer @ (k_values(x) * w)) + 0.5 * kernels._tail_cos(y, 2)
    grid_kpp = 2.0 * (outer @ (kpp_values(x) * w)) \
        + 3.0 * kernels._tail_cos(y, 4)
    assert np.max(np.abs(khat_many(y) - grid_k)) < 1e-13
    assert np.max(np.abs(kpp_transform_many(y) - grid_kpp)) < 1e-11


def test_tail_against_mpmath():
    # int_bp^inf cos(2 pi y u)/u^n du by E_n(-iy), series up to y = 2 and
    # continued fraction above, against the sine-integral form at 40 digits
    import mpmath as mp
    from szeta import kernels
    ys = np.concatenate((
        [0.0, 1e-9, 1e-3, 0.4, 1.0, 1.999, 2.0, np.nextafter(2.0, 3.0),
         2.001, 2.5, 7.3, 49.9, 50.0, 123.4, 999.9, 1000.0],
        np.random.default_rng(5).uniform(0.0, 1000.0, 40)))
    for n, bound in ((2, 1e-14 * 2 * PI), (4, 1e-14 * (2 * PI) ** 3)):
        got = kernels._tail_cos(ys, n)
        with mp.workdps(40):
            want = np.array([float(tail_cos_oracle(y, n)) for y in ys])
        assert np.max(np.abs(got - want)) <= bound, n
        assert np.array_equal(kernels._tail_cos(-ys, n), got)


def test_high_y_branch_against_mpmath():
    # P cos y + Q sin y against the same two pieces at 50 digits: the
    # 5-term boundary series and the exact sine-integral tails
    import mpmath as mp
    from szeta import kernels

    def boundary(y, off):
        a = 2 * mp.pi * y
        return sum((-1) ** j * (mp.mpf(kernels._KD_BP[2 * j + off])
                                * mp.sin(y) / a ** (2 * j + 1)
                                + mp.mpf(kernels._KD_BP[2 * j + 1 + off])
                                * mp.cos(y) / a ** (2 * j + 2))
                   for j in range(5))

    ys = [50.0, 50.3, 77.7, 1000.3, 7458.1, 300000.1]
    got_k = khat_many(np.array(ys))
    got_p = kpp_transform_many(np.array(ys))
    for y, gk, gp in zip(ys, got_k, got_p):
        with mp.workdps(50):
            my = mp.mpf(y)
            want_k = float(2 * boundary(my, 0) + tail_cos_oracle(my, 2) / 2)
            want_p = float(2 * boundary(my, 2) + 3 * tail_cos_oracle(my, 4))
        # what is left is the rounding of the 1/y coefficient, which
        # cancels to 0 for khat and to pi^7/2 - 4 pi^5 for k''
        assert abs(gk - want_k) <= 1e-15 / y
        assert abs(gp - want_p) <= 1e-12 / y
