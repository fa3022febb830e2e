import math
import re

import numpy as np
import pytest

from szeta import quadrature
from szeta.errors import AccuracyError, DomainError
from szeta.quadrature import gap_rule, integrate


def test_polynomial_exact():
    val, err = integrate(lambda x: x * x, 0.0, 1.0)
    assert abs(val - 1.0 / 3.0) < 1e-14
    assert err < 1e-9


def test_oscillatory_sine():
    val, _ = integrate(np.sin, 0.0, math.pi, omega=1.0)
    assert abs(val - 2.0) < 1e-12


def test_high_frequency_cosine():
    # int_0^1 cos(200 x) dx = sin(200)/200
    val, _ = integrate(lambda x: np.cos(200.0 * x), 0.0, 1.0, omega=200.0)
    assert abs(val - math.sin(200.0) / 200.0) < 1e-12


def test_breakpoint_handles_kink():
    val, _ = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0,
                       breakpoints=(0.3,))
    exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    assert abs(val - exact) < 1e-13


def test_empty_and_reversed_ranges():
    assert integrate(np.sin, 2.0, 2.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 3.0, 2.0)


@pytest.mark.parametrize("a, b, omega, error", [
    (0.0, math.inf, 0.0, DomainError),
    (0.0, math.nan, 0.0, DomainError),
    (0.0, 1.0, math.inf, DomainError),
    (0.0, 1.0, math.nan, DomainError),
    (1.0, 0.0, 0.0, DomainError),
    (0.0, 1e300, 0.0, MemoryError),
    (0.0, 1.0, 1e300, MemoryError),
])
def test_refuses_what_it_cannot_integrate(a, b, omega, error):
    # each returned (0.0, 0.0) once its panel count overflowed; f never runs
    def f(u):
        raise AssertionError("integrand called")

    with pytest.raises(error):
        integrate(f, a, b, omega=omega)


def test_gap_rule_refuses_an_edge_that_is_not_finite():
    with pytest.raises(DomainError):
        gap_rule(np.ones_like, [0.0, math.nan, 1.0])


def test_nonconvergence_reports_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
    for breakpoints in ((), (-0.5, 0.0, 0.5)):
        with pytest.raises(AccuracyError) as info:
            integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0,
                      breakpoints=breakpoints)
        assert info.value.achieved is not None
        # the estimate is the whole integral, the message names one segment
        assert info.value.estimate == pytest.approx(4.0 / 3.0, abs=1e-3)
        cuts = (-1.0,) + breakpoints + (1.0,)
        lo, hi = map(float, re.search(r"on \[(\S+), (\S+)\]",
                                      str(info.value)).groups())
        assert (lo, hi) in zip(cuts[:-1], cuts[1:])


def test_gap_rule_on_segments():
    # |sin| has a kink at every multiple of pi: one segment per half period,
    # panels capped by omega, and no segments at all
    edges = np.arange(0.0, 7.0) * math.pi
    val, err = gap_rule(lambda x: np.abs(np.sin(x)), edges, omega=1.0)
    assert abs(val - 12.0) < 1e-13
    assert err < 1e-10 * 12.0
    assert gap_rule(np.sin, [2.0]) == (0.0, 0.0)


def test_gap_rule_raises_when_estimate_fails(monkeypatch):
    # a gap 5 wide with omega undeclared gets 2-wide panels, far too
    # coarse for cos(40 x): the 7- and 15-node sums disagree, and with no
    # halvings allowed the rule raises
    exact = math.sin(200.0) / 40.0
    with monkeypatch.context() as m:
        m.setattr(quadrature, "MAX_DEPTH", 0)
        with pytest.raises(AccuracyError) as info:
            gap_rule(lambda x: np.cos(40.0 * x), [0.0, 5.0])
    assert info.value.achieved > 1e-10
    assert "[0, 5]" in str(info.value)
    # halving the panels, it converges
    val, _ = gap_rule(lambda x: np.cos(40.0 * x), [0.0, 5.0])
    assert abs(val - exact) < 1e-13
    # declared, the panels shrink to half a period at once
    val, _ = gap_rule(lambda x: np.cos(40.0 * x), [0.0, 5.0], omega=40.0)
    assert abs(val - exact) < 1e-13


def test_gap_rule_refines_only_failing_segments():
    # x^2 on [0, 1] is exact in both sums of its one panel, 15 nodes;
    # cos(40 x) on [1, 6] needs its three 2-wide panels halved several
    # times, and only it is summed again
    nodes = []

    def f(x):
        nodes.append(x)
        return np.where(x < 1.0, x * x, np.cos(40.0 * x))

    val, err = gap_rule(f, [0.0, 1.0, 6.0])
    exact = 1.0 / 3.0 + (math.sin(240.0) - math.sin(40.0)) / 40.0
    assert abs(val - exact) < 1e-13
    assert err <= 1e-10 * (1.0 / 3.0 + abs(exact - 1.0 / 3.0))
    x = np.concatenate(nodes)
    assert np.count_nonzero(x < 1.0) == 15
    assert np.count_nonzero(x > 1.0) > 2 * 15 * 3


def _one_panel(f):
    """The value and the estimate of the rule on the one panel [-1, 1]."""
    value, change = quadrature._level_sums(
        f, np.array([-1.0]), np.array([1.0]), np.array([1]))
    return float(value[0]), float(change[0])


def test_kronrod_and_gauss_degrees():
    # the value, K15, is exact through x^22 and the estimate's G7 through
    # x^13; past those the estimate is G7's error, K15 still being exact
    for d in range(27):
        value, change = _one_panel(lambda x, d=d: x ** d)
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        if d <= 22:
            assert abs(value - exact) < 1e-15, d
        if d == 24:
            assert abs(value - exact) > 1e-10
        if d <= 13:
            assert change < 1e-15, d
        if d == 14:
            assert change > 1e-5


def test_gauss_nodes_are_legendre():
    # the 7-node Gauss rule inside the 15 Kronrod nodes; leggauss's own
    # weights lie up to 2.2e-16 from QUADPACK's 33-digit constants
    x, w = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(quadrature._NODES[1::2], x, rtol=0, atol=2e-16)
    wg = quadrature._WG[quadrature._MIRROR]
    np.testing.assert_allclose(wg[1::2], w, rtol=0, atol=3e-16)
    assert not wg[::2].any()


@pytest.mark.parametrize("a", [1.0, 5.0, 25.0, 100.0])
def test_estimate_bounds_the_runge_error(a):
    # poles at +-i/sqrt(a), down to a tenth of the half width from the
    # panel: the estimate of one panel still bounds the value's error (8-
    # and 6-node sums read 3.7e-2 at a = 100 against a true 9.7e-2)
    value, change = _one_panel(lambda x: 1.0 / (1.0 + a * x * x))
    exact = 2.0 * math.atan(math.sqrt(a)) / math.sqrt(a)
    assert change >= abs(value - exact)
