import math
import re

import numpy as np
import pytest

from szeta import quadrature
from szeta.errors import AccuracyError
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
    # a gap 5 wide with omega undeclared gets 1-wide panels, far too
    # coarse for cos(40 x): 6 and 8 nodes disagree, and with no halvings
    # allowed the rule raises
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
    # declared, the panels shrink to a quarter period at once
    val, _ = gap_rule(lambda x: np.cos(40.0 * x), [0.0, 5.0], omega=40.0)
    assert abs(val - exact) < 1e-13


def test_gap_rule_refines_only_failing_segments():
    # x^2 on [0, 1] is exact at 6 nodes; cos(40 x) on [1, 6] needs its
    # 1-wide panels halved several times, and only it is summed again
    nodes = []

    def f(x):
        nodes.append(x)
        return np.where(x < 1.0, x * x, np.cos(40.0 * x))

    val, err = gap_rule(f, [0.0, 1.0, 6.0])
    exact = 1.0 / 3.0 + (math.sin(240.0) - math.sin(40.0)) / 40.0
    assert abs(val - exact) < 1e-13
    assert err <= 1e-10 * (1.0 / 3.0 + abs(exact - 1.0 / 3.0))
    x = np.concatenate(nodes)
    assert np.count_nonzero(x < 1.0) == 8 + 6
    assert np.count_nonzero(x > 1.0) > 2 * (8 + 6) * 5
