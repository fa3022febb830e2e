import math

import numpy as np
import pytest

from szeta.errors import AccuracyError
from szeta.quadrature import DEFAULT_SPEC, QuadratureSpec, integrate


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
    spec = QuadratureSpec(breakpoints=(0.3,), infinite_cutoff=10.0)
    val, _ = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, spec)
    exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    assert abs(val - exact) < 1e-13


def test_empty_and_reversed_ranges():
    assert integrate(np.sin, 2.0, 2.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 3.0, 2.0)


def test_nonconvergence_reports_estimate():
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_depth=2)
    with pytest.raises(AccuracyError) as info:
        integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, spec)
    assert info.value.achieved is not None
    assert info.value.estimate == pytest.approx(4.0 / 3.0, abs=1e-3)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=100)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
    with pytest.raises(ValueError):
        QuadratureSpec(breakpoints=(5.0,), infinite_cutoff=2.0)


def test_with_breakpoints_keeps_cutoff_above():
    spec = DEFAULT_SPEC.with_breakpoints((100.0,))
    assert spec.infinite_cutoff > 100.0
    assert 100.0 in spec.breakpoints
