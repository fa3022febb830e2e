#!/usr/bin/env python3
"""Build the coefficient tables that szeta reads and write them to
``src/szeta/tables.npy``.

    python scripts/make_tables.py

The file is one float64 array: the tables of ``kernels._TABLE_LAYOUT``,
each flattened in C order, one after the other.

- ``khat_low`` and ``kpp_low``: the Chebyshev coefficients, one column per
  panel of [0, 50), of khat and of the transform of k'' (``khat_many`` and
  ``kpp_transform_many`` below y = 50).  Each panel's degree-10 series
  interpolates the reference transform (``kernels._reference_transform``:
  error-estimated quadrature on [0, 1/(2 pi)] plus the E_n tail) at its
  Chebyshev points.
- ``rs_c0``, ``rs_c1`` and ``rs_c2``: the Riemann-Siegel correction
  coefficients C0, C1 and C2 as Chebyshev series in p on [0, 1], from a
  degree-24 interpolant of Psi and its derivatives.

Run it again after changing how any of them is built;
``tests/test_kernels.py`` rebuilds them and compares them with the file.
"""

import math
import pathlib
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from szeta.kernels import (  # noqa: E402
    PI, _LOW_DEG, _LOW_PANELS, _LOW_TABLES, _LOW_WIDTH, _TABLE_LAYOUT,
    _TABLE_PATH, _reference_transform)

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# khat and k'' below y = 50
# ----------------------------------------------------------------------

_LOW_X = np.cos(PI * (np.arange(_LOW_DEG + 1) + 0.5) / (_LOW_DEG + 1))
# coefficients from values at _LOW_X, by the discrete orthogonality of T_k
_CHEB_FIT = np.cos(np.outer(np.arange(_LOW_DEG + 1),
                            np.arccos(_LOW_X))) * (2.0 / (_LOW_DEG + 1))
_CHEB_FIT[0] *= 0.5


def low_table(spec) -> np.ndarray:
    """Chebyshev coefficients, one column per panel of [0, 50), of the
    transform ``spec``: its reference values at the 1100 points."""
    y = _LOW_WIDTH * (np.arange(_LOW_PANELS)[:, None]
                      + 0.5 * (_LOW_X[None, :] + 1.0))
    vals = np.array([_reference_transform(v, spec) for v in y.ravel()])
    return _CHEB_FIT @ vals.reshape(_LOW_PANELS, -1).T


# ----------------------------------------------------------------------
# Riemann-Siegel corrections
# ----------------------------------------------------------------------

# Psi is entire, so its degree-24 interpolant is exact to rounding; a
# higher degree only amplifies that rounding in the derivatives (degree 96
# put errors of 6e-6 into Psi''' and 180 into Psi^(6) at p = 0 and 1)
_PSI_DEG = 24


def _psi_pointwise(p: float) -> float:
    # cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p); removable zeros of the
    # denominator at p = 1/4, 3/4 handled through the factored sine form
    d = math.cos(TWO_PI * p)
    if abs(d) > 0.05:
        return math.cos(TWO_PI * (p * p - p - 1.0 / 16.0)) / d
    p0 = 0.25 if abs(p - 0.25) < abs(p - 0.75) else 0.75
    h = p - p0
    if h == 0.0:
        return 0.5
    sgn = 1.0 if p0 == 0.25 else -1.0
    u = (2.0 * p0 - 1.0) * h + h * h
    return math.sin(TWO_PI * u) / (-sgn * math.sin(TWO_PI * h))


def psi_model():
    """Chebyshev model of the correction shape Psi on [0, 1]: its
    interpolant at the degree-24 Chebyshev extrema."""
    j = np.arange(_PSI_DEG + 1)
    xs = 0.5 * (1.0 + np.cos(math.pi * j / _PSI_DEG))
    ys = np.array([_psi_pointwise(x) for x in xs])
    return np.polynomial.chebyshev.Chebyshev.fit(
        xs, ys, deg=_PSI_DEG, domain=[0.0, 1.0])


def rs_tables(psi):
    """C0 = Psi, C1 = -Psi'''/(96 pi^2) and
    C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4) from the Chebyshev model
    ``psi`` of Psi, by elementwise arithmetic on its coefficients alone."""
    return (psi, psi.deriv(3) * (-1.0 / (96.0 * math.pi ** 2)),
            psi.deriv(2) * (1.0 / (64.0 * math.pi ** 2))
            + psi.deriv(6) * (1.0 / (18432.0 * math.pi ** 4)))


# ----------------------------------------------------------------------
# the file
# ----------------------------------------------------------------------

def build_tables() -> dict:
    """Every table of ``kernels._TABLE_LAYOUT``, by name."""
    out = {name: low_table(spec) for spec, name in _LOW_TABLES.items()}
    for i, series in enumerate(rs_tables(psi_model())):
        out[f"rs_c{i}"] = series.coef
    for name, shape in _TABLE_LAYOUT:
        if out[name].shape != shape:
            raise ValueError(f"{name}: shape {out[name].shape}, "
                             f"layout {shape}")
    return out


def main() -> int:
    tables = build_tables()
    flat = np.concatenate([tables[name].ravel() for name, _ in _TABLE_LAYOUT])
    np.save(_TABLE_PATH, flat)
    print(f"wrote {flat.size} coefficients to {_TABLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
