"""Assembly of the headline second-moment comparison and its companions.

The target statement reads

    int_0^T |S|^2 = (T/2pi^2) log log T
        + (T/2pi^2) [ int_1^inf F(alpha,T)/alpha^2 + C0
                      - sum_{m>=2} sum_p (1/m - 1/m^2) p^-m ]
        + error

with every F integral, the report's F-tail and Lemmas 8-10's alike, read
from one F source (:func:`_f_source`): the measured F of a zero set or the
piecewise conjectural model of F.  Everything conditional is evaluated,
never asserted: :func:`lemma_8_9_10_eval` reports Lemmas 8-10 next to the
printed sizes of the error terms they drop.

The bracket also appears with the opposite-sign double sum (the earlier
form of the result); both are computed and their equality is exact by sign
algebra, which the breakdown asserts bit-for-bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import (_report, k_values, kpp_values,
                      t_weighted_kernel_integral)
from .paircorr import (PairCorrelationCurve, _beta_pair_sums, _refuse_beta,
                       pcf_curve, tail_integral, weighted_khat_sum)
from .primes import PRIME_DOUBLE_SUM, build_prime_table
from .quadrature import integrate
from .s_of_t import SEvaluator, _s_power_integral, g_and_h_direct
from .zeros import ZeroSet

PI = math.pi

# constant of the conjectural F main term: -2 log(2 pi) - 2
EQ2_CONSTANT = -2.0 * math.log(2.0 * PI) - 2.0


@dataclass(frozen=True)
class FModel:
    """Parameters of the piecewise conjectural pair-correlation model.

    The regime boundary 1 - 3 log log T / log T is negative below
    T ~ e^4.54 ~ 93, so the model floor sits at T = 100 (the first-branch
    window is empty before that and the piecewise form degenerates).
    """

    T: float

    def __post_init__(self):
        if not 100.0 <= self.T < math.inf:
            raise DomainError("model needs a finite T >= 100")

    @property
    def regime_boundary(self) -> float:
        logT = math.log(self.T)
        return 1.0 - 3.0 * math.log(logT) / logT

    def kernel_integrals(self, beta: float) -> tuple[float, float]:
        """int over R of F(alpha) k(alpha/(2 pi beta)) d alpha, and with k'':
        on [0, 1] by quadrature broken at alpha = beta and at the regime
        boundary, on [1, inf) in closed form with F == 1."""
        pts = tuple(p for p in sorted({beta, self.regime_boundary}) if p < 1)
        k, kpp = (integrate(
            lambda a: conjectural_F(a, self) * fn(a / (2.0 * PI * beta)),
            0.0, 1.0, breakpoints=pts)[0] for fn in (k_values, kpp_values))
        return (2.0 * (k + PI ** 2 * beta ** 2),
                2.0 * (kpp + 8.0 * PI ** 4 * beta ** 4))

    def tail(self, power: int) -> float:
        """int_1^inf F(alpha)/alpha^power d alpha, with F == 1 there."""
        return 1.0 / (power - 1)


def conjectural_F(alpha, model: FModel):
    """Main terms of the conjectural F: alpha + T^(-2 alpha)(log T + C) up
    to the regime boundary, alpha up to 1, then the constant 1 (the
    uniformity conjecture as a model).  Even in alpha; O-terms dropped."""
    scalar = np.isscalar(alpha)
    a = np.abs(np.asarray(alpha, dtype=float))
    logT = math.log(model.T)
    b = model.regime_boundary
    low = a + model.T ** (-2.0 * a) * (logT + EQ2_CONSTANT)
    out = np.where(a <= b, low, np.where(a <= 1.0, a, 1.0))
    return float(out) if scalar else out


@dataclass(frozen=True)
class TheoremBreakdown:
    """Right-hand side of the second-moment formula, term by term.

    ``rhs_theorem`` is defined as the exact floating-point sum of the four
    stored terms; ``rhs_goldston`` carries the sign-flipped double sum and
    is bit-identical by construction.
    """

    T: float
    f_tail: float
    loglog_term: float
    f_tail_term: float
    euler_term: float
    prime_sum_term: float
    rhs_theorem: float
    rhs_goldston: float


def theorem_rhs(T: float, f_tail: float) -> TheoremBreakdown:
    """Evaluate the right-hand side with a given F-tail integral."""
    if not 100.0 <= T < math.inf:
        raise DomainError(f"bracket evaluation stated for finite T >= 100: "
                          f"{T}")
    scale = T / (2.0 * PI ** 2)
    ds_pos = PRIME_DOUBLE_SUM
    # coefficients -1/m + 1/m^2 negate every term, so the opposite-sign
    # double sum is exactly -ds_pos
    ds_neg = -ds_pos
    loglog = scale * math.log(math.log(T))
    f_term = scale * f_tail
    e_term = scale * np.euler_gamma
    p_term = scale * (-ds_pos)
    rhs = loglog + f_term + e_term + p_term
    rhs_g = loglog + f_term + e_term + scale * ds_neg
    return TheoremBreakdown(T=T, f_tail=f_tail, loglog_term=loglog,
                            f_tail_term=f_term, euler_term=e_term,
                            prime_sum_term=p_term, rhs_theorem=rhs,
                            rhs_goldston=rhs_g)


# ----------------------------------------------------------------------
# conditional-asymptotic evaluators
# ----------------------------------------------------------------------

# the one curve every measured F-tail reads: alpha in [0, 4] in steps of
# 0.025, F = 1 beyond (the uniformity conjecture as a labeled model)
_CURVE_END, _CURVE_STEP = 4.0, 0.025


@dataclass(frozen=True, eq=False)
class _MeasuredF:
    """F of the ordinates up to T: pair-engine integrals, one curve."""

    zeros: ZeroSet
    T: float

    @functools.cached_property
    def curve(self) -> PairCorrelationCurve:
        return pcf_curve(self.zeros, self.T, _CURVE_END, _CURVE_STEP)

    def kernel_integrals(self, beta: float) -> tuple[float, float]:
        sums = _beta_pair_sums(self.zeros, self.T, beta)
        return sums.k_integral, sums.kpp_integral

    def tail(self, power: int) -> float:
        return tail_integral(self.curve, power, _CURVE_END)


def _f_source(name: str, zeros: ZeroSet | None, T: float):
    """The F source ``name`` names at height T: ``empirical``, the measured
    F of ``zeros``, or ``model``, the conjectural F (zeros unread)."""
    if name == "empirical":
        if zeros is None:
            raise DomainError("empirical F needs a zero set")
        return _MeasuredF(zeros, T)
    if name == "model":
        return FModel(T)
    raise DomainError("f_source must be empirical|model")


def lemma_8_9_10_eval(zeros: ZeroSet | None, T: float, beta: float,
                      f_source: str = "empirical") -> dict:
    """Lemmas 8-10 against their conditional closed forms, as report-only
    checks keyed by name: int F(alpha) k(alpha/(2 pi beta)) d alpha (k''
    for lemma9) and the moment R, with the kernel integrals and the F-tails
    from the F source ``f_source`` names (:func:`_f_source`).  lemma10 is
    there for the measured F only: R is a sum over zeros."""
    source = _f_source(f_source, zeros, T)
    _refuse_beta(T, beta)
    k_int, kpp_int = source.kernel_integrals(beta)
    ft2, ft4 = source.tail(2), source.tail(4)
    logT = math.log(T)
    t_int = t_weighted_kernel_integral(T, beta)
    bracket = 1.0 - PI ** 2 / 8.0 + math.log(PI / 2.0) + ft2 - math.log(beta)

    def report(name, lhs, rhs, scale, note):
        return _report(name, {"T": T, "beta": beta, "f_source": f_source},
                       lhs, rhs, 0.0, assertable=False, scale=scale,
                       notes=[note])

    out = {
        "lemma8": report(
            "lemma8", k_int,
            2.0 * PI ** 2 * beta ** 2 * bracket
            + 2.0 * (logT + EQ2_CONSTANT) * t_int,
            {"inv_beta2_log4T": 1.0 / (beta ** 2 * logT ** 4),
             "logT_T_pow": logT * T ** (-(0.5 - 0.1) * beta),
             "beta2_inv_log2T": beta ** 2 / logT ** 2},
            "conditional asymptotic: discrepancy reported against the "
            "printed error scales, never asserted"),
        "lemma9": report(
            "lemma9", kpp_int,
            4.0 * PI ** 6 * beta ** 2 - 24.0 * PI ** 4 * beta ** 4
            + 48.0 * PI ** 4 * beta ** 4 * ft4
            + 32.0 * PI ** 2 * beta ** 2 * logT ** 2 * (logT + EQ2_CONSTANT)
            * t_int,
            {"inv_log2T": 1.0 / logT ** 2,
             "logT_T_pow": logT * T ** (-(0.5 - 0.1) * beta)},
            "shares the T^(-2 alpha) kernel integral implementation with "
            "the parts-integration check"),
    }
    if isinstance(source, _MeasuredF):
        out["lemma10"] = report(
            "lemma10", _beta_pair_sums(zeros, T, beta).r_total,
            T / (2.0 * PI ** 2) * bracket
            + 3.0 * T / (8.0 * PI ** 2 * logT ** 2)
            - 3.0 * T / (4.0 * PI ** 2 * logT ** 2) * ft4,
            {"T_inv_log2T": T / logT ** 2,
             "T_inv_beta4_log4T": T / (beta ** 4 * logT ** 4)},
            "the source display shows the F-tail integral from 0; it is "
            "evaluated from 1 here (the 0 end diverges as printed and the "
            "final statement uses the from-1 form)")
    return out


# ----------------------------------------------------------------------
# the full report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    """Side-by-side decomposition of the measured and predicted moments;
    ``curve``, the measured F curve, is built at its first read, once."""

    T: float
    x: float
    beta: float
    lhs_integral: float
    breakdown: TheoremBreakdown
    f_tail_source: str
    discrepancy_abs: float
    discrepancy_rel: float
    notes: tuple = ()
    measured: _MeasuredF | None = field(default=None, repr=False,
                                        compare=False)

    @property
    def curve(self) -> PairCorrelationCurve | None:
        return None if self.measured is None else self.measured.curve


def full_report(T: float, x: float, zeros: ZeroSet,
                f_tail_source: str = "empirical",
                prime_table=None) -> MomentReport:
    """Measure int_0^T S^2 and compare against the assembled right side,
    whose F-tail is ``tail(2)`` of the F source ``f_tail_source`` names.

    Also evaluates the squared-formula intermediate identity
    ``int_1^T S^2 + G + H = R + O(sqrt(T x))``, reporting the residual
    against its sqrt(T x) scale in the notes.
    Deterministic: identical inputs give identical reports.
    """
    T, x = float(T), float(x)   # NumPy refuses an int to a negative power
    if not T >= 100.0:          # theorem_rhs's floor, before any work
        raise DomainError(f"bracket evaluation stated for T >= 100: {T}")
    if not x >= 4.0:
        raise DomainError("x >= 4 required")
    beta = math.log(x) / math.log(T)
    if beta >= 0.5:
        raise DomainError("regime requires x = T^beta with beta < 1/2")
    source = _f_source(f_tail_source, zeros, T)
    measured = (source if isinstance(source, _MeasuredF)
                else _MeasuredF(zeros, T))

    # int_1^T S^2 is the squared formula's first term, and refuses a set
    # that does not count N(T); int_0^T S^2 adds the piece below t = 1
    s_squared = _s_power_integral(2, 1.0, T, zeros)
    lhs = _s_power_integral(2, 0.0, 1.0, zeros) + s_squared
    if prime_table is None:
        prime_table = build_prime_table(x)
    gh = g_and_h_direct(T, x, SEvaluator(zeros=zeros,
                                         prime_table=prime_table))

    f_tail = source.tail(2)
    bd = theorem_rhs(T, f_tail)
    d = lhs - bd.rhs_theorem
    notes = [
        f"f-tail integral {f_tail:.12g} from source={f_tail_source} "
        f"tail_model=constant_one alpha_max={_CURVE_END:.12g}",
        "F(alpha)=1 beyond the curve is the uniformity conjecture used as "
        "a labeled model, not an assumption being verified",
    ]
    r_total = weighted_khat_sum(zeros, x, T=T) / (PI ** 2 * math.log(x))
    left = s_squared + gh.g + gh.h
    resid = left - r_total
    scale = math.sqrt(T * x)
    notes.append(
        f"squared-formula identity: int_1^T S^2 + G + H = {left:.12g}, "
        f"R = {r_total:.12g}, residual = {resid:.12g}, "
        f"sqrt(T x) scale = {scale:.12g}")
    return MomentReport(T=T, x=x, beta=beta, lhs_integral=lhs, breakdown=bd,
                        f_tail_source=f_tail_source, discrepancy_abs=d,
                        discrepancy_rel=d / bd.rhs_theorem,
                        notes=tuple(notes), measured=measured)
