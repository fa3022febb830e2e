"""Desk-scale numerics for the second moment of the zeta argument function.

Subpackage map: ``primes`` (sieve, von Mangoldt weights, prime-sum
constants), ``zeros`` (Riemann-Siegel Z and zero ordinates), ``kernels``
(the smoothing weight f, the piecewise kernel k, Fourier identities),
``s_of_t`` (S(t) both routes and its moments), ``paircorr`` (Montgomery's
F and the weighted pair sums), ``theorem`` (the assembled second-moment
comparison), ``cli`` (command-line front end).
"""

from .errors import (AccuracyError, CoverageError, DomainError,
                     MissedZerosError, ZerosParseError)
from .kernels import CheckReport, check_identity, khat
from .paircorr import (PairCorrelationCurve, RDecomposition, lemma5_check,
                       lemma6_check, lemma6_eval, pcf, pcf_curve,
                       tail_integral, weighted_khat_sum)
from .primes import (PrimeSumBundle, PrimeTable, build_prime_table,
                     closed_form_S1_minus_2S2, prime_power_double_sum,
                     prime_sum_terms)
from .s_of_t import (SEvaluator, g_and_h_direct, s_exact, s_explicit,
                     second_moment, sin_sinh_integral)
from .theorem import (FModel, MomentReport, conjectural_F, full_report,
                      lemma_8_9_10_eval, theorem_rhs)
from .zeros import (ZeroSet, export_zeros, find_zeros, import_zeros,
                    riemann_siegel_Z, theta, theta_exact)

__version__ = "0.1.0"
