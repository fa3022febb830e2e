"""Prime sieving, the von Mangoldt weights, and the prime-sum constants.

Everything here is exact finite arithmetic: the sieve is a plain
Eratosthenes bool array, prime powers are enumerated by repeated integer
multiplication (no floating-point log/power detection), and every truncated
infinite sum returns a rigorous geometric tail bound next to its value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import f_weight

PI = math.pi

_P_CUTOFF = 10 ** 6     # primes of the prime-power double sum
_M_CUTOFF = 64          # its orders m = 2.._M_CUTOFF

# the bracket's double sum sum_{m>=2} sum_p (1/m - 1/m^2) p^-m, as
# prime_power_double_sum gives it (tail bound 5e-7), bit for bit; a
# constant, so that no report sieves for it
PRIME_DOUBLE_SUM = 0.1762477954986507


@dataclass(frozen=True)
class PrimeTable:
    """Primes and prime powers up to ``limit`` with their log-p weights.

    ``support_n``/``support_p`` list every prime power ``n = p^m <= limit``
    (m >= 1) and its prime, in increasing n; Lambda(n) = log p on these
    and 0 elsewhere.  Immutable after construction; all reads are
    thread-safe.  ``memo`` holds values derived from the table by its
    readers (the explicit formula's prime terms at one x), so they live
    and die with the table they were derived from.
    """

    limit: int
    primes: np.ndarray
    support_n: np.ndarray
    support_p: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)


def _sieve(x: int) -> np.ndarray:
    """The primes up to x, ascending."""
    sieve = np.ones(x + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def build_prime_table(x: int) -> PrimeTable:
    """Sieve primes and prime powers up to x (finite x >= 4)."""
    if not 4 <= x < math.inf:
        raise DomainError("prime table needs finite x >= 4")
    x = int(x)
    primes = _sieve(x)

    ns = [primes]
    ps = [primes]
    for p in primes[primes <= math.isqrt(x)]:
        p = int(p)
        q = p * p
        while q <= x:
            ns.append(np.array([q], dtype=np.int64))
            ps.append(np.array([p], dtype=np.int64))
            q *= p
    n_all = np.concatenate(ns)
    order = np.argsort(n_all, kind="stable")
    return PrimeTable(limit=x, primes=primes,
                      support_n=n_all[order],
                      support_p=np.concatenate(ps)[order])


@functools.cache
def _cutoff_primes() -> np.ndarray:
    """The primes up to ``_P_CUTOFF``, sieved once per process; read-only,
    as every caller shares the one array."""
    primes = _sieve(_P_CUTOFF)
    primes.flags.writeable = False
    return primes


def prime_power_double_sum(coeff):
    """Sum over 2 <= m <= 64 and primes p <= 1e6 of coeff(m) * p^(-m).

    Returns ``(value, tail_bound)`` where the bound covers both truncations
    (p > 1e6 and m > 64) assuming |coeff(m)| <= 1, via geometric
    comparison with the odd integers beyond the prime cutoff.
    """
    orders = range(2, _M_CUTOFF + 1)
    cvals = np.array([float(coeff(m)) for m in orders])
    if np.any(np.abs(cvals) > 1.0 + 1e-12):
        raise DomainError("coeff(m) must be bounded by 1 in absolute value")

    inv = 1.0 / _cutoff_primes().astype(float)
    power = inv * inv
    total = 0.0
    for c in cvals:
        if c != 0.0:
            total += c * float(np.sum(power))
        power *= inv

    P, M = float(_P_CUTOFF), _M_CUTOFF
    # primes beyond P are odd and >= P+1: sum_m [(P+1)^-m + (P+1)^(1-m)/(2(m-1))]
    tail_p = 0.5 / P + 1.0 / (P * (P + 1.0))
    # all primes, orders beyond M: 2^-m plus odd integers >= 3
    tail_m = 2.0 ** (-M) + 0.5 * 3.0 ** (-M) + 3.0 ** (1 - M) / (4.0 * M)
    return total, tail_p + tail_m


@dataclass(frozen=True)
class PrimeSumBundle:
    """The two prime sums of the closed form for S1 - 2 S2, at cutoff x:
    s1 and s2 weight the primes p <= x by f(log p / log x), squared for s1,
    over p."""

    x: int
    s1: float
    s2: float


def prime_sum_terms(x: int, table: PrimeTable) -> PrimeSumBundle:
    """Evaluate both sums exactly at cutoff x <= table.limit."""
    if not 4 <= x <= table.limit:
        raise DomainError("need 4 <= x <= table.limit")
    logx = math.log(x)

    ps = table.primes[table.primes <= x].astype(float)
    fv = f_weight(np.log(ps) / logx)
    s1 = float(np.sum(fv * fv / ps))
    s2 = float(np.sum(fv / ps))
    return PrimeSumBundle(x=x, s1=s1, s2=s2)


def closed_form_S1_minus_2S2(x: int) -> float:
    """Closed form for S1 - 2*S2:

        -log log x + log(pi/2) - pi^2/8 + 1 - gamma
            + sum_{m>=2} sum_p 1/(m p^m)

    The double sum shares :func:`prime_power_double_sum` with the theorem
    bracket, so cross-checks between the two are exact.
    """
    if not 16 <= x < math.inf:
        raise DomainError(f"closed form stated for finite x >= 16: {x}")
    double_sum, _ = prime_power_double_sum(lambda m: 1.0 / m)
    return (-math.log(math.log(x)) + math.log(PI / 2.0) - PI ** 2 / 8.0
            + 1.0 - np.euler_gamma + double_sum)
