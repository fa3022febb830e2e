"""Prime sieving, the von Mangoldt weights, and the prime-sum constants.

Everything here is exact finite arithmetic: the sieve is a plain
Eratosthenes bool array, prime powers are enumerated by repeated integer
multiplication (no floating-point log/power detection), and every truncated
infinite sum returns a rigorous geometric tail bound next to its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernels import f_weight

PI = math.pi


@dataclass(frozen=True)
class PrimeTable:
    """Primes and prime powers up to ``limit`` with their log-p weights.

    ``support_n``/``support_p``/``support_m`` list every prime power
    ``n = p^m <= limit`` (m >= 1) in increasing n; Lambda(n) = log p on these
    and 0 elsewhere.  Immutable after construction; all reads are
    thread-safe.  ``memo`` holds values derived from the table by its
    readers (the explicit formula's prime terms at one x), so they live
    and die with the table they were derived from.
    """

    limit: int
    primes: np.ndarray
    support_n: np.ndarray
    support_p: np.ndarray
    support_m: np.ndarray
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
    """Sieve primes and prime powers up to x (x >= 4)."""
    if x < 4:
        raise DomainError("prime table needs x >= 4")
    x = int(x)
    primes = _sieve(x)

    ns = [primes]
    ps = [primes]
    ms = [np.ones(len(primes), dtype=np.int64)]
    for p in primes[primes <= math.isqrt(x)]:
        p = int(p)
        q = p * p
        m = 2
        while q <= x:
            ns.append(np.array([q], dtype=np.int64))
            ps.append(np.array([p], dtype=np.int64))
            ms.append(np.array([m], dtype=np.int64))
            q *= p
            m += 1
    n_all = np.concatenate(ns)
    order = np.argsort(n_all, kind="stable")
    return PrimeTable(limit=x, primes=primes,
                      support_n=n_all[order],
                      support_p=np.concatenate(ps)[order],
                      support_m=np.concatenate(ms)[order])


@lru_cache(maxsize=8)
def _primes_up_to(p_cutoff: int) -> np.ndarray:
    return _sieve(p_cutoff)


# an order's primes are cut where the dropped ones sum below 2^-_CUT_BITS
# of the order's first term 2^-m
_CUT_BITS = 60


def prime_power_double_sum(coeff, p_cutoff: int = 10 ** 6,
                           m_cutoff: int = 64):
    """Truncated sum over m >= 2 and primes p of coeff(m) * p^(-m).

    Returns ``(value, tail_bound)`` where the bound covers both truncations
    (p > p_cutoff and m > m_cutoff) assuming |coeff(m)| <= 1, via geometric
    comparison with the odd integers beyond the prime cutoff.  Order m sums
    only the primes below the first q whose odd integers n >= q sum, as
    q^-m + q^(1-m)/(2(m-1)), below 2^-60 of 2^-m; that comparison's
    value at the prime where the order stops joins the bound.
    """
    if p_cutoff < 3 or m_cutoff < 2:
        raise DomainError("need p_cutoff >= 3 and m_cutoff >= 2")
    orders = range(2, m_cutoff + 1)
    cvals = np.array([float(coeff(m)) for m in orders])
    if np.any(np.abs(cvals) > 1.0 + 1e-12):
        raise DomainError("coeff(m) must be bounded by 1 in absolute value")

    primes = _primes_up_to(int(p_cutoff))
    inv = 1.0 / primes.astype(float)
    power = inv * inv
    total = dropped = 0.0
    for m, c in zip(orders, cvals):
        # q^(1-m) (1/(2(m-1)) + 1/q) <= 2^-(m + _CUT_BITS) for q >= q0,
        # as q >= 3; q0 > 2 for every m and falls as m grows
        q0 = 2.0 ** ((math.log2(0.5 / (m - 1) + 1.0 / 3.0) + m + _CUT_BITS)
                     / (m - 1))
        keep = int(np.searchsorted(primes[:len(power)],
                                   math.ceil(min(q0, p_cutoff + 1.0))))
        if keep < len(primes):
            q = float(primes[keep])
            dropped += abs(c) * (q ** -m + q ** (1 - m) / (2 * (m - 1)))
        power, inv = power[:keep], inv[:keep]
        if c != 0.0:
            total += c * float(np.sum(power))
        power = power * inv

    P, M = float(p_cutoff), int(m_cutoff)
    # primes beyond P are odd and >= P+1: sum_m [(P+1)^-m + (P+1)^(1-m)/(2(m-1))]
    tail_p = 0.5 / P + 1.0 / (P * (P + 1.0))
    # all primes, orders beyond M: 2^-m plus odd integers >= 3
    tail_m = 2.0 ** (-M) + 0.5 * 3.0 ** (-M) + 3.0 ** (1 - M) / (4.0 * M)
    return total, tail_p + tail_m + dropped


@dataclass(frozen=True)
class PrimeSumBundle:
    """The four prime sums entering the G+H closed form, at cutoff x.

    s1, s2 weight primes by f(log p / log x) (squared for s1); s3, s4 run
    over prime powers p^m <= x with m >= 2.  ``tail_bound_s3`` bounds the
    gap between s3 and its infinite-sum limit; it decays like 1/sqrt(x).
    """

    x: int
    s1: float
    s2: float
    s3: float
    s4: float
    tail_bound_s3: float


def prime_sum_terms(x: int, table: PrimeTable) -> PrimeSumBundle:
    """Evaluate the four sums exactly at cutoff x <= table.limit."""
    if not 4 <= x <= table.limit:
        raise DomainError("need 4 <= x <= table.limit")
    logx = math.log(x)

    ps = table.primes[table.primes <= x].astype(float)
    fv = f_weight(np.log(ps) / logx)
    s1 = float(np.sum(fv * fv / ps))
    s2 = float(np.sum(fv / ps))

    hi = table.support_m >= 2
    sel = hi & (table.support_n <= x)
    n = table.support_n[sel].astype(float)
    m = table.support_m[sel].astype(float)
    p = table.support_p[sel].astype(float)
    weight = 1.0 / (m * m * n)
    s3 = float(np.sum(weight))
    fm = f_weight(m * np.log(p) / logx)
    s4 = float(np.sum((fm - 1.0) ** 2 * weight))

    # truncation bound: for each m, primes with p^m > x exceed x^(1/m)
    m_top = int(math.log2(x))
    bound = 0.0
    for mm in range(2, m_top + 1):
        bound += (1.0 / x + x ** (-(mm - 1) / mm) / (mm - 1)) / (mm * mm)
    if m_top >= 2:
        bound += (2.0 ** (-m_top) + 3.0 ** (-m_top)) / (m_top * m_top)
    return PrimeSumBundle(x=x, s1=s1, s2=s2, s3=s3, s4=s4,
                          tail_bound_s3=bound)


def closed_form_S1_minus_2S2(x: int, p_cutoff: int = 10 ** 6,
                             m_cutoff: int = 64) -> float:
    """Closed form for S1 - 2*S2:

        -log log x + log(pi/2) - pi^2/8 + 1 - gamma
            + sum_{m>=2} sum_p 1/(m p^m)

    The double sum shares :func:`prime_power_double_sum` with the theorem
    bracket, so cross-checks between the two are exact.
    """
    if x < 16:
        raise DomainError("closed form stated for x >= 16")
    double_sum, _ = prime_power_double_sum(lambda m: 1.0 / m,
                                           p_cutoff, m_cutoff)
    return (-math.log(math.log(x)) + math.log(PI / 2.0) - PI ** 2 / 8.0
            + 1.0 - np.euler_gamma + double_sum)
