import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import prime_power_double_sum_oracle
from szeta.errors import DomainError
from szeta.kernels import f_weight
from szeta.primes import (build_prime_table, closed_form_S1_minus_2S2,
                          prime_power_double_sum, prime_sum_terms)


def _simple_sieve(x):
    flags = [True] * (x + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(x ** 0.5) + 1):
        if flags[p]:
            for q in range(p * p, x + 1, p):
                flags[q] = False
    return [n for n in range(2, x + 1) if flags[n]]


def _lambda(table):
    """(n, Lambda(n)) over the table's prime-power support, in table order."""
    return list(zip(table.support_n.tolist(),
                    np.log(table.support_p).tolist()))


def test_lambda_values():
    lam = dict(_lambda(build_prime_table(100)))
    assert lam[8] == pytest.approx(math.log(2), abs=1e-15)
    assert 12 not in lam
    assert lam[5] == pytest.approx(math.log(5), abs=1e-15)


def test_rejects_tiny_limit():
    with pytest.raises(DomainError):
        build_prime_table(3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=2000))
def test_table_invariants(x):
    table = build_prime_table(x)
    ref = _simple_sieve(x)
    assert table.primes.tolist() == ref
    # every support entry is a true prime power with Lambda = log p
    seen = set()
    for n, lam in _lambda(table):
        assert n not in seen
        seen.add(n)
        assert n <= x
        # recover p as the smallest prime factor, check n is a pure power
        p = next(q for q in ref if n % q == 0)
        m = 0
        nn = n
        while nn % p == 0:
            nn //= p
            m += 1
        assert nn == 1
        assert lam == pytest.approx(math.log(p), rel=1e-15)
    # no prime power missing
    for p in ref:
        q = p
        while q <= x:
            assert q in seen
            q *= p


def test_psi_matches_lcm():
    # exact integer oracle: psi(x) = log lcm(1..x)
    table = build_prime_table(10_000)
    for x in (10, 100, 1000, 10_000):
        acc = 1
        for n in range(2, x + 1):
            acc = math.lcm(acc, n)
        psi = float(np.sum(np.log(table.support_p[table.support_n <= x])))
        assert psi == pytest.approx(math.log(acc), rel=1e-12)


def test_double_sum_trivial_cases():
    val, _ = prime_power_double_sum(lambda m: 0.0)
    assert val == 0.0


@pytest.mark.parametrize("coeff", [lambda m: 1.0 / m - 1.0 / m ** 2,
                                   lambda m: 1.0 / m],
                         ids=["bracket", "closed_form"])
def test_double_sum_against_untrimmed_oracle(coeff):
    # the oracle's sieve and sums against plain Python (a list sieve and
    # one exactly rounded sum) at primes to 1e4
    primes = _simple_sieve(10 ** 4)
    plain = math.fsum(coeff(m) * float(p) ** -m
                      for p in primes for m in range(2, 65))
    assert prime_power_double_sum_oracle(coeff, 10 ** 4, 64) == \
        pytest.approx(plain, rel=1e-14, abs=0.0)
    # each order stops where the rest of its primes is below 2^-60 of
    # 2^-m; the full loop runs every order over all 78498 primes
    val, bound = prime_power_double_sum(coeff)
    full = prime_power_double_sum_oracle(coeff, 10 ** 6, 64)
    assert val == pytest.approx(full, rel=1e-15, abs=0.0)
    assert abs(val - full) <= bound
    # and the bound, below 1e-6, covers the infinite double sum
    assert bound < 1e-6
    with mpmath.workdps(30):
        exact = float(mpmath.fsum(coeff(m) * mpmath.primezeta(m)
                                  for m in range(2, 200)))
    assert abs(val - exact) <= bound


def test_double_sum_rejects_large_coeff():
    with pytest.raises(DomainError):
        prime_power_double_sum(lambda m: 2.0)


def test_prime_sum_terms_two_primes_at_x4(prime_table_small):
    bundle = prime_sum_terms(4, prime_table_small)
    log4 = math.log(4)
    expect = (f_weight(math.log(2) / log4) ** 2 / 2
              + f_weight(math.log(3) / log4) ** 2 / 3)
    assert bundle.s1 == pytest.approx(expect, abs=1e-15)
    expect = (f_weight(math.log(2) / log4) / 2
              + f_weight(math.log(3) / log4) / 3)
    assert bundle.s2 == pytest.approx(expect, abs=1e-15)


def test_euler_constant_against_richardson_oracle():
    # stated oracle: H_N - log N with Richardson extrapolation
    def a(N):
        return float(np.sum(1.0 / np.arange(1, N + 1))) - math.log(N)

    # two Richardson levels kill the 1/(2N) and 1/(12N^2) terms
    N = 20_000
    r1 = [2 * a(2 * N) - a(N), 2 * a(4 * N) - a(2 * N)]
    oracle = (4 * r1[1] - r1[0]) / 3
    # the constant as the closed form uses it: the bracket minus its other
    # terms
    x = 10 ** 4
    ds, _ = prime_power_double_sum(lambda m: 1.0 / m)
    rest = (-math.log(math.log(x)) + math.log(math.pi / 2)
            - math.pi ** 2 / 8 + 1.0 + ds)
    assert rest - closed_form_S1_minus_2S2(x) == pytest.approx(oracle,
                                                               abs=1e-12)


def test_closed_form_shares_double_sum(prime_table_1e6):
    # the double-sum term of the closed form is the shared implementation
    ds, _ = prime_power_double_sum(lambda m: 1.0 / m)
    x = 10 ** 4
    manual = (-math.log(math.log(x)) + math.log(math.pi / 2)
              - math.pi ** 2 / 8 + 1.0 - np.euler_gamma + ds)
    assert closed_form_S1_minus_2S2(x) == pytest.approx(manual, abs=1e-15)


def test_closed_form_linear_in_euler_constant():
    # perturbing the constant by +0.1 shifts the value by exactly -0.1
    x = 10 ** 4
    base = closed_form_S1_minus_2S2(x)
    ds, _ = prime_power_double_sum(lambda m: 1.0 / m)
    perturbed = (-math.log(math.log(x)) + math.log(math.pi / 2)
                 - math.pi ** 2 / 8 + 1.0 - (np.euler_gamma + 0.1) + ds)
    assert base - perturbed == pytest.approx(0.1, abs=1e-14)


def test_closed_form_domain():
    for x in (8, math.nan, math.inf):
        with pytest.raises(DomainError):
            closed_form_S1_minus_2S2(x)
