import pathlib

import pytest

from szeta.primes import build_prime_table
from szeta.zeros import find_zeros, import_zeros


@pytest.fixture(scope="session")
def zeros_120():
    return find_zeros(120.0)


@pytest.fixture(scope="session")
def zeros_220():
    return find_zeros(220.0)


@pytest.fixture(scope="session")
def zeros_1010():
    return find_zeros(1010.0)


@pytest.fixture(scope="session")
def zeros_2510():
    return find_zeros(2510.0)


@pytest.fixture(scope="session")
def zeros_10k():
    return find_zeros(10010.0)


@pytest.fixture(scope="session")
def zeros_ref():
    # the benchmark's reference ordinates below 10010, refined with mpmath:
    # fixed bits, whatever the zero finder's polish does
    ref = (pathlib.Path(__file__).resolve().parents[1]
           / "perfbench" / "data" / "zeros_t10010.txt")
    return import_zeros(ref.read_text(encoding="ascii"))


@pytest.fixture(scope="session")
def prime_table_small():
    return build_prime_table(3000)


@pytest.fixture(scope="session")
def prime_table_1e6():
    return build_prime_table(10 ** 6)
