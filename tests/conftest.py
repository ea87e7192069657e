import pytest

from narrowlab import numtheory


@pytest.fixture(scope="session")
def sieve_2m():
    """Shared factor sieve to 2 * 10^6 for the fast test modules."""
    return numtheory.build_factor_sieve(2 * 10 ** 6)
