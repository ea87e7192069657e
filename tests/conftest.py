import json

import pytest

import oracles
from narrowlab import numtheory as nt


@pytest.fixture(scope="session")
def sieve_2m():
    """Shared factor sieve to 2 * 10^6 for the fast test modules."""
    return nt.build_factor_sieve(2 * 10 ** 6)


@pytest.fixture(scope="session")
def spf_table():
    """Trial-division spf[0..4 WHEEL + 2], a prefix of which is every table
    the spf tests compare with."""
    return oracles.trial_spf(0, 4 * nt.WHEEL + 3)


@pytest.fixture(scope="session")
def benchmark_systems():
    return oracles.benchmark_systems()


@pytest.fixture(scope="session")
def recorded_walks():
    """The (t - 1) / codim closure walk's digests and explored counts by
    corpus cell, as oracles.record_walks wrote them."""
    return json.loads(oracles.WALKS_FILE.read_text())
