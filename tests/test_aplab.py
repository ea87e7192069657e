import math

import numpy as np
import pytest

from narrowlab import aplab as ap
from narrowlab import numtheory as nt
from narrowlab.errors import DomainError


def test_lambda_d_constant_and_indicator():
    n = 101
    ones = np.ones(n)
    assert ap.lambda_D([ones, ones, ones], 10) == 1.0
    spike = np.zeros(n)
    spike[0] = 1.0
    assert abs(ap.lambda_D([spike, ones, ones], 10) - 1.0 / n) < 1e-15


def test_lambda_d_matches_bruteforce():
    rng = np.random.default_rng(0)
    for trial in range(8):
        n = int(rng.integers(50, 211))
        k = int(rng.integers(2, 5))
        D = int(rng.integers(1, 20))
        fs = [rng.integers(0, 2, size=n).astype(float) for _ in range(k)]
        got = ap.lambda_D(fs, D)
        brute = 0.0
        for d in range(1, D + 1):
            for start in range(n):
                prod = 1.0
                for j in range(k):
                    prod *= fs[j][(start + j * d) % n]
                brute += prod
        brute /= n * D
        assert abs(got - brute) < 1e-12, trial


def test_lambda_d_validation():
    ones = np.ones(50)
    with pytest.raises(DomainError):
        ap.lambda_D([], 5)
    with pytest.raises(DomainError):
        ap.lambda_D([ones, np.ones(51)], 5)
    with pytest.raises(DomainError):
        ap.lambda_D([ones, ones], 0)
    with pytest.raises(DomainError):
        ap.lambda_D([ones, ones], 50)


def test_count_small_cases(sieve_2m):
    assert ap.count_aps_with_difference(10, 3, 2, sieve_2m) == 1
    assert ap.count_aps_with_difference(10, 3, 1, sieve_2m) == 0
    assert ap.count_aps_with_difference(10, 2, 2, sieve_2m) == 2
    with pytest.raises(DomainError):
        ap.count_aps_with_difference(10, 3, 0, sieve_2m)


def test_count_monotone_in_N(sieve_2m):
    small = ap.count_aps_with_difference(10 ** 5, 3, 6, sieve_2m)
    large = ap.count_aps_with_difference(10 ** 6, 3, 6, sieve_2m)
    assert 0 < small < large


def test_hl_prediction_values():
    twin = ap.hl_prediction(10 ** 6, 2, 2)
    assert abs(twin.singular_value - 1.3203236394309115) < 5e-5
    assert twin.value > 0 and twin.crude > 0
    assert twin.value > twin.crude
    occupied = ap.hl_prediction(10 ** 6, 3, 2)
    assert occupied.singular_value == 0.0 and occupied.value == 0.0
    odd = ap.hl_prediction(10 ** 6, 3, 3)
    assert odd.value == 0.0
    six = ap.hl_prediction(10 ** 6, 3, 6)
    assert abs(six.singular_value - 5.716510949807829) < 1e-12


def test_prediction_tracks_counts(sieve_2m):
    rep = ap.ap_count_report(10 ** 6, 3, 6, sieve_2m)
    assert rep.count > 0
    assert 0.9 < rep.ratio < 1.1
    crude_ratio = rep.count / ap.hl_prediction(10 ** 6, 3, 6).crude
    assert crude_ratio > 1.2


def test_prime_signal_properties(sieve_2m):
    nprime = 10 ** 5 + 3
    f = ap.prime_signal(sieve_2m, nprime)
    assert f.shape == (nprime,)
    assert 0.9 < float(f.mean()) < 1.1
    log_n = math.log(nprime)
    nz = np.nonzero(f)[0]
    assert int(nz.min()) >= math.isqrt(nprime)
    assert all(sieve_2m.is_prime(int(i)) for i in nz[:50])
    assert float(f[nz[0]]) == log_n


def test_lambda_d_positive_on_prime_signal(sieve_2m):
    nprime = 10 ** 5 + 3
    f = ap.prime_signal(sieve_2m, nprime)
    D = math.ceil(math.log(nprime) ** 4)
    assert ap.lambda_D([f, f, f], D) > 0.0


def test_narrowness_ladder(sieve_2m):
    rep = ap.narrowness_report([10 ** 5, 10 ** 6], 3, 0.0, None, sieve_2m)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert 1 <= row.min_d <= row.median_d
        assert row.log_pow_high == pytest.approx(math.log(row.N) ** 4, rel=1e-12)
        assert row.min_d <= row.log_pow_high
        assert row.ratio_high == pytest.approx(
            row.min_d / row.log_pow_high, rel=1e-12
        )
        assert row.ratio_low == pytest.approx(
            row.min_d / row.log_pow_low, rel=1e-12
        )


def test_narrowness_k2_minimal_gap(sieve_2m):
    rep = ap.narrowness_report([1000], 2, 0.0, None, sieve_2m)
    assert rep.rows[0].min_d == 1


def test_subset_rule(sieve_2m):
    rule = ap.SubsetRule(modulus=3, classes=(1,))
    assert rule.prime_density == 0.5
    rep = ap.narrowness_report([10 ** 5], 3, 0.3, rule, sieve_2m)
    assert rep.rows[0].min_d >= 1
    with pytest.raises(DomainError):
        ap.SubsetRule(modulus=0, classes=(1,))
    with pytest.raises(DomainError):
        ap.SubsetRule(modulus=3, classes=())


def test_subset_rule_mask_is_the_residue_definition():
    cases = [(8, (1, 3), upto) for upto in (0, 1, 7, 8, 9, 12345)]
    cases += [(1, (0,), 10), (3, (2,), 100), (30, (1, 7, 11, 13), 999)]
    for m, classes, upto in cases:
        want = np.isin(np.arange(upto + 1, dtype=np.int64) % m, classes)
        got = ap.SubsetRule(modulus=m, classes=classes).mask(upto)
        assert got.dtype == bool and np.array_equal(got, want)


def test_narrowness_validation(sieve_2m):
    with pytest.raises(DomainError):
        ap.narrowness_report([], 3, 0.0, None, sieve_2m)
    with pytest.raises(DomainError):
        ap.narrowness_report([1000], 1, 0.0, None, sieve_2m)
    with pytest.raises(DomainError):
        ap.narrowness_report([10 ** 7], 3, 0.0, None, sieve_2m)
    with pytest.raises(DomainError, match="overflows"):
        ap.narrowness_report([10 ** 5], 40, 0.0, None, sieve_2m)


def _rolled_cyclic_count(flags, k, D):
    total = 0
    for d in range(1, D + 1):
        v = flags.copy()
        for j in range(1, k):
            v &= np.roll(flags, -j * d)
        total += int(np.count_nonzero(v))
    return total


def test_lambda_d_prime_signal_is_a_scaled_count(sieve_2m):
    nprime = 10007
    f = ap.prime_signal(sieve_2m, nprime)
    flags = np.zeros(nprime, dtype=bool)
    primes = nt._bootstrap_primes(nprime - 1)
    flags[primes[primes > math.isqrt(nprime - 1)]] = True
    for k, D in ((2, 300), (3, 500), (4, 200)):
        count = _rolled_cyclic_count(flags, k, D)
        want = math.log(nprime) ** k * count / (nprime * D)
        assert ap.lambda_D([f] * k, D) == pytest.approx(want, rel=1e-12), k


def test_count_reuses_packed_primes():
    # Counts below the memo's cover read the same words and match the
    # packed count over a freshly built prime mask.
    sieve = nt.build_factor_sieve(10 ** 5)
    mask = sieve.prime_mask(10 ** 5)
    words = None
    for d in (30, 12, 6, 2):
        got = ap.count_aps_with_difference(50000, 3, d, sieve)
        assert got == ap.ap_count(mask[:50001 + 2 * d], 3, d), d
        words = sieve.packed_primes(50060) if words is None else words
        assert sieve.packed_primes(50060) is words


def test_count_with_no_first_term_is_zero(sieve_2m):
    # N < 0 leaves no p <= N, while N + (k-1)d stays inside the sieve.
    assert ap.count_aps_with_difference(-5, 3, 10, sieve_2m) == 0
