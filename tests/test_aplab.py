import math
import time

import numpy as np
import pytest

from narrowlab import aplab as ap
from narrowlab import limits
from narrowlab import numtheory as nt
from narrowlab.errors import DomainError, ResourceError
from test_kernels import _packed_ap_count


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


@pytest.mark.parametrize("D", [2.5, "3", math.nan, math.inf])
def test_lambda_d_rejects_non_integer_difference_cap(D):
    ones = np.ones(50)
    with pytest.raises(DomainError, match="integer"):
        ap.check_difference_cap(D, 50)
    with pytest.raises(DomainError, match="integer"):
        ap.lambda_D([ones, ones], D)


def test_lambda_d_term_cap():
    ones = np.ones(50)
    assert ap.lambda_D([ones] * limits.MAX_TERMS, 5) == 1.0
    with pytest.raises(ResourceError, match="cap of 16"):
        ap.lambda_D([ones] * (limits.MAX_TERMS + 1), 5)


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
    assert all(nt.is_prime(int(i)) for i in nz[:50])
    assert float(f[nz[0]]) == log_n


def test_prime_signal_of_two_is_zero():
    # [sqrt 2, 2) holds no integer, so no prime mask is needed or built.
    f = ap.prime_signal(nt.build_factor_sieve(2), 2)
    assert f.dtype == np.float64 and f.tolist() == [0.0, 0.0]


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


def test_subset_rule_matches_the_full_period_loops():
    # The density and mask before the modulus was capped: phi(m) counted
    # over 1..m, and an m-entry keep pattern tiled over the range.
    rng = np.random.default_rng(2023)
    for m in range(1, 501):
        classes = rng.integers(-m, 2 * m, size=rng.integers(1, 6)).tolist()
        rule = ap.SubsetRule(modulus=m, classes=classes)
        kept = sorted({c % m for c in classes})
        units = sum(1 for c in kept if math.gcd(c, m) == 1)
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        assert rule.prime_density == units / phi, m
        keep = np.zeros(m, dtype=bool)
        keep[kept] = True
        for upto in (int(rng.integers(0, m)), int(rng.integers(m, 3 * m))):
            size = upto + 1
            want = np.tile(keep, -(-size // m))[:size]
            assert np.array_equal(rule.mask(upto), want), (m, upto)


def test_subset_rule_mask_rejects_a_negative_bound():
    rule = ap.SubsetRule(modulus=8, classes=(1, 3))
    for upto in (-1, -2, -3, -(2 ** 40)):
        with pytest.raises(DomainError, match=f"got {upto}"):
            rule.mask(upto)
    assert rule.mask(0).tolist() == [False]


def test_subset_rule_modulus_cap():
    start = time.perf_counter()
    top = ap.SubsetRule(modulus=limits.SIEVE_RANGE - 1, classes=(1,))
    assert top.prime_density == 1 / 2 ** 31   # phi(2^32 - 1) = 2^31
    assert top.mask(10).tolist() == [False, True] + [False] * 9
    with pytest.raises(ResourceError, match="below 4294967296"):
        ap.SubsetRule(modulus=limits.SIEVE_RANGE, classes=(1,))
    assert time.perf_counter() - start < 0.5


def test_narrowness_validation(sieve_2m):
    with pytest.raises(DomainError):
        ap.narrowness_report([], 3, 0.0, None, sieve_2m)
    with pytest.raises(DomainError):
        ap.narrowness_report([1000], 1, 0.0, None, sieve_2m)
    with pytest.raises(DomainError):
        ap.narrowness_report([10 ** 7], 3, 0.0, None, sieve_2m)
    with pytest.raises(DomainError, match="overflows"):
        ap.narrowness_report([10 ** 5], 40, 0.0, None, sieve_2m)
    for N in (1, 0, -7):
        with pytest.raises(DomainError, match="needs N > 1"):
            ap.narrowness_report([N], 3, 0.0, None, sieve_2m)


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
        assert got == _packed_ap_count(mask[:50001 + 2 * d], 3, d), d
        words = sieve.packed_primes(50060) if words is None else words
        assert sieve.packed_primes(50060) is words


def test_count_with_no_first_term_is_zero(sieve_2m):
    # N < 0 leaves no p <= N, while N + (k-1)d stays inside the sieve.
    assert ap.count_aps_with_difference(-5, 3, 10, sieve_2m) == 0


def test_sieve_limits_validate_before_any_sieve():
    assert ap.count_sieve_limit(1000, 3, 6) == 1012
    assert ap.count_sieve_limit(-5, 3, 10) == 15
    for k, d in ((0, 6), (3, 0)):
        with pytest.raises(DomainError):
            ap.count_sieve_limit(1000, k, d)
    assert ap.narrowness_sieve_limit([1000], 2) == 1000 + math.ceil(math.log(1000))
    rule = ap.SubsetRule(modulus=4, classes=(2,))   # no odd prime is 2 mod 4
    for ladder, k, delta, bad_rule in (([], 3, 0.0, None), ([10 ** 4], 1, 0.0, None),
                                       ([10 ** 4, 1], 3, 0.0, None),
                                       ([10 ** 4], 3, 0.3, rule)):
        with pytest.raises(DomainError):
            ap.narrowness_sieve_limit(ladder, k, delta, bad_rule)


def test_hl_prediction_rejects_k_past_p_max_before_its_shifts(monkeypatch):
    def forbidden(h):
        raise AssertionError("the k shifts were built")
    monkeypatch.setattr(ap, "as_shift", forbidden)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="P_max=100000 must be at least k=2147483648"):
        ap.hl_prediction(10 ** 6, 2 ** 31, 1)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError, match="P_max=2 must be at least k=3"):
        ap.hl_prediction(10 ** 6, 3, 2, P_max=2)
    # 5 does not divide 6, so the series is exactly 0 with no shift built.
    start = time.perf_counter()
    pred = ap.hl_prediction(10 ** 6, 2 ** 31, 6, P_max=2 ** 32)
    assert time.perf_counter() - start < 1.0
    assert (pred.value, pred.crude, pred.singular_value) == (0.0, 0.0, 0.0)


def _prediction_or_error(N, k, d, P_max):
    try:
        return ap.hl_prediction(N, k, d, P_max=P_max)
    except DomainError as exc:
        return type(exc), str(exc)


def test_hl_prediction_early_zero_matches_the_full_path(monkeypatch):
    # A prime p <= k not dividing d makes the singular series exactly 0;
    # the early return must give the full path's fields, or its error.
    N = 10 ** 6
    early = {(k, d, P_max): _prediction_or_error(N, k, d, P_max)
             for k in range(2, 9) for d in range(1, 301)
             for P_max in (k, 7, 100, 10 ** 5)}
    monkeypatch.setattr(ap, "_missed_prime", lambda k, d: None)
    for (k, d, P_max), got in early.items():
        assert got == _prediction_or_error(N, k, d, P_max), (k, d, P_max)
    zeros = sum(isinstance(r, ap.HLPrediction) and r.singular_value == 0.0
                for r in early.values())
    errors = sum(isinstance(r, tuple) for r in early.values())
    assert zeros > 3000 and errors > 3000 and len(early) - zeros - errors > 500
    with pytest.raises(DomainError, match="largest prime factor 7"):
        ap.hl_prediction(N, 3, 7, P_max=5)


def test_hl_prediction_uses_the_uncached_log_integral():
    # _log_integral is cached on (N, k); the value must be the one the
    # uncached integral gives, on the first call and on a cached one.
    for N, k in ((10 ** 6, 3), (10 ** 7, 3), (1000, 4), (10 ** 6, 5)):
        for d in (6, 30, 210, 12):
            for _ in range(2):
                pred = ap.hl_prediction(N, k, d)
                want = pred.singular_value * ap._log_integral.__wrapped__(N, k)
                assert pred.value == want, (N, k, d)


def test_prime_ap_count_matches_the_general_sweep(sieve_2m):
    # Where a prime q <= k does not divide d, only the starts q - j*d are
    # read; every count must equal the full sweep over the same words,
    # from N = -3 (no start) through q - 1, q and q + 1 for each prime
    # q <= 8 up to 2*10^5.
    words = sieve_2m.packed_primes(2 * 10 ** 5 + 7 * 400)
    rng = np.random.default_rng(29)
    ladder = sorted({*range(-3, 10), 97, 1000, 2 * 10 ** 5,
                     *(int(N) for N in rng.integers(10, 2 * 10 ** 5, size=3))})
    fast = hits = 0
    for k in range(1, 9):
        for d in range(1, 401):
            missed = ap._missed_prime(k, d) is not None
            fast += missed
            for N in ladder:
                got = ap._prime_ap_count(words, N + 1, k, d)
                assert got == ap.packed_ap_count(words, N + 1, k, d), (N, k, d)
                hits += missed and got > 0
    assert fast > 2000 and hits > 100


def _rows_or_error(ladder, k, rule, sieve):
    try:
        return ap.narrowness_report(ladder, k, 0.0, rule, sieve).rows
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("rule", [None, (8, (1, 3)), (4, (3,))])
def test_narrowness_rows_match_the_general_sweep(sieve_2m, monkeypatch, rule):
    # With _missed_prime patched to None every d takes the full sweep;
    # the rows must not move.  Small N scan hundreds of d, most of them
    # on the prime-only path.
    rule = rule and ap.SubsetRule(modulus=rule[0], classes=rule[1])
    cases = [(ladder, k) for k in (2, 3) for ladder in ([30], [100], [1000], [10 ** 4, 10 ** 5])]
    fast = [_rows_or_error(ladder, k, rule, sieve_2m) for ladder, k in cases]
    monkeypatch.setattr(ap, "_missed_prime", lambda k, d: None)
    for (ladder, k), got in zip(cases, fast):
        assert got == _rows_or_error(ladder, k, rule, sieve_2m), (ladder, k)
    assert sum(isinstance(rows, tuple) for rows in fast) >= 6


def test_huge_k_is_rejected_before_its_exponent_is_built():
    for k in (20000, 2 ** 31):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"overflows a float at k={k}"):
            ap.narrowness_sieve_limit([1000], k)
        assert time.perf_counter() - start < 2.0
    assert ap.narrow_exponent(20000) == 19999 << 19998
    # L_1016 is the last exponent inside the float range: (log 2)^L_1016
    # underflows to 0 without error, as it did before the k check.
    assert ap.narrow_width(2, 1016) == 0.0
    with pytest.raises(DomainError, match="at k=1017"):
        ap.narrow_width(2, 1017)
    # Its 309 digits stay out of the overflow message.
    with pytest.raises(DomainError, match="about 10\\^308$") as err:
        ap.narrow_width(1009, 1016)
    assert len(str(err.value)) < 80


def test_narrowness_sieve_limit_is_what_the_report_needs():
    ladder = (3000, 1000)
    top = ap.narrowness_sieve_limit(ladder, 3)
    assert top == max(N + 2 * math.ceil(math.log(N) ** 4) for N in ladder)
    rep = ap.narrowness_report(ladder, 3, 0.0, None, nt.build_factor_sieve(top))
    assert [row.N for row in rep.rows] == list(ladder)
    with pytest.raises(DomainError, match="need sieve limit"):
        ap.narrowness_report(ladder, 3, 0.0, None, nt.build_factor_sieve(top - 1))
