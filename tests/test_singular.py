import math

import numpy as np
import pytest

from narrowlab import numtheory as nt
from narrowlab import singular as sg
from narrowlab.errors import DomainError, ResourceError


def _primes_to(bound, sieve):
    return [int(p) for p in sieve.primes(bound)]


def _direct_series(h, P_max, W, sieve):
    """Straight truncated product of local factors, no regrouping."""
    entries = tuple(h)
    r = len(set(entries))
    value = 1.0
    for p in _primes_to(P_max, sieve):
        if W % p == 0:
            continue
        nu = len({v % p for v in entries})
        value *= (1.0 - 1.0 / p) ** (-r) * (1.0 - nu / p)
    return value


@pytest.fixture(scope="module")
def sieve():
    return nt.build_factor_sieve(10 ** 5)


def test_shift_vector_structure():
    h = sg.as_shift((0, 2, 2, 5))
    assert h.k == 4 and h.r == 3
    assert h.multiplicities == {0: 1, 2: 2, 5: 1}
    assert sg.as_shift(h) is h
    with pytest.raises(DomainError):
        sg.ShiftVector(entries=())


def test_occupied_residues():
    assert sg.occupied_residues((0, 2), 2) == 1
    assert sg.occupied_residues((0, 2), 3) == 2
    assert sg.occupied_residues((0, 2, 4), 3) == 3
    with pytest.raises(DomainError):
        sg.occupied_residues((0, 2), 4)


def test_delta():
    assert sg.delta((0, 2)) == -2
    assert sg.delta((2, 0)) == 2
    assert sg.delta((0, 0)) == 1
    assert sg.delta((0, 2, 5)) == (0 - 2) * (0 - 5) * (2 - 5)
    assert sg.delta((5,)) == 1


def test_twin_series_against_twin_constant_oracle(sieve):
    got = sg.singular_series((0, 2), P_max=10 ** 5)
    oracle = 2.0
    for p in _primes_to(10 ** 5, sieve):
        if p == 2:
            continue
        oracle *= 1.0 - 1.0 / (p - 1) ** 2
    assert abs(got.value - oracle) < 1e-12
    assert abs(got.value - 1.3203236394309115) < 5e-5
    assert got.tail_bound == math.exp(4.0 / 10 ** 5) - 1.0


def test_fully_occupied_prime_gives_zero():
    assert sg.singular_series((0, 1)).value == 0.0
    assert sg.singular_series((0, 2, 4)).value == 0.0
    assert sg.singular_series((0, 1, 2)).value == 0.0


def test_series_matches_direct_product(sieve):
    cases = [
        ((0, 2), 1),
        ((0, 6, 12), 1),
        ((0, 6), 6),
        ((0, 4, 6), 1),
        ((0, 0, 6), 1),
        ((3, 9, 21), 2),
    ]
    for h, W in cases:
        got = sg.singular_series(h, P_max=10 ** 5, W=W).value
        want = _direct_series(h, 10 ** 5, W, sieve)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (h, W, got, want)


# singular_series values at P_max = 10^5, frozen bit for bit.
_PINNED_SERIES = {
    ((0, 2), 1): 1.3203246909334732,
    ((0, 2), 30): 0.9388975579971365,
    ((0, 2, 6), 1): 2.8582554749039146,
    ((0, 2, 6), 6): 0.6351678833119812,
    ((0, 4, 6, 10), 1): 8.302401690630424,
    ((0, 4, 6, 10), 30): 0.6297525430522635,
    ((0, 0, 2), 1): 1.320324690933473,
    ((0, 1), 1): 0.0,
    ((0, 1), 6): 0.8802164606223154,
    ((0, 6, 12, 18, 24), 6): 0.0,
    ((0, 6, 12, 18, 24), 30): 0.40987817338681704,
}


def test_frozen_values():
    assert abs(sg.singular_series((0, 6), P_max=10 ** 5, W=6).value
               - 0.8802164606223154) < 1e-12
    assert abs(sg.singular_series((0, 6, 12), P_max=10 ** 5).value
               - 5.716510949807829) < 1e-12
    for (h, W), want in _PINNED_SERIES.items():
        assert sg.singular_series(h, W=W).value == want, (h, W)


def test_generic_product_is_memoised():
    sg.singular_series((0, 2, 6), W=30)
    before = sg._generic_product.cache_info()
    sg.singular_series((0, 2, 6), W=30)
    after = sg._generic_product.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses


def test_shift_and_permutation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        h = [int(v) for v in rng.integers(-30, 31, size=k)]
        base = sg.singular_series(h, P_max=10 ** 4).value
        c = int(rng.integers(-40, 41))
        shifted = sg.singular_series([v + c for v in h], P_max=10 ** 4).value
        perm = [h[i] for i in rng.permutation(k)]
        permuted = sg.singular_series(perm, P_max=10 ** 4).value
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-15)
        assert permuted == pytest.approx(base, rel=1e-12, abs=1e-15)


def test_series_domain_errors():
    with pytest.raises(DomainError):
        sg.singular_series((0, 2), W=4)
    with pytest.raises(DomainError):
        sg.singular_series((0, 2), W=0)
    with pytest.raises(DomainError):
        sg.singular_series((0, 1, 2), P_max=2)
    with pytest.raises(DomainError):
        sg.singular_series((0, 101), P_max=50)


def test_error_factor():
    e = sg.error_factor((0, 2), 1.5)
    assert e.prime_inverse_sum == 0.5
    assert e.value == pytest.approx(math.exp(0.75), rel=1e-15)
    assert sg.error_factor((0, 0), 2.0).value == 1.0
    with pytest.raises(DomainError):
        sg.error_factor((0, 2), 0.0)


def test_gallagher_exact_matches_direct_loop():
    box = ((1, 20), (1, 20))
    rep = sg.gallagher_average("GW", box, W=3, P_max=1000)
    assert rep.mode == "exact" and rep.n_points == 400
    total = 0.0
    for x1 in range(1, 21):
        for x2 in range(1, 21):
            total += sg.singular_series((x1, x2), P_max=1000, W=3).value
    want = total / 400
    assert abs(rep.mean - want) < 1e-10
    assert rep.abs_dev == abs(rep.mean - 1.0)


def test_gallagher_error_weight_exact():
    box = ((0, 9), (0, 9))
    rep = sg.gallagher_average("E", box, C=0.5)
    total = 0.0
    for x1 in range(10):
        for x2 in range(10):
            total += sg.error_factor((x1, x2), 0.5).value
    assert abs(rep.mean - total / 100) < 1e-10


def test_gallagher_sampling_reproducible():
    box = ((1, 500), (1, 500), (1, 500))
    a = sg.gallagher_average("E", box, C=1.0, sample=300, seed=9)
    b = sg.gallagher_average("E", box, C=1.0, sample=300, seed=9)
    assert a.mode == "sample" and a.stderr > 0.0
    assert a.mean == b.mean and a.stderr == b.stderr


def test_gallagher_resource_and_domain_errors():
    big = ((1, 500), (1, 500), (1, 500))
    with pytest.raises(ResourceError):
        sg.gallagher_average("E", big)
    with pytest.raises(DomainError):
        sg.gallagher_average("E", big, sample=1)
    with pytest.raises(DomainError):
        sg.gallagher_average("XX", ((0, 1),))
    with pytest.raises(DomainError):
        sg.gallagher_average("E", ((3, 2),))
    with pytest.raises(DomainError, match="box needs at least one coordinate"):
        sg.gallagher_average("GW", ())
