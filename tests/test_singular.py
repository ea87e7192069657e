import functools
import itertools
import math
import time

import numpy as np
import pytest

from narrowlab import aplab as ap
from narrowlab import limits
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
    assert sg.as_shift(h) is h
    with pytest.raises(DomainError):
        sg.ShiftVector(entries=())


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
    for sample in (100, None):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            sg.gallagher_average("E", ((1, 5), (1, 5)), sample=sample, seed=-1)


def _weight(weight, W, P_max, C):
    if weight == "GW":
        return lambda point: sg.singular_series(point, P_max=P_max, W=W).value
    return lambda point: sg.error_factor(point, C).value


def _pointwise_average(weight, box, W=1, P_max=sg.DEFAULT_PMAX, C=1.0):
    """The weight summed point by point over the box, no grouping."""
    g = _weight(weight, W, P_max, C)
    total = 0.0
    count = 0
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        total += g(point)
        count += 1
    return total / count


def _pair_average(weight, box, W=1, P_max=sg.DEFAULT_PMAX, C=1.0):
    """The pair-only exact path that the difference classes replaced."""
    g = _weight(weight, W, P_max, C)
    (lo1, hi1), (lo2, hi2) = box
    total = 0.0
    cache = {}
    for d1 in range(lo1 - hi2, hi1 - lo2 + 1):
        overlap = min(hi1, hi2 + d1) - max(lo1, lo2 + d1) + 1
        if overlap <= 0:
            continue
        a = abs(d1)
        if a not in cache:
            cache[a] = g((0, a))
        total += overlap * cache[a]
    return total / ((hi1 - lo1 + 1) * (hi2 - lo2 + 1))


@pytest.mark.parametrize("box", [
    ((-3, 7),),
    ((4, 4),),
    ((-5, 9), (2, 13)),
    ((0, 0), (-6, 11)),
    ((-4, 3), (2, 2), (-1, 6)),
    ((1, 9), (-3, 4), (0, 12)),
    ((-2, 3), (0, 4), (5, 5), (-3, 1)),
    ((0, 5), (-2, 2), (1, 4), (0, 3)),
])
def test_gallagher_difference_classes_match_the_point_loop(box):
    for weight in ("GW", "E"):
        for W in (1, 6):
            rep = sg.gallagher_average(weight, box, W=W, P_max=1000, C=0.7)
            want = _pointwise_average(weight, box, W=W, P_max=1000, C=0.7)
            assert rep.mode == "exact" and rep.stderr == 0.0
            assert rep.n_points == math.prod(hi - lo + 1 for lo, hi in box)
            assert rep.mean == pytest.approx(want, rel=1e-12, abs=0.0), (weight, W)
            assert rep.abs_dev == abs(rep.mean - 1.0)


def test_gallagher_pairs_are_bit_identical_to_the_pair_loop():
    boxes = [((1, 500), (1, 500)), ((1, 20), (1, 20)), ((-7, 30), (3, 11)),
             ((5, 5), (-9, 40)), ((0, 9), (0, 9))]
    for box in boxes:
        for W in (1, 2, 6, 30, 210):
            assert (sg.gallagher_average("GW", box, W=W).mean
                    == _pair_average("GW", box, W=W)), (box, W)
        assert (sg.gallagher_average("E", box, C=0.5).mean
                == _pair_average("E", box, C=0.5)), box


def _canonical_rows(box):
    """Each point's differences x_1 - x_i, sorted and translated to start
    at 0, as distinct rows with their counts."""
    axes = np.meshgrid(*(np.arange(lo, hi + 1) for lo, hi in box), indexing="ij")
    points = np.stack([a.ravel() for a in axes], axis=1)
    diffs = np.sort(points[:, :1] - points, axis=1)
    return np.unique(diffs - diffs[:, :1], axis=0, return_counts=True)


@pytest.mark.parametrize("box", [((1, 60),) * 3, ((1, 60), (-4, 50), (3, 70))])
def test_gallagher_triples_weigh_each_class_once(monkeypatch, box):
    rows, counts = _canonical_rows(box)
    want = math.fsum(int(c) * sg.singular_series(tuple(int(v) for v in row),
                                                 W=6).value
                     for row, c in zip(rows, counts)) / counts.sum()
    seen = []
    series = sg.singular_series

    def counted(h, **kwargs):
        seen.append(tuple(h))
        return series(h, **kwargs)

    monkeypatch.setattr(sg, "singular_series", counted)
    rep = sg.gallagher_average("GW", box, W=6)
    assert rep.mode == "exact" and rep.n_points == counts.sum()
    assert rep.mean == pytest.approx(want, rel=1e-12, abs=0.0)
    assert sorted(seen) == [tuple(int(v) for v in row) for row in rows]


def test_gallagher_walks_only_nonempty_classes():
    # (0..1)^14 has 3^13 = 1,594,323 difference vectors but 16,384 points,
    # and only the vectors some point realises are walked.
    dims = ((0, 1),) * 14
    classes = functools.reduce(sg._refine, dims[1:], [((), *dims[0])])
    sizes = {s: top - bottom + 1 for s, bottom, top in classes}
    points = np.array(list(itertools.product((0, 1), repeat=14)))
    diffs, counts = np.unique(points[:, :1] - points[:, 1:], axis=0,
                              return_counts=True)
    assert sizes == {tuple(int(v) for v in s): int(c)
                     for s, c in zip(diffs, counts)}
    rep = sg.gallagher_average("E", dims, C=1.0)
    assert rep.n_points == 2 ** 14


def test_gallagher_size_caps():
    wide = ((1, 1),) * (limits.MAX_BOX_DIM + 1)
    with pytest.raises(ResourceError, match=f"cap of {limits.MAX_BOX_DIM}"):
        sg.gallagher_average("GW", wide)
    sg.gallagher_average("GW", wide[1:])
    with pytest.raises(ResourceError, match=f"cap of {limits.MAX_SAMPLE_ENTRIES}"):
        sg.gallagher_average("E", ((1, 5), (1, 5)),
                             sample=limits.MAX_SAMPLE_ENTRIES // 2 + 1)


def test_bounded_prime_search_returns_at_once():
    q = 10 ** 9 + 7
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"largest prime factor {q} of"):
        sg.singular_series((0, q, 2 * q))
    with pytest.raises(DomainError, match=r"prime factor \(a factor of 1000000007\)"):
        sg.singular_series((0, q, 2 * q), P_max=100)
    # Primes of W above P_max touch no factor, squared or not.
    plain = sg.singular_series((0, 2), P_max=100).value
    assert sg.singular_series((0, 2), P_max=100, W=2 ** 61 - 1).value == plain
    assert sg.singular_series((0, 2), P_max=100, W=101 ** 2).value == plain
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError, match="squarefree"):
        sg.singular_series((0, 2), P_max=100, W=97 ** 2)


def test_least_root_is_shared_by_powers():
    for m in (7, 12, 10 ** 9 + 7, 3 * 10 ** 6 + 1):
        for e in (1, 2, 3, 6):
            assert sg._least_root(m ** e, 5) == m
    assert sg._least_root(2 ** 64, 1) == 2


def test_p_max_cap_refuses_before_any_prime_is_sieved(monkeypatch):
    def refuse(upto):
        raise AssertionError(f"sieved primes up to {upto}")

    over = limits.MAX_PMAX + 1
    monkeypatch.setattr(sg, "_bootstrap_primes", refuse)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=f"cap of {limits.MAX_PMAX}"):
        sg.singular_series((0, 2), P_max=over)
    with pytest.raises(ResourceError, match=f"cap of {limits.MAX_PMAX}"):
        sg.gallagher_average("GW", ((1, 500), (1, 500)), P_max=over)
    with pytest.raises(ResourceError, match=f"cap of {limits.MAX_PMAX}"):
        ap.hl_prediction(10 ** 7, 3, 6, P_max=over)
    assert time.perf_counter() - start < 1.0
    # The E weight reads no truncation, so P_max does not bound it.
    assert sg.gallagher_average("E", ((1, 3), (1, 3)), P_max=over).mode == "exact"


def test_delta_cap_of_the_error_weight():
    assert sg.error_factor((0, limits.MAX_DELTA), 1.0).prime_inverse_sum == 1 / 2 + 1 / 5
    with pytest.raises(ResourceError, match=f"cap of {limits.MAX_DELTA}"):
        sg.error_factor((0, limits.MAX_DELTA + 1), 1.0)
    # The box bound is the product of each pair's largest difference.
    edge = 10 ** 4
    sg.check_delta_bound(((0, edge),) * 3)
    sg.check_delta_bound(((0, limits.MAX_DELTA), (0, 0)))
    for box in (((0, edge + 1),) * 3, ((0, limits.MAX_DELTA + 1), (0, 0)),
                ((-limits.MAX_DELTA, 0), (1, 1))):
        with pytest.raises(ResourceError, match=f"cap of {limits.MAX_DELTA}"):
            sg.check_delta_bound(box)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=f"cap of {limits.MAX_DELTA}"):
        sg.gallagher_average("E", ((1, 10 ** 18), (1, 10 ** 18)), sample=100)
    assert time.perf_counter() - start < 1.0
    # Every point of a box within the bound has |Delta| within the cap.
    rep = sg.gallagher_average("E", ((0, edge),) * 3, C=1.0, sample=50, seed=3)
    assert rep.mode == "sample" and rep.mean >= 1.0
