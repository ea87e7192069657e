import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from narrowlab import conditions as cd
from narrowlab import limits
from narrowlab import linforms as lf
from narrowlab.errors import DomainError, ResourceError
from test_linforms import _random_system


def test_box_region_basics():
    box = cd.BoxRegion(intervals=((-2, 3), (0, 0)))
    assert box.d == 2
    assert box.point_count == 6
    with pytest.raises(DomainError):
        cd.BoxRegion(intervals=())
    with pytest.raises(DomainError):
        cd.BoxRegion(intervals=((3, 2),))
    sym = cd.symmetric_box(3, 5)
    assert sym.intervals == ((-5, 5),) * 3
    assert sym.point_count == 11 ** 3
    with pytest.raises(DomainError):
        cd.symmetric_box(2, 0)


def test_exponent_pattern():
    e = cd.ExponentPattern(entries=(0, 1, 1))
    assert e.entries == (0, 1, 1)
    assert cd.ExponentPattern.all_ones(4).entries == (1, 1, 1, 1)
    with pytest.raises(DomainError):
        cd.ExponentPattern(entries=(0, 2))


def test_weight_models():
    one = cd.WeightModel.constant_one(101)
    assert one.kind == "one"
    rnd = cd.WeightModel.random(0.25, 3, 101)
    assert set(np.unique(rnd.values)) <= {0.0, 4.0}
    again = cd.WeightModel.random(0.25, 3, 101)
    assert np.array_equal(rnd.values, again.values)
    with pytest.raises(DomainError):
        cd.WeightModel.random(0.0, 0, 101)
    with pytest.raises(DomainError):
        cd.WeightModel.random(1.5, 0, 101)
    with pytest.raises(ResourceError):
        cd.WeightModel.random(0.5, 0, limits.MAX_RANDOM_MODULUS * 2 + 1)


@pytest.mark.parametrize("modulus", [0, -3])
def test_weight_model_modulus_below_one(modulus):
    with pytest.raises(DomainError, match="modulus must be >= 1"):
        cd.WeightModel.constant_one(modulus)
    with pytest.raises(DomainError, match="modulus must be >= 1"):
        cd.WeightModel.random(0.3, 1, modulus)


def test_weight_table_needs_one_weight_per_residue():
    # lfc_average_mc reads the weight of n mod N' by wrapping over the table.
    for size in (400, 402):
        with pytest.raises(DomainError, match="one per residue"):
            cd.WeightModel(kind="table", modulus=401, values=np.ones(size))


def test_constant_one_average_is_exactly_one():
    sys3 = lf.first_family(3)
    box = cd.symmetric_box(6, 50)
    one = cd.WeightModel.constant_one(10007)
    est = cd.lfc_average_mc(one, sys3, None, box, samples=2000, seed=1)
    assert est.estimate == 1.0 and est.stderr == 0.0
    # With no active form the product is empty, so every model gives 1.
    zeros = cd.ExponentPattern(entries=(0,) * 12)
    table = cd.WeightModel(kind="table", modulus=10007,
                           values=np.random.default_rng(2).random(10007) * 2)
    for model in (one, cd.WeightModel.random(0.3, 1, 10007), table):
        est0 = cd.lfc_average_mc(model, sys3, zeros, box, samples=2000, seed=1)
        assert est0.estimate == 1.0 and est0.stderr == 0.0


def test_duplicate_forms_always_collide():
    s1 = lf.LinearForm(coeffs=(1,), constant=0)
    s1x2 = lf.LinearForm(coeffs=(2,), constant=0)
    rnd = cd.WeightModel.random(0.5, 0, 10007)
    box = cd.BoxRegion(intervals=((1, 4),))
    assert cd.lfc_average_exact(rnd, [s1, s1], None, box) == 2.0
    assert cd.lfc_average_exact(rnd, [s1, s1x2], None, box) == 1.0


def test_exact_average_matches_bruteforce():
    sys2 = lf.first_family(2)
    rnd = cd.WeightModel.random(0.3, 7, 10007)
    box = cd.BoxRegion(intervals=tuple((1, 6) for _ in range(4)))
    got = cd.lfc_average_exact(rnd, sys2, None, box)
    A = np.array([f.coeffs for f in sys2.forms])
    total = 0.0
    for x in itertools.product(range(1, 7), repeat=4):
        vals = A @ np.array(x)
        total += 0.3 ** (len(set(vals.tolist())) - 4)
    assert abs(got - total / 6 ** 4) < 1e-12


def test_mc_agrees_with_exact_table_model():
    sys2 = lf.first_family(2)
    tab_vals = np.random.default_rng(3).random(401) * 2
    tab = cd.WeightModel(kind="table", modulus=401, values=tab_vals)
    box = cd.BoxRegion(intervals=tuple((-3, 3) for _ in range(4)))
    exact = cd.lfc_average_exact(tab, sys2, None, box)
    mc = cd.lfc_average_mc(tab, sys2, None, box, samples=200000, seed=11, workers=3)
    assert abs(mc.estimate - exact) < 4.0 * mc.stderr
    again = cd.lfc_average_mc(tab, sys2, None, box, samples=200000, seed=11,
                              workers=3)
    assert mc.estimate == again.estimate and mc.stderr == again.stderr


def test_mc_input_validation():
    sys2 = lf.first_family(2)
    one = cd.WeightModel.constant_one(101)
    box4 = cd.symmetric_box(4, 5)
    with pytest.raises(DomainError):
        cd.lfc_average_mc(one, sys2, None, cd.symmetric_box(3, 5), samples=2000)
    with pytest.raises(DomainError):
        cd.lfc_average_mc(one, sys2, None, box4, samples=10)
    with pytest.raises(DomainError):
        cd.lfc_average_mc(one, sys2, cd.ExponentPattern(entries=(1,)), box4,
                          samples=2000)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        cd.lfc_average_mc(one, sys2, None, box4, samples=2000, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        cd.WeightModel.random(0.5, -1, 101)


def test_mc_form_values_stay_inside_int64():
    # 2x + 3 plus n < 7 peaks at 2 S + 9 on [-S, S]: S = 2^62 - 5 is the
    # first width at which the bound 2 S + 3 + 7 < 2^63 fails.
    forms = [lf.LinearForm(coeffs=(2,), constant=3)]
    one = cd.WeightModel.constant_one(7)
    inside = cd.symmetric_box(1, 2 ** 62 - 6)
    assert cd.lfc_average_mc(one, forms, None, inside, samples=1000).estimate == 1.0
    with pytest.raises(ResourceError, match="int64"):
        cd.lfc_average_mc(one, forms, None, cd.symmetric_box(1, 2 ** 62 - 5),
                          samples=1000)


def test_exact_form_values_stay_inside_int64():
    # 2^62 x at x = 2 is 2^63, which wraps to -2^63 = 1 mod 3 in int64 and
    # so misses the constant 2 it equals mod 3; the true average is 1/alpha.
    model = cd.WeightModel.random(0.5, 1, 3)
    point = cd.BoxRegion(((2, 2),))
    past = [lf.LinearForm(coeffs=(2 ** 62,)), lf.LinearForm((0,), 2)]
    with pytest.raises(ResourceError, match="int64"):
        cd.lfc_average_exact(model, past, None, point)
    # (2^62 - 2) x at x = 2 is 2^63 - 4 = 1 mod 3; plus the modulus 3 it
    # is 2^63 - 1, the largest value the bound admits.
    inside = [lf.LinearForm(coeffs=(2 ** 62 - 2,)), lf.LinearForm((0,), 1)]
    assert (2 ** 63 - 4) % 3 == 1
    assert cd.lfc_average_exact(model, inside, None, point) == 2.0


def _mc_reference(model, sys, e, box, samples, seed, workers=1):
    """lfc_average_mc's batch loop as it was: one draw with per-coordinate
    bounds, % modulus, lookup by fancy indexing, prod over each row."""
    active, A, c = cd._form_arrays(sys, e, box)
    lo = np.array([iv[0] for iv in box.intervals], dtype=np.int64)
    hi = np.array([iv[1] for iv in box.intervals], dtype=np.int64)
    total = total_sq = 0.0
    quota, rem = divmod(samples, workers)
    for w, stream in enumerate(np.random.SeedSequence(seed).spawn(workers)):
        rng = np.random.default_rng(stream)
        left = quota + (1 if w < rem else 0)
        while left > 0:
            m = min(cd.MC_BATCH, left)
            left -= m
            x = rng.integers(lo, hi + 1, size=(m, A.shape[1]))
            n = rng.integers(0, model.modulus, size=m)
            phi = (x @ A.T + c + n[:, None]) % model.modulus
            looked = np.ones(phi.shape) if model.kind == "one" else model.values[phi]
            vals = looked.prod(axis=1)
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / max(samples - 1, 1))


def test_mc_pinned_with_and_without_constants():
    # The homogeneous first(2) takes the batch loop's path that adds no
    # constants; the affine system, over two streams, adds them.
    hom = cd.lfc_average_mc(cd.WeightModel.random(0.3, 2, 10007),
                            lf.first_family(2), None, cd.symmetric_box(4, 2),
                            300000, seed=2)
    assert (hom.estimate, hom.stderr) == (5.0576131687242825, 0.04467733327600177)
    table = cd.WeightModel(kind="table", modulus=401,
                           values=np.random.default_rng(3).random(401) * 2)
    affine = lf.LinearSystem(d=2, forms=(lf.LinearForm((1, 2), 3),
                                         lf.LinearForm((2, -1), -5),
                                         lf.LinearForm((0, 1), 7)))
    aff = cd.lfc_average_mc(table, affine, None, cd.symmetric_box(2, 30),
                            100000, seed=4, workers=2)
    assert (aff.estimate, aff.stderr) == (1.0516893087480321, 0.0036284622144663607)


def test_mc_batch_matches_the_modulo_reference_bit_for_bit():
    first2 = lf.first_family(2)
    table = cd.WeightModel(kind="table", modulus=401,
                           values=np.random.default_rng(3).random(401) * 2)
    seven = cd.WeightModel.random(0.5, 4, 7)
    cases = [
        # the benchmark's call shape, over two batches
        (cd.WeightModel.random(0.3, 2, 10007), first2, None,
         cd.symmetric_box(4, 2), 300000, 2, 1),
        (cd.WeightModel.random(0.3, 3, 10007), first2, None,
         cd.symmetric_box(4, 2), 300000, 3, 2),
        # per-coordinate bounds, an exponent pattern and several streams
        (table, first2, cd.ExponentPattern((1, 0, 1, 1)),
         cd.BoxRegion(((-5, 1), (0, 3), (-2, 2), (-7, -1))), 70001, 5, 3),
        # form values far past the modulus, both signs: the % route
        (seven, first2, None, cd.symmetric_box(4, 10 ** 6), 20000, 6, 1),
        (seven, [lf.LinearForm((3, -5), 11)] * 2, None,
         cd.symmetric_box(2, 40), 20000, 7, 1),
        # no active form, and the constant model
        (seven, first2, cd.ExponentPattern((0, 0, 0, 0)),
         cd.symmetric_box(4, 2), 5000, 8, 1),
        (cd.WeightModel.constant_one(101), first2, None,
         cd.symmetric_box(4, 2), 5000, 9, 1),
    ]
    for model, sys, e, box, samples, seed, workers in cases:
        got = cd.lfc_average_mc(model, sys, e, box, samples, seed=seed,
                                workers=workers)
        want = _mc_reference(model, sys, e, box, samples, seed, workers)
        assert (got.estimate, got.stderr) == want, (seed, workers)


@pytest.mark.parametrize("form", [
    lf.LinearForm(coeffs=(2 ** 63, 1)),
    lf.LinearForm(coeffs=(-2 ** 63, 1)),
    lf.LinearForm(coeffs=(1, 1), constant=2 ** 63),
])
def test_coefficients_past_int64_are_a_resource_error(form):
    forms = [form, lf.LinearForm(coeffs=(1, 2), constant=1)]
    one = cd.WeightModel.constant_one(7)
    box = cd.symmetric_box(2, 1)
    with pytest.raises(ResourceError, match="int64"):
        cd.lfc_average_mc(one, forms, None, box, samples=1000)
    with pytest.raises(ResourceError, match="int64"):
        cd.lfc_average_exact(one, forms, None, box)
    # An inactive form is never converted.
    skip = cd.ExponentPattern((0, 1))
    assert cd.lfc_average_mc(one, forms, skip, box, samples=1000).estimate == 1.0


def test_exact_average_cap():
    sys2 = lf.first_family(2)
    rnd = cd.WeightModel.random(0.5, 0, 101)
    with pytest.raises(ResourceError):
        cd.lfc_average_exact(rnd, sys2, None, cd.symmetric_box(4, 200))
    tab = cd.WeightModel(kind="table", modulus=101, values=np.ones(101))
    box = cd.BoxRegion(intervals=((1, 401), (1, 401), (0, 0), (0, 0)))
    with pytest.raises(ResourceError):
        cd.lfc_average_exact(tab, sys2, None, box)


def test_random_model_collision_identity():
    """Fresh random-weight realizations average to alpha^(distinct - active),
    the collision count identity the deviation engine is built on."""
    sys2 = lf.first_family(2)
    A = np.array([f.coeffs for f in sys2.forms])
    rng = np.random.default_rng(5)
    alpha = 0.4
    modulus = 211
    idx = np.arange(modulus)
    for _ in range(5):
        x = rng.integers(-8, 9, size=4)
        vals = (A @ x) % modulus
        distinct = len(set(vals.tolist()))
        want = alpha ** (distinct - 4)
        realizations = 20000
        nus = np.where(
            rng.random((realizations, modulus)) < alpha, 1.0 / alpha, 0.0
        )
        prod = np.ones((realizations, modulus))
        for v in vals:
            prod *= nus[:, (idx + int(v)) % modulus]
        per_realization = prod.mean(axis=1)
        got = per_realization.mean()
        sd = per_realization.std(ddof=1) / np.sqrt(realizations)
        assert abs(got - want) < 5.0 * max(sd, 1e-12), (distinct, got, want)


def test_hyperplane_counts_match_bruteforce():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 30:
        d = int(rng.integers(2, 5))
        coeffs = rng.integers(-3, 4, size=d)
        if not coeffs.any():
            continue
        S = int(rng.integers(2, 7))
        rhs = int(rng.integers(-4, 5))
        cnt = cd.count_hyperplane_points(coeffs.tolist(), S, rhs=rhs)
        brute = sum(
            1
            for x in itertools.product(range(-S, S + 1), repeat=d)
            if int(np.dot(coeffs, x)) == rhs
        )
        assert cnt == brute, (coeffs.tolist(), S, rhs, cnt, brute)
        checked += 1
    with pytest.raises(DomainError):
        cd.count_hyperplane_points((1, 2), -1)


def test_hyperplane_count_exact_past_double_precision():
    S = 244038
    n = 2 * S + 1
    assert cd.count_hyperplane_points([1, 1, -1, -1], S) == (2 * n ** 3 + n) // 3
    # x1 + x2 + x3 = y1 + y2 at S = 10^5 holds partial counts past 2^63:
    # sum over m of c3(m) * c2(m), with c_k(m) the ways k coordinates sum
    # to m, built by Python-int window sums.
    S = 10 ** 5
    c2 = [2 * S + 1 - abs(m) for m in range(-2 * S, 2 * S + 1)]
    prefix = list(itertools.accumulate(c2, initial=0))

    def c3(m):   # sum of c2(m - x) over |x| <= S; c2[i] holds c2(i - 2S)
        lo = min(max(m + S, 0), len(c2))
        hi = min(max(m + 3 * S + 1, 0), len(c2))
        return prefix[hi] - prefix[lo]

    want = sum(c3(m) * c for m, c in zip(range(-2 * S, 2 * S + 1), c2))
    assert want >= 1 << 63
    assert cd.count_hyperplane_points([1, 1, 1, -1, -1], S) == want
    # rhs != 0 rows still run the int64 boxcar, with its ceiling.
    with pytest.raises(ResourceError):
        cd.count_hyperplane_points([1, 1, 1, -1, -1], S, rhs=1)


def _brute_count(a, S):
    """Points of [-S, S]^t on a . x = 0: enumerate t-1 coordinates, solve
    for the last."""
    *head, last = a
    total = 0
    for x in itertools.product(range(-S, S + 1), repeat=len(head)):
        q, r = divmod(-sum(u * v for u, v in zip(head, x)), last)
        total += r == 0 and abs(q) <= S
    return total


def test_hyperplane_quasi_polynomial_matches_boxcar_and_brute():
    rng = np.random.default_rng(12)
    brute_on_fit = 0
    for _ in range(40):
        t = int(rng.integers(3, 7))
        a = [int(v) * int(rng.choice((-1, 1)))
             for v in rng.integers(1, 5, size=t)]
        p = math.lcm(*a) // math.gcd(*a)
        for S in range((t + 2) * p + p + 1):
            got = cd.count_hyperplane_points(a, S)
            assert got == cd._boxcar_count(a, S, 0), (a, S)
            if (2 * S + 1) ** (t - 1) <= 20000:
                assert got == _brute_count(a, S), (a, S)
                brute_on_fit += S >= t * p + S % p
    assert brute_on_fit >= 50


def test_hyperplane_quasi_polynomial_on_family_rows():
    for k in (3, 4):
        for row in lf._collision_hyperplanes(lf.first_family(k), math.inf):
            a, rhs = row[:-1], row[-1]
            active = [v for v in a if v]
            for S in (97, 1103):
                want = (cd._boxcar_count(active, S, rhs)
                        * (2 * S + 1) ** (len(a) - len(active)))
                assert cd.count_hyperplane_points(a, S, rhs=rhs) == want


def test_large_period_row_at_small_width_stays_on_boxcar():
    # lcm(997, 991, 983) is about 10^9: sampling its quasi-polynomial would
    # need boxcars at widths near 10^9, far beyond the queried width.
    a = [997, -991, 983]
    misses = cd._ehrhart_differences.cache_info().misses
    start = time.perf_counter()
    got = cd.count_hyperplane_points(a, 60)
    assert time.perf_counter() - start < 2.0
    assert cd._ehrhart_differences.cache_info().misses == misses
    assert got == _brute_count(a, 60)


def test_two_coordinate_rows_keep_their_closed_form_counts():
    # 1000 x = 999 y on |x|, |y| <= S has the 2 * (S // 1000) + 1 points
    # x = 999 k.  A dense boxcar of this row would hold 2 * 1999 * S
    # entries; below the switch (S < 2 * 999000) the count stays O(S).
    tracemalloc.start()
    try:
        assert cd.count_hyperplane_points([1000, -999], 5000) == 11
        assert tracemalloc.get_traced_memory()[1] < 10 * 2 ** 20
    finally:
        tracemalloc.stop()
    for S in (3 * 10 ** 6, 10 ** 12):
        assert cd.count_hyperplane_points([0, 1000, -999], S) == (
            (2 * S + 1) * (2 * (S // 1000) + 1))


def test_hyperplane_count_is_zero_when_gcd_misses_rhs():
    start = time.perf_counter()
    assert cd.count_hyperplane_points([2, 4, 6, 8, 10], 10 ** 6, rhs=1) == 0
    assert time.perf_counter() - start < 1.0
    assert cd.count_hyperplane_points([0, 3, -6], 5, rhs=4) == 0
    assert cd.count_hyperplane_points([0, 3, -6], 5, rhs=3) == 11 * sum(
        1 for x, y in itertools.product(range(-5, 6), repeat=2)
        if 3 * x - 6 * y == 3
    )


def test_deviation_frozen_value_first_family():
    S = int(2 * 0.1 ** -4)
    dev = cd.random_model_deviation(lf.first_family(3), 0.1, S)
    assert dev.total == pytest.approx(0.7851409699845125, rel=1e-9)
    assert dev.dominant.codim == 1
    assert dev.dominant.ratio == Fraction(4)
    assert not dev.dominant.approximate


def test_deviation_terms_pinned_first_family():
    """Every term of the first(3) deviation, recorded from the engine's
    earlier, separately written enumeration of the collision subspaces."""
    pinned = json.loads(
        (Path(__file__).parent / "data" / "first3_deviation.json").read_text()
    )
    for S in (10 ** 3, 10 ** 4):
        dev = cd.random_model_deviation(lf.first_family(3), 0.1, S)
        assert dev.total == pinned[str(S)]["total"]
        got = [[t.codim, t.partition_size, t.contribution] for t in dev.terms]
        assert got == pinned[str(S)]["terms"]


def test_deviation_decreases_with_width():
    sys = lf.first_family(3)
    S = int(2 * 0.1 ** -4)
    small = cd.random_model_deviation(sys, 0.1, S).total
    large = cd.random_model_deviation(sys, 0.1, 4 * S).total
    assert large == pytest.approx(0.19369732429644862, rel=1e-9)
    assert large < small


def test_deviation_input_validation():
    sys = lf.first_family(2)
    with pytest.raises(DomainError):
        cd.random_model_deviation(sys, 0.0, 100)
    with pytest.raises(DomainError):
        cd.random_model_deviation(sys, 0.5, 1)
    single = lf.LinearSystem(d=1, forms=(lf.LinearForm(coeffs=(1,)),))
    with pytest.raises(DomainError):
        cd.random_model_deviation(single, 0.5, 100)
    with pytest.raises(ResourceError):
        cd.random_model_deviation(lf.first_family(3), 0.5, 100, max_subspaces=10)


def test_deviation_cap_stops_the_codim2_enumeration():
    # first(5) has 1,825,922 codim-2 flats; building them all before the
    # cap check took about 15 s and 1.45 GB.
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="exceeded 1000 subspaces"):
        cd.random_model_deviation(lf.first_family(5), 0.5, 100,
                                  max_subspaces=1000)
    assert time.perf_counter() - start < 2.0


def test_deviation_cap_counts_hyperplanes_then_flats():
    # first(5) has 2,057 hyperplanes: a cap of 1,000 stops their pair
    # loop, and a cap of 5,000 passes it and stops the flats.
    for cap, stage in ((1000, "collision hyperplanes"), (5000, "codim-2 lattice")):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=f"{stage} exceeded {cap} subspaces"):
            cd.random_model_deviation(lf.first_family(5), 0.5, 100,
                                      max_subspaces=cap)
        assert time.perf_counter() - start < 2.0


def test_deviation_without_integer_hyperplanes_is_a_domain_error():
    # 2x = 1 is the only collision, and it holds no integer point.
    sys = lf.LinearSystem(d=1, forms=(lf.LinearForm(coeffs=(2,)),
                                      lf.LinearForm(coeffs=(0,), constant=1)))
    with pytest.raises(DomainError):
        cd.random_model_deviation(sys, 0.3, 10)
    with pytest.raises(DomainError):
        cd.width_threshold_fit(sys, [0.3, 0.2, 0.1])


def test_deviation_is_exact_at_d2_once_the_box_holds_the_point_flats():
    # At d = 2 a codim-2 flat is a single point, so the exact hyperplane
    # counts and one point per flat leave nothing to approximate.  Flats
    # with no integer point, such as x = 0 with x + 2y = 1, must add nothing.
    rng = np.random.default_rng(2020)
    S, alpha = 30, 0.3
    # A modulus this large keeps every collision of the exact average real.
    model = cd.WeightModel(kind="random", modulus=(1 << 61) - 1, alpha=alpha)
    box = cd.symmetric_box(2, S)
    checked = affected = 0
    while checked < 40:
        sys = _random_system(rng, 2, int(rng.integers(3, 6)))
        try:
            engine = cd._DeviationEngine(sys)
        except DomainError:   # no collision hyperplane holds integer points
            continue
        rows = engine.rows
        for parents, _ in engine.flats:   # Cramer's rule: the point is in the box
            (a1, a2, r1), (b1, b2, r2) = (rows[p] for p in parents[:2])
            det = a1 * b2 - a2 * b1
            x, y = r1 * b2 - a2 * r2, a1 * r2 - r1 * b1
            assert x % det == 0 and y % det == 0
            assert abs(x // det) <= S and abs(y // det) <= S
        affected += len(list(lf._codim2_flats(rows, math.inf))) > len(engine.flats)
        got = engine.deviation(alpha, S).total
        want = cd.lfc_average_exact(model, sys, None, box) - 1.0
        assert got == pytest.approx(want, rel=1e-12, abs=0), (checked, sys)
        checked += 1
    assert affected > 30


def test_threshold_fit_slopes_and_dominant_ratios():
    fit2 = cd.width_threshold_fit(lf.second_family(2), [0.2, 0.1, 0.05])
    assert fit2.slope == pytest.approx(1.982102, abs=1e-4)
    fit31 = cd.width_threshold_fit(lf.third_family(3, 1), [0.2, 0.1, 0.05])
    assert fit31.slope == pytest.approx(2.015813, abs=1e-4)
    fit21 = cd.width_threshold_fit(lf.third_family(2, 1), [0.2, 0.1, 0.05])
    assert fit21.slope == pytest.approx(1.182815, abs=1e-4)
    for fit, sys in ((fit2, lf.second_family(2)),
                     (fit31, lf.third_family(3, 1)),
                     (fit21, lf.third_family(2, 1))):
        want = lf.lindex(sys).value
        for row in fit.rows:
            assert row.dominant_ratio == want
            assert row.deviation == pytest.approx(1.0, abs=0.35)
    s_stars = [row.S_star for row in fit31.rows]
    assert s_stars == sorted(s_stars)


def test_threshold_fit_reaches_first4():
    # S* runs from about 8 * 10^3 to 4 * 10^6, where (2S+1)^5 >= 2^63
    # rules out the int64 boxcar on six-coordinate rows; the exact
    # quasi-polynomials carry the fit there.
    fit = cd.width_threshold_fit(lf.first_family(4), (0.5, 0.4, 0.3))
    assert abs(fit.slope - 12) <= 0.3
    assert all(row.dominant_ratio == 12 for row in fit.rows)
    # Pinned exactly, as first3_deviation.json pins the first(3) floats.
    assert [(row.S_star, row.deviation) for row in fit.rows] == [
        (8413.780947183672, 0.9999736075294495),
        (120008.87620375167, 0.9999989630180688),
        (3769534.3892842997, 1.0000001034068442),
    ]
    assert all((2 * int(row.S_star) + 1) ** 5 >= 1 << 63 for row in fit.rows)


def test_threshold_fit_validation():
    with pytest.raises(DomainError):
        cd.width_threshold_fit(lf.second_family(2), [0.2, 0.1])
    with pytest.raises(DomainError):
        cd.width_threshold_fit(lf.second_family(2), [0.2, 0.1, 1.5])


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0])
def test_threshold_fit_rejects_bad_target(target):
    with pytest.raises(DomainError, match="target"):
        cd.width_threshold_fit(lf.second_family(2), [0.2, 0.1, 0.05],
                               target=target)
