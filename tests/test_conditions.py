import itertools
import json
import math
import pickle
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from narrowlab import conditions as cd
from narrowlab import limits
from narrowlab import linforms as lf
from narrowlab.errors import DomainError, NumericError, ResourceError


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


def test_mc_batch_cap_counts_the_largest_stream_batch(monkeypatch):
    # 1,000 samples in 3 streams: the first stream draws 334, and each of
    # first(2)'s 4 forms takes one value per sample.
    sys2 = lf.first_family(2)
    box4 = cd.symmetric_box(4, 5)
    model = cd.WeightModel.random(0.5, 0, 101)
    monkeypatch.setattr(limits, "MAX_ARRAY_ENTRIES", 334 * 4)
    cd.lfc_average_mc(model, sys2, None, box4, samples=1000, workers=3)
    monkeypatch.setattr(limits, "MAX_ARRAY_ENTRIES", 334 * 4 - 1)
    with pytest.raises(ResourceError, match="^form values of a Monte Carlo "
                       "batch 1336 is past the cap of 1335$"):
        cd.lfc_average_mc(model, sys2, None, box4, samples=1000, workers=3)
    # The constant model looks no form value up.
    one = cd.WeightModel.constant_one(101)
    cd.lfc_average_mc(one, sys2, None, box4, samples=1000, workers=3)


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
        # a constant-only form beside a plain one
        (table, [lf.LinearForm((0, 0), 5), lf.LinearForm((1, -2), 0)], None,
         cd.symmetric_box(2, 9), 20000, 10, 1),
        # three or more coefficients outside +-1, with constants, on a
        # per-coordinate box
        (table, [lf.LinearForm((2, -3, 5, 0), 4), lf.LinearForm((1, 0, -4, 7), -2),
                 lf.LinearForm((0, 1, 1, -1), 0)], None,
         cd.BoxRegion(((-3, 4), (0, 5), (-6, -1), (2, 2))), 30000, 11, 2),
        # a d = 1 box
        (seven, [lf.LinearForm((1,), 0), lf.LinearForm((3,), 2)], None,
         cd.symmetric_box(1, 50), 20000, 12, 1),
    ]
    for model, sys, e, box, samples, seed, workers in cases:
        got = cd.lfc_average_mc(model, sys, e, box, samples, seed=seed,
                                workers=workers)
        want = _mc_reference(model, sys, e, box, samples, seed, workers)
        assert (got.estimate, got.stderr) == want, (seed, workers)


def test_mc_int32_draws_match_the_int64_reference_at_their_edge():
    # Box bounds within 2^31 - 1 and a modulus up to 2^31 are drawn as int32,
    # which numpy fills from the same 32-bit stream as int64; one past either
    # is drawn as int64.  3 x reaches 3 (2^31 - 1), past int32, so the form
    # values must be summed in int64.
    model = cd.WeightModel.random(0.3, 5, 10007)
    forms = [lf.LinearForm((1, 2), 7), lf.LinearForm((-1, 1), 0), lf.LinearForm((3, 0), -2)]
    edge = 2 ** 31 - 1
    cases = [
        (model, cd.symmetric_box(2, edge), 20000, 13, 1),
        (model, cd.symmetric_box(2, edge + 1), 20000, 13, 1),
        (model, cd.BoxRegion(((-edge, 0), (5, edge))), 20000, 14, 2),
        (cd.WeightModel.constant_one(2 ** 31), cd.symmetric_box(2, 3), 5000, 15, 1),
        (cd.WeightModel.constant_one(2 ** 31 + 1), cd.symmetric_box(2, 3), 5000, 15, 1),
    ]
    for model, box, samples, seed, workers in cases:
        got = cd.lfc_average_mc(model, forms, None, box, samples, seed=seed,
                                workers=workers)
        want = _mc_reference(model, forms, None, box, samples, seed, workers)
        assert (got.estimate, got.stderr) == want, (seed, box)


def test_mc_blocks_match_the_reference_bit_for_bit():
    # Form values are built MC_BLOCK samples at a time and summed over the
    # whole batch: one block exactly, one sample past it, and streams that
    # end in a partial block.
    assert cd.MC_BLOCK < cd.MC_BATCH
    model = cd.WeightModel.random(0.3, 6, 10007)
    first2 = lf.first_family(2)
    box = cd.symmetric_box(4, 2)
    for samples, seed, workers in [(cd.MC_BLOCK, 16, 1), (cd.MC_BLOCK + 1, 17, 1),
                                   (cd.MC_BLOCK + 1, 18, 2), (3 * cd.MC_BLOCK - 1, 19, 2),
                                   (2 * cd.MC_BLOCK + 2, 20, 2)]:
        got = cd.lfc_average_mc(model, first2, None, box, samples, seed=seed,
                                workers=workers)
        want = _mc_reference(model, first2, None, box, samples, seed, workers)
        assert (got.estimate, got.stderr) == want, (samples, workers)


def test_mc_int32_form_values_match_the_reference_at_their_edge():
    # On x in [0, 1] with n < 3, a x peaks at a + 2 = modulus - 1 + span:
    # int32 holds it up to modulus + span = 2^31, where the peak is 2^31 - 1,
    # and one past that the values are built in int64.  Each weight differs,
    # so a peak that wrapped to -2^31 (1 mod 3, not 2) would move the average.
    model = cd.WeightModel(kind="table", modulus=3, values=np.array([0.5, 1.0, 4.0]))
    box = cd.BoxRegion(((0, 1),))
    for a in (2 ** 31 - 4, 2 ** 31 - 3, 2 ** 31 - 2):
        forms = [lf.LinearForm((a,)), lf.LinearForm((1,), 1)]
        assert 3 + cd._int64_span(*cd._form_arrays(forms, None, box)[1:], box, 3) == a + 3
        got = cd.lfc_average_mc(model, forms, None, box, 20000, seed=21, workers=2)
        want = _mc_reference(model, forms, None, box, 20000, 21, 2)
        assert (got.estimate, got.stderr) == want, a
    # On the origin's box the span leaves the coefficients out; 2^40 does not
    # fit int32, so its form is built in int64.
    forms = [lf.LinearForm((2 ** 40, 3), 1), lf.LinearForm((1, 1))]
    origin = cd.BoxRegion(((0, 0), (0, 0)))
    got = cd.lfc_average_mc(model, forms, None, origin, 5000, seed=22)
    assert (got.estimate, got.stderr) == _mc_reference(model, forms, None, origin, 5000, 22)


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
        brute = oracles.hyperplane_points(coeffs.tolist(), S, rhs)
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
    # x1 + x2 + x3 = y1 + y2 + 1: sum over m of c3(m + 1) * c2(m).  Affine
    # rows take the quasi-polynomial too, from samples at widths near rhs.
    want = sum(c3(m + 1) * c for m, c in zip(range(-2 * S, 2 * S + 1), c2))
    assert want >= 1 << 63
    assert cd.count_hyperplane_points([1, 1, 1, -1, -1], S, rhs=1) == want
    # Samples from r = 4 * 10^7 on need a boxcar past the array cap.
    with pytest.raises(ResourceError, match="entries of a hyperplane count's array "
                       "160000002 is past the cap of 67108864$"):
        cd.count_hyperplane_points([1, 1, -1], 10 ** 8, rhs=4 * 10 ** 7)


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
                assert got == oracles.hyperplane_points(a, S), (a, S)
                brute_on_fit += S >= t * p + S % p
    assert brute_on_fit >= 50
    # Affine rows of 2-5 coefficients up to 7 with 0 < |rhs| <= 25 and
    # period p at most 60, at every width up to one period past the samples
    # in each residue class.  The brute force checks the widths past the
    # samples, the only values the boxcar does not give directly.  Samples
    # one period early, from start - p < r, extrapolate wrongly on some row.
    rows = []
    while len(rows) < 12:
        t = int(rng.integers(2, 6))
        a = [int(v) * int(rng.choice((-1, 1))) for v in rng.integers(1, 8, size=t)]
        if math.lcm(*a) // math.gcd(*a) <= 60:
            rows.append((a, int(rng.integers(1, 26)) * int(rng.choice((-1, 1)))))
    brute_past_samples = early_misses = 0
    for a, rhs in rows:
        t, g = len(a), math.gcd(*a)
        key = tuple(sorted(abs(v) // g for v in a))
        p, r = math.lcm(*key), abs(rhs) // g
        for S in range(r + (t + 1) * p):
            got = cd.count_hyperplane_points(a, S, rhs=rhs)
            assert got == cd._boxcar_count(a, S, rhs), (a, rhs, S)
            start = r + (S - r) % p
            if S >= start + t * p and (2 * S + 1) ** (t - 1) <= 20000:
                assert got == oracles.hyperplane_points(a, S, rhs), (a, rhs, S)
                brute_past_samples += 1
            if S == start + (t - 1) * p and start >= p and rhs % g == 0:
                early = cd._ehrhart_differences(key, r, start - p)
                early_misses += sum(math.comb(t, k) * dk for k, dk in enumerate(early)) != got
    assert brute_past_samples >= 20
    assert early_misses >= 1


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
    assert got == oracles.hyperplane_points(a, 60)


def test_two_coordinate_rows_keep_their_closed_form_counts():
    # 1000 x = 999 y on |x|, |y| <= S has the 2 * (S // 1000) + 1 points
    # x = 999 k.  A dense boxcar of this row would hold 2 * 1999 * S
    # entries; below the switch (S < 999000) the count stays O(S).
    tracemalloc.start()
    try:
        assert cd.count_hyperplane_points([1000, -999], 5000) == 11
        assert tracemalloc.get_traced_memory()[1] < 10 * 2 ** 20
    finally:
        tracemalloc.stop()
    for S in (3 * 10 ** 6, 10 ** 12):
        assert cd.count_hyperplane_points([0, 1000, -999], S) == (
            (2 * S + 1) * (2 * (S // 1000) + 1))


class _LongestArray:
    """numpy, for a module that calls it, noting the longest array made."""

    def __init__(self):
        self.longest = 0

    def __getattr__(self, name):
        f = getattr(np, name)
        if isinstance(f, type) or not callable(f):
            return f

        def noted(*args, **kwargs):
            out = f(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.longest = max(self.longest, out.size)
            return out
        return noted


@pytest.mark.parametrize("a, S, rhs", [
    ((1, 1), 7, 0), ((3, 5), 20, 1), ((2, 4, 7), 30, 3), ((6, 4, 9, 11), 12, 0),
    ((1000, 999), 50, 0), ((5, 5, 5), 9, 5),
])
def test_boxcar_cap_counts_its_longest_array(monkeypatch, a, S, rhs):
    # The checked count bounds the longest array the count builds, which
    # is one entry short of it: at that cap the count runs, and one entry
    # less refuses it before any array is made.
    *head, _ = sorted(a)
    entries = 2 * S * sum(head) // math.gcd(*head) + 2
    spy = _LongestArray()
    monkeypatch.setattr(cd, "np", spy)
    monkeypatch.setattr(limits, "MAX_ARRAY_ENTRIES", entries)
    want = cd._boxcar_count(a, S, rhs)
    assert entries - 1 <= spy.longest <= entries
    monkeypatch.setattr(limits, "MAX_ARRAY_ENTRIES", entries - 1)
    spy.longest = 0
    with pytest.raises(ResourceError, match=f"{entries} is past the cap of"):
        cd._boxcar_count(a, S, rhs)
    assert spy.longest == 0
    monkeypatch.undo()
    assert want == oracles.hyperplane_points(a, S, rhs)


def _boxcar_convolve_reference(pmf, step, S):
    """_boxcar_convolve as it was: running sums read through index arrays."""
    span = step * S
    n = pmf.shape[0]
    out_len = n + 2 * span
    padded = np.zeros(out_len, dtype=np.int64)
    padded[span:span + n] = pmf
    out = np.empty(out_len, dtype=np.int64)
    for r in range(step):
        col = padded[r::step]
        csum = np.concatenate([[0], np.cumsum(col)])
        m = col.shape[0]
        q = np.arange(m)
        hi = np.minimum(q + S + 1, m)
        lo = np.maximum(q - S, 0)
        out[r::step] = csum[hi] - csum[lo]
    return out


def test_boxcar_convolve_matches_the_index_array_reference():
    rng = np.random.default_rng(31)
    for case in range(300):
        pmf = rng.integers(0, 10 ** 6, size=int(rng.integers(1, 40)), dtype=np.int64)
        step, S = int(rng.integers(1, 9)), int(rng.integers(0, 12))
        got = cd._boxcar_convolve(pmf, step, S)
        want = _boxcar_convolve_reference(pmf, step, S)
        assert got.dtype == want.dtype and np.array_equal(got, want), (case, step, S)


def test_boxcar_count_matches_the_index_array_reference(monkeypatch):
    got = cd._boxcar_count((1, 2, 3), 10 ** 6, 1)
    monkeypatch.setattr(cd, "_boxcar_convolve", _boxcar_convolve_reference)
    assert got == cd._boxcar_count((1, 2, 3), 10 ** 6, 1) == 1333334666667


def _boxcar_count_reference(a, S, rhs):
    """_boxcar_count as it was: the tail reads pmf through an index array of
    the values v(x) = rhs - low - last x, masked and divided by step."""
    *head, last = sorted(abs(v) for v in a)
    pmf = np.ones(2 * S + 1, dtype=np.int64)
    step, low = head[0], -head[0] * S
    for coef in head[1:]:
        g = math.gcd(step, coef)
        spread = np.zeros((pmf.shape[0] - 1) * (step // g) + 1, dtype=np.int64)
        spread[::step // g] = pmf
        pmf = cd._boxcar_convolve(spread, coef // g, S)
        step = g
        low -= coef * S
    v = rhs - low - last * np.arange(-S, S + 1, dtype=np.int64)
    v = v[(v >= 0) & (v % step == 0)] // step
    return int(pmf[v[v < pmf.shape[0]]].sum())


def test_boxcar_tail_matches_the_index_array_reference():
    rng = np.random.default_rng(32)
    for case in range(3000):
        a = [int(v) * int(rng.choice((-1, 1)))
             for v in rng.integers(1, 10, size=int(rng.integers(2, 5)))]
        S = int(rng.integers(0, 31))
        reach = S * sum(abs(v) for v in a)
        rhs = int(rng.integers(-reach - 5, reach + 6))   # some outside the range
        if case % 5 == 0:   # a gcd that misses rhs
            a = [3 * v for v in a]
            rhs = 3 * rhs + 1
        assert cd._boxcar_count(a, S, rhs) == _boxcar_count_reference(a, S, rhs), (
            case, a, S, rhs)


def test_boxcar_count_of_two_coefficients_peaks_at_its_one_array():
    # (3, 5) at S holds pmf, 2S + 1 int64 entries, and reads it by one slice.
    S = 10 ** 5
    tracemalloc.start()
    try:
        got = cd._boxcar_count((3, 5), S, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _boxcar_count_reference((3, 5), S, 1)
    assert peak <= 1.5 * 8 * (2 * S + 1)


def test_boxcar_count_peaks_within_three_longest_arrays():
    # (1, 2, 3) at S convolves its head (1, 2) into 6S + 1 values.
    S = 10 ** 5
    tracemalloc.start()
    try:
        cd._boxcar_count((1, 2, 3), S, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * (6 * S + 1)


def test_hyperplane_count_is_zero_when_gcd_misses_rhs():
    start = time.perf_counter()
    assert cd.count_hyperplane_points([2, 4, 6, 8, 10], 10 ** 6, rhs=1) == 0
    assert time.perf_counter() - start < 1.0
    assert cd.count_hyperplane_points([0, 3, -6], 5, rhs=4) == 0
    assert cd.count_hyperplane_points([0, 3, -6], 5, rhs=3) == oracles.hyperplane_points(
        [0, 3, -6], 5, 3)


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


def test_deviation_input_validation(monkeypatch):
    sys = lf.first_family(2)
    with pytest.raises(DomainError):
        cd.random_model_deviation(sys, 0.0, 100)
    with pytest.raises(DomainError):
        cd.random_model_deviation(sys, 0.5, 1)
    single = lf.LinearSystem(d=1, forms=(lf.LinearForm(coeffs=(1,)),))
    with pytest.raises(DomainError):
        cd.random_model_deviation(single, 0.5, 100)
    monkeypatch.setattr(limits, "MAX_DEVIATION_SUBSPACES", 10)
    with pytest.raises(ResourceError):
        cd.random_model_deviation(lf.first_family(3), 0.5, 100)


def test_deviation_cap_stops_the_codim2_enumeration(monkeypatch):
    # first(5) has 1,825,922 codim-2 flats; building them all before the
    # cap check took about 15 s and 1.45 GB.
    monkeypatch.setattr(limits, "MAX_DEVIATION_SUBSPACES", 1000)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="is past the cap of 1000$"):
        cd.random_model_deviation(lf.first_family(5), 0.5, 100)
    assert time.perf_counter() - start < 2.0


def test_deviation_cap_counts_hyperplanes_then_flats(monkeypatch):
    # first(5) has 2,057 hyperplanes: a cap of 1,000 stops their pair
    # loop, and a cap of 5,000 passes it and stops the flats.
    for cap, stage in ((1000, "collision hyperplanes"), (5000, "codim-2 lattice")):
        monkeypatch.setattr(limits, "MAX_DEVIATION_SUBSPACES", cap)
        start = time.perf_counter()
        with pytest.raises(ResourceError,
                           match=f"^{stage}.* {cap + 1} is past the cap of {cap}$"):
            cd.random_model_deviation(lf.first_family(5), 0.5, 100)
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
        sys = oracles.random_system(rng, 2, int(rng.integers(3, 6)))
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
        got = engine.contributions(alpha, engine.fractions(S)[1])[1]
        want = cd.lfc_average_exact(model, sys, None, box) - 1.0
        assert got == pytest.approx(want, rel=1e-12, abs=0), (checked, sys)
        checked += 1
    assert affected > 30


def test_engine_counts_each_class_once_and_keeps_fractions_per_width():
    # Rows that differ only in signs or in the order of their coefficients
    # share one count, yet each row's box fraction must be its own exact
    # count over the box.  Each system holds its forms and their mirror
    # images in x_0 with the constant negated, so its rows come in pairs
    # with x_0 and rhs flipped.
    rng = np.random.default_rng(3131)
    merged = affine = 0
    for _ in range(20):
        base = oracles.random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        forms = {(f.coeffs, f.constant) for f in base.forms}
        forms |= {((-a[0],) + a[1:], -b) for a, b in forms}
        sys = lf.LinearSystem(d=base.d, forms=tuple(
            lf.LinearForm(a, b) for a, b in sorted(forms)))
        try:
            engine = cd._DeviationEngine(sys)
        except DomainError:   # no collision hyperplane holds integer points
            continue
        merged += len(engine.rows) - len(set(engine.classes))
        affine += sum(1 for row in engine.rows if row[-1])
        for S in (2, 7, 40):
            fracs, excl = engine.fractions(S)
            assert fracs[:len(engine.rows)].tolist() == [
                cd.count_hyperplane_points(row[:-1], S, rhs=row[-1]) / (2 * S + 1) ** sys.d
                for row in engine.rows]
            # Contributions leave the fractions alone, and a caller's edit stays its own.
            fracs[0] = excl[0] = -1.0
            again, excl_again = engine.fractions(S)
            engine.contributions(0.05, excl_again)
            assert ([again.tolist(), excl_again.tolist()]
                    == [f.tolist() for f in engine.fractions(S)])
            assert again[0] != -1.0 and excl_again[0] != -1.0
    assert merged >= 100 and affine >= 100


def _loop_evaluate(engine, alpha, S):
    """The engine's evaluation as one float loop over its terms, the
    reference that its array evaluation must match float for float."""
    width = 2 * S + 1
    box_total = width ** engine.d
    counts = {key: cd.count_hyperplane_points(key[0], S, rhs=key[1])
              for key in set(engine.classes)}
    frac1 = [counts[key] / box_total for key in engine.classes]
    frac2 = [1.0 / (covol * width * width) for _, covol in engine.flats]
    excl = frac1 + frac2
    for (parents, _), f2 in zip(engine.flats, frac2):
        for parent in parents:
            excl[parent] -= f2
    gains = {size: alpha ** (size - engine.t) - 1.0 for _, size, _ in engine.entries}
    contributions = []
    total = 0.0
    for (_, size, _), ex in zip(engine.entries, excl):
        contribution = ex * gains[size]
        total += contribution
        contributions.append(contribution)
    return frac1 + frac2, excl, contributions, total


def test_engine_arrays_match_the_term_loop():
    rng = np.random.default_rng(3434)
    checked = flats = 0
    for homogeneous in (False, True):
        for _ in range(10):
            sys = oracles.random_system(rng, int(rng.integers(2, 5)), int(rng.integers(4, 9)),
                                 homogeneous=homogeneous)
            try:
                engine = cd._DeviationEngine(sys)
            except DomainError:   # no collision hyperplane holds integer points
                continue
            for alpha in (0.3, 0.05):
                for S in (2, 7, 40, 10 ** 5):
                    fracs, excl = engine.fractions(S)
                    contributions, total = engine.contributions(alpha, excl)
                    got = fracs.tolist(), excl.tolist(), contributions.tolist(), total
                    assert got == _loop_evaluate(engine, alpha, S), (sys, alpha, S)
                    assert type(total) is float
            checked += 1
            flats += len(engine.flats)
    assert checked >= 18 and flats >= 1200


def test_deviation_checks_alpha_and_width_before_building_an_engine(monkeypatch):
    # first(4) is past a cap of 10 and took 0.5 s to build before a bad
    # alpha or width was seen.
    monkeypatch.setattr(limits, "MAX_DEVIATION_SUBSPACES", 10)
    cd._engine.cache_clear()
    for alpha, S in ((2.0, 10), (0.0, 10), (math.nan, 10), (0.5, 1)):
        with pytest.raises(DomainError, match="^(alpha|width)"):
            cd.random_model_deviation(lf.first_family(4), alpha, S)
    info = cd._engine.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


def test_engine_cache_keeps_the_last_system():
    cd._engine.cache_clear()
    first = cd.random_model_deviation(lf.first_family(3), 0.1, 1000)
    again = cd.random_model_deviation(lf.first_family(3), 0.1, 1000)   # an equal system
    assert again == first
    assert cd._engine.cache_info()[:2] == (1, 1)   # hits, misses
    cd.random_model_deviation(lf.second_family(2), 0.1, 1000)
    cd.random_model_deviation(lf.first_family(3), 0.1, 1000)
    assert cd._engine.cache_info()[:2] == (1, 3)


def test_patched_cap_misses_the_engine_cache(monkeypatch):
    # first(3) has 37 hyperplanes and 347 flats.
    sys = lf.first_family(3)
    calls = [lambda: cd.random_model_deviation(sys, 0.5, 100),
             lambda: cd.width_threshold_fit(sys, (0.2, 0.1, 0.05))]
    messages = {}
    for cached in (False, True):
        cd._engine.cache_clear()
        if cached:
            for call in calls:
                call()
        for cap in (10, 100):
            with monkeypatch.context() as patch:
                patch.setattr(limits, "MAX_DEVIATION_SUBSPACES", cap)
                for i, call in enumerate(calls):
                    with pytest.raises(ResourceError) as err:
                        call()
                    messages.setdefault((cap, i), set()).add(str(err.value))
    assert messages == {
        (cap, i): {f"{stage} {cap + 1} is past the cap of {cap}"}
        for cap, stage in ((10, "collision hyperplanes"),
                           (100, "codim-2 lattice: hyperplanes plus flats"))
        for i in range(2)}


def test_threshold_fit_leaves_the_cached_engine_unchanged():
    sys = lf.third_family(3, 1)
    cd._engine.cache_clear()
    engine = cd._engine(sys, limits.MAX_DEVIATION_SUBSPACES)
    before = pickle.dumps(vars(engine))
    cd.width_threshold_fit(sys, [0.2, 0.1, 0.05])
    cd.random_model_deviation(sys, 0.1, 50)
    assert cd._engine(sys, limits.MAX_DEVIATION_SUBSPACES) is engine
    assert pickle.dumps(vars(engine)) == before


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


def test_threshold_rows_are_the_deviation_reports_at_their_width():
    # Each row reads the engine's arrays at S = max(2, round(S*)); its total
    # and first largest term must be random_model_deviation's there.
    rng = np.random.default_rng(3636)
    systems = [lf.third_family(3, 1), lf.third_family(3, 2), lf.second_family(2),
               lf.first_family(3)]
    while len(systems) < 104:
        sys = oracles.random_system(rng, int(rng.integers(2, 5)), int(rng.integers(3, 7)))
        try:
            cd._DeviationEngine(sys)
        except DomainError:   # no collision hyperplane holds integer points
            continue
        systems.append(sys)
    for sys in systems:
        for row in cd.width_threshold_fit(sys, (0.3, 0.2, 0.1)).rows:
            report = cd.random_model_deviation(sys, row.alpha, max(2, round(row.S_star)))
            assert (row.deviation, row.dominant_codim, row.dominant_ratio) == (
                report.total, report.dominant.codim, report.dominant.ratio), sys


def test_threshold_fit_builds_no_report(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the fit built a report object")
    monkeypatch.setattr(cd, "SubspaceTerm", forbidden)
    monkeypatch.setattr(cd, "DeviationReport", forbidden)
    fit = cd.width_threshold_fit(lf.first_family(3), (0.3, 0.2, 0.1))
    assert all(row.dominant_ratio == 4 for row in fit.rows)


@pytest.mark.parametrize("family, args", [("first", (2,)), ("first", (3,)), ("second", (2,)),
                                          ("second", (3,)), ("third", (3, 1)),
                                          ("third", (3, 2))])
def test_threshold_slope_converges_to_the_collision_index(family, args):
    # At small alpha S* runs far past 2^40 (to about 4 * 10^18), and the
    # engine's asymptote is the exact index.
    sys = getattr(lf, f"{family}_family")(*args)
    fit = cd.width_threshold_fit(sys, (1e-4, 5e-5, 2.5e-5))
    assert fit.slope == pytest.approx(float(lf.lindex(sys).value), abs=1e-3)


def test_threshold_fit_of_an_affine_system_at_small_alpha():
    # S* reaches about 4.7 * 10^10, where a boxcar at S would pass the array
    # cap; the affine rows' quasi-polynomials are sampled near their rhs.
    sys = lf.parse_system("0; 1 0\n0; 0 0\n0; 1 2\n1; 0 0\n5; 0 2\n6; 0 0\n")
    fit = cd.width_threshold_fit(sys, (1e-8, 1e-9, 1e-10))
    assert abs(fit.slope - 1) <= 0.01
    assert all(row.dominant_ratio == 1 for row in fit.rows)
    assert fit.rows[-1].S_star > 4 * 10 ** 10


def test_threshold_bracket_stops_inside_the_float_range():
    # The deviation never reaches 1e-300, so the bracket doubles to the
    # widest box whose flat densities are floats and stops there: one
    # doubling more would overflow covol * (2S+1)^2.
    sys = lf.first_family(2)
    engine = cd._DeviationEngine(sys)
    top = Fraction(max(float(engine.covol.max()), 1.0))
    widest = 4
    while top * (2 * (2 * widest) + 1) ** 2 <= Fraction(np.finfo(float).max):
        widest *= 2
    assert widest > 1 << 500
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError,
                           match=f"^deviation never fell below 1e-300 up to S={widest}$"):
            cd.width_threshold_fit(sys, (0.3, 0.2, 0.1), target=1e-300)
        assert np.all(engine.fractions(widest)[0] > 0)
        with pytest.raises(RuntimeWarning, match="overflow"):
            engine.fractions(2 * widest)


def test_threshold_fit_keeps_numbers_per_width():
    # A refused fit brackets about 500 widths; it keeps each alpha's total
    # and dominant entry per width, not the width's fractions (first(3)
    # peaked at 1.65 MB when it kept them, first(4) at 144 MB).
    sys = lf.first_family(3)
    cd._engine(sys, limits.MAX_DEVIATION_SUBSPACES)   # built outside the trace
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match="^deviation never fell below 1e-300"):
            cd.width_threshold_fit(sys, (0.3, 0.2, 0.1), target=1e-300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2 ** 20


def test_threshold_fit_validation():
    with pytest.raises(DomainError):
        cd.width_threshold_fit(lf.second_family(2), [0.2, 0.1])
    with pytest.raises(DomainError):
        cd.width_threshold_fit(lf.second_family(2), [0.2, 0.1, 1.5])


@pytest.mark.parametrize("alphas, distinct", [((0.3, 0.3, 0.3), 1),
                                               ((0.3, 0.2, 0.3, 0.2), 2)])
def test_threshold_fit_needs_three_distinct_alphas(alphas, distinct):
    # A fit through repeated alphas has fewer than 3 x values: (0.3,) * 3
    # once gave slope 1.1778 from np.polyfit on a single point.
    with pytest.raises(DomainError,
                       match=f"^need at least 3 distinct alpha values, got {distinct}$"):
        cd.width_threshold_fit(lf.third_family(3, 1), alphas)


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0])
def test_threshold_fit_rejects_bad_target(target):
    with pytest.raises(DomainError, match="target"):
        cd.width_threshold_fit(lf.second_family(2), [0.2, 0.1, 0.05],
                               target=target)
