import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from narrowlab import conditions as cd
from narrowlab import linforms as lf
from narrowlab.errors import DomainError, ResourceError


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
    vals = rnd.lookup(np.arange(101))
    assert set(np.unique(vals)) <= {0.0, 4.0}
    again = cd.WeightModel.random(0.25, 3, 101)
    assert np.array_equal(vals, again.lookup(np.arange(101)))
    with pytest.raises(DomainError):
        cd.WeightModel.random(0.0, 0, 101)
    with pytest.raises(DomainError):
        cd.WeightModel.random(1.5, 0, 101)
    with pytest.raises(ResourceError):
        cd.WeightModel.random(0.5, 0, cd.MAX_RANDOM_MODULUS * 2 + 1)


@pytest.mark.parametrize("modulus", [0, -3])
def test_weight_model_modulus_below_one(modulus):
    with pytest.raises(DomainError, match="modulus must be >= 1"):
        cd.WeightModel.constant_one(modulus)
    with pytest.raises(DomainError, match="modulus must be >= 1"):
        cd.WeightModel.random(0.3, 1, modulus)


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
    with pytest.raises(ResourceError):
        cd.count_hyperplane_points([1, 1, 1, -1, -1], 10 ** 5)


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


def test_deviation_without_integer_hyperplanes_is_a_domain_error():
    # 2x = 1 is the only collision, and it holds no integer point.
    sys = lf.LinearSystem(d=1, forms=(lf.LinearForm(coeffs=(2,)),
                                      lf.LinearForm(coeffs=(0,), constant=1)))
    with pytest.raises(DomainError):
        cd.random_model_deviation(sys, 0.3, 10)
    with pytest.raises(DomainError):
        cd.width_threshold_fit(sys, [0.3, 0.2, 0.1])


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
