"""Tests of the benchmark's reference computations against known values
and brute force.  Run with: python3 -m pytest perfbench"""

import itertools
import math
from fractions import Fraction

import numpy as np

import reference as ref


def test_prime_counts_match_known_values():
    assert ref.prime_count(10 ** 4) == 1229
    assert ref.prime_count(10 ** 7) == 664579        # three segments
    assert np.flatnonzero(ref.prime_flags(90, 110)).tolist() == [7, 11, 13, 17, 19]


def test_smallest_factors_and_divisors_by_trial_division():
    assert ref.smallest_factors([2, 9, 15, 49, 97, 10 ** 6, 7919 * 7927]).tolist() == [
        2, 3, 3, 7, 97, 2, 7919]
    assert ref.prime_divisors(360) == [2, 3, 5]
    assert ref.prime_divisors(1) == []


def test_majorant_value_on_units_and_large_primes():
    R = 1000.0
    log_r = math.log(R)
    want = 2 / (6 * log_r) * (log_r * ref.COSINE_NORM) ** 2
    assert math.isclose(ref.majorant_value(0, 6, 1, R), want, rel_tol=1e-12)
    # 6 * 168 + 1 = 1009 is a prime above R, so only d = 1 contributes.
    assert math.isclose(ref.majorant_value(168, 6, 1, R), want, rel_tol=1e-12)
    # 6 * 4 + 1 = 25: d = 1 and d = 5 contribute.
    lam = log_r * (ref.cosine_cutoff(0.0) - ref.cosine_cutoff(math.log(5) / log_r))
    assert math.isclose(ref.majorant_value(4, 6, 1, R), 2 / (6 * log_r) * lam ** 2,
                        rel_tol=1e-12)


def test_singular_series_twin_constant():
    assert abs(ref.singular_series((0, 2)) - 1.320323) < 1e-4
    assert ref.singular_series((0, 1)) == 0.0
    for a in (0, 1, 2, 6, 30, 35):
        assert math.isclose(ref.progression_series([a], 2, W=6)[0],
                            ref.singular_series((0, a), W=6), rel_tol=1e-12)
    for d in (1, 2, 6, 30, 210):
        assert math.isclose(ref.progression_series([d], 4)[0],
                            ref.singular_series((0, d, 2 * d, 3 * d)), rel_tol=1e-12)


def test_log_integral_gives_li():
    # li(10^6) - li(2) = 78627.549 - 1.045
    assert abs(ref.log_integral(10 ** 6, 1) - 78626.504) < 0.01


def test_progression_counts_against_brute_force():
    flags = ref.prime_flags(0, 200)
    assert ref.ap_count(flags, 100, 3, 2) == 1
    assert ref.ap_count(flags, 150, 3, 6) == sum(
        1 for p in range(151) if all(flags[p + j * 6] for j in range(3)))
    rng = np.random.default_rng(3)
    for k in (3, 4):
        cyc = rng.random(53) < 0.4
        brute = sum(1 for n in range(53) for d in range(1, 20)
                    if all(cyc[(n + j * d) % 53] for j in range(k)))
        assert ref.cyclic_progressions(cyc, 19, k) == brute
        fs = [rng.uniform(-1, 1, 53) for _ in range(k)]
        want = sum(math.prod(fs[j][(n + j * d) % 53] for j in range(k))
                   for n in range(53) for d in range(1, 20)) / (53 * 19)
        assert abs(ref.cyclic_sweep(fs, 19) - want) < 1e-12


def test_exact_rank_and_partitions():
    assert ref.rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert ref.rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert sum(1 for _ in ref.set_partitions(5)) == 52


def test_collision_index_and_restricted_count_by_hand():
    # third family k = 3, j = 1: zero and (i - 1) d_tau for i = 2, 3; index 2.
    forms = [((0, 0), 0), ((1, 0), 0), ((2, 0), 0), ((0, 1), 0), ((0, 2), 0)]
    assert ref.collision_index(forms) == Fraction(2)
    # on x = 0 the forms 0, x, 2x coincide, leaving {0, y, 2y}.
    assert ref.distinct_on_subspace(forms, [(1, 0, 0)]) == 3
    assert ref.partition_codim(forms, [[0, 1], [2], [3], [4]]) == 1
    assert ref.partition_codim([((1,), 0), ((1,), 1)], [[0, 1]]) is None


def test_hyperplane_count_against_enumeration():
    for coeffs, rhs in (((1, 1, -1, -1), 0), ((0, 2, -1, 3), 1), ((1, -2, 1), 0),
                        ((3,), 3), ((0, 0), 0)):
        for S in (1, 2, 4):
            brute = sum(1 for x in itertools.product(range(-S, S + 1), repeat=len(coeffs))
                        if sum(c * v for c, v in zip(coeffs, x)) == rhs)
            assert ref.hyperplane_count(coeffs, S, rhs) == brute
    n = 2 * 244038 + 1
    assert ref.hyperplane_count([1, 1, -1, -1], 244038) == (2 * n ** 3 + n) // 3


def test_linear_forms_average_against_enumeration():
    rng = np.random.default_rng(7)
    values = rng.random(11)
    forms = [((1, 0), 0), ((0, 1), 0), ((1, 1), 2)]
    S = 1
    total = 0.0
    for x in itertools.product(range(-S, S + 1), repeat=2):
        for n in range(11):
            total += math.prod(values[(n + c[0] * x[0] + c[1] * x[1] + k) % 11]
                               for c, k in forms)
    assert math.isclose(ref.linear_forms_average(values, forms, S), total / (9 * 11),
                        rel_tol=1e-12)
