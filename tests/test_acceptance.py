"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion NN PASS`` or ``criterion NN FAIL``
line straight to the terminal (bypassing capture) in addition to the
usual pytest verdict, so a log of this file doubles as a checklist.

The expensive shared inputs, the factor sieve covering the whole
majorant ladder and the three tabulated majorants, are module-scoped
fixtures.  The full file takes on the order of ten minutes, dominated
by the codimension-2 search at k = 4 and the long prime-signal sweep.
"""

import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from narrowlab import aplab
from narrowlab import cutoff
from narrowlab import linforms as lf
from narrowlab import majorant
from narrowlab import numtheory as nt
from narrowlab import singular
from narrowlab.conditions import width_threshold_fit

LADDER = (10 ** 5 + 3, 10 ** 6 + 3, 10 ** 7 + 19)
SIEVE_TOP = 6 * LADDER[-1] + 1
R_EXP = 0.45


@contextlib.contextmanager
def _criterion(capsys, number):
    """Collect (ok, detail) checks and emit one PASS/FAIL line at the end."""
    checks = []

    def check(ok, detail):
        checks.append((bool(ok), detail))

    try:
        yield check
    except BaseException as exc:
        with capsys.disabled():
            print(f"\ncriterion {number:02d} FAIL ({exc!r})")
        raise
    failed = [detail for ok, detail in checks if not ok]
    with capsys.disabled():
        print(f"\ncriterion {number:02d} {'FAIL' if failed else 'PASS'}")
    assert not failed, f"criterion {number:02d}: " + "; ".join(failed)


@pytest.fixture(scope="module")
def big_sieve():
    return nt.build_factor_sieve(SIEVE_TOP)


@pytest.fixture(scope="module")
def ladder_tables(big_sieve):
    chi = cutoff.make_cutoff("cosine")
    tables = {}
    for nprime in LADDER:
        ctx = nt.primorial_context(3, 1, nprime)
        R = float(ctx.W * nprime) ** R_EXP
        tables[nprime] = majorant.build_majorant(ctx, R, chi, big_sieve)
    return tables


def test_criterion_01_collision_index_of_named_families(capsys):
    with _criterion(capsys, 1) as check:
        t0 = time.perf_counter()
        for k in (2, 3):
            got = lf.lindex(lf.first_family(k)).value
            want = Fraction((k - 1) * 2 ** (k - 2))
            check(got == want, f"first({k}) gave {got}, want {want}")
        elapsed = time.perf_counter() - t0
        check(elapsed < 60.0, f"first-family indices took {elapsed:.1f}s")
        for k in (2, 3):
            got = lf.lindex(lf.second_family(k)).value
            want = Fraction(2 ** (k - 1))
            check(got == want, f"second({k}) gave {got}, want {want}")
            for j in range(1, k):
                got = lf.lindex(lf.third_family(k, j)).value
                want = Fraction(k - 1)
                check(got == want, f"third({k},{j}) gave {got}, want {want}")


def test_criterion_02_min_distinct_lower_bounds(capsys):
    with _criterion(capsys, 2) as check:
        t0 = time.perf_counter()
        for k in (2, 3, 4):
            family = lf.first_family(k)
            one = lf.min_distinct_on_codim(family, 1).count
            two = lf.min_distinct_on_codim(family, 2).count
            check(one >= (k + 1) * 2 ** (k - 2),
                  f"k={k} codim 1 gave {one} < {(k + 1) * 2 ** (k - 2)}")
            check(two >= 2 ** (k - 1),
                  f"k={k} codim 2 gave {two} < {2 ** (k - 1)}")
        elapsed = time.perf_counter() - t0
        check(elapsed < 600.0, f"search took {elapsed:.1f}s")


def test_criterion_03_lindex_matches_bruteforce_on_100_systems(capsys):
    rng = np.random.default_rng(20260816)
    with _criterion(capsys, 3) as check:
        t0 = time.perf_counter()
        mismatches = []
        for trial in range(100):
            d = int(rng.integers(2, 5))
            t = int(rng.integers(2, 7))
            system = oracles.random_system(rng, d, t)
            fast = lf.lindex(system).value
            slow = lf.lindex_bruteforce(system)
            if fast != slow:
                mismatches.append((trial, fast, slow))
        check(not mismatches, f"mismatches: {mismatches[:3]}")
        elapsed = time.perf_counter() - t0
        check(elapsed < 300.0, f"100 systems took {elapsed:.1f}s")


def test_criterion_04_sieve_factor_normalization(capsys):
    with _criterion(capsys, 4) as check:
        for kind in ("cosine", "bump"):
            spec = cutoff.make_cutoff(kind)
            residual = cutoff.norm_residual(spec)
            check(residual < 1e-9, f"{kind} norm residual {residual:.2e}")
            c2 = cutoff.sieve_factor(spec, 2)
            check(abs(c2 - 1.0) <= 1e-3, f"{kind} c2 = {c2:.6f}")


def test_criterion_05_singular_series_value_and_invariance(capsys, big_sieve):
    with _criterion(capsys, 5) as check:
        primes = np.flatnonzero(big_sieve.prime_mask(10 ** 7))
        odd = primes[primes > 2].astype(np.float64)
        twin_oracle = 2.0 * float(np.prod(1.0 - 1.0 / (odd - 1.0) ** 2))
        got = singular.singular_series((0, 2), P_max=10 ** 7).value
        check(abs(got - twin_oracle) < 1e-8,
              f"G(0,2) = {got!r} vs oracle {twin_oracle!r}")
        check(abs(got - 1.32032) <= 1e-4, f"G(0,2) = {got:.6f}")
        zero = singular.singular_series((0, 1)).value
        check(zero == 0.0, f"G(0,1) = {zero!r}")
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            r = int(rng.integers(2, 5))
            h = rng.integers(-30, 31, size=r)
            c = int(rng.integers(-50, 51))
            perm = rng.permutation(r)
            base = singular.singular_series(tuple(int(v) for v in h),
                                            P_max=10 ** 4).value
            moved = singular.singular_series(
                tuple(int(v) + c for v in h[perm]), P_max=10 ** 4).value
            scale = max(abs(base), abs(moved), 1e-30)
            worst = max(worst, abs(base - moved) / scale)
        check(worst <= 1e-12, f"invariance deviation {worst:.2e}")


def test_criterion_06_gallagher_average_trend(capsys):
    with _criterion(capsys, 6) as check:
        box = ((1, 500), (1, 500))
        reports = [
            singular.gallagher_average("GW", box, W=nt.primorial(w))
            for w in (2, 3, 5, 7)
        ]
        frozen = (0.006317, 0.003909, 0.002943, 0.002385)
        for w, rep, want in zip((2, 3, 5, 7), reports, frozen):
            check(rep.mode == "exact", f"w={w} mode {rep.mode}")
            check(abs(rep.abs_dev - want) < 5e-4,
                  f"w={w} |mean-1| = {rep.abs_dev:.6f}, want about {want}")
        for prev, cur in zip(reports, reports[1:]):
            slack = 2.0 * (prev.stderr + cur.stderr)
            check(cur.abs_dev <= prev.abs_dev + slack,
                  f"|mean-1| rose from {prev.abs_dev:.6f} to {cur.abs_dev:.6f}")


def test_criterion_07_majorant_floor_exhaustive(capsys, big_sieve, ladder_tables):
    with _criterion(capsys, 7) as check:
        table = ladder_tables[10 ** 6 + 3]
        t0 = time.perf_counter()
        violations = majorant.check_minorization(table, big_sieve)
        elapsed = time.perf_counter() - t0
        check(violations == 0, f"{violations} values below the floor")
        check(elapsed < 60.0, f"exhaustive check took {elapsed:.1f}s")


def test_criterion_08_majorant_mean_and_pair_trend(capsys, ladder_tables):
    with _criterion(capsys, 8) as check:
        means = [float(ladder_tables[n].values.mean()) for n in LADDER]
        check(0.5 <= means[1] <= 1.5, f"mean at N'={LADDER[1]} is {means[1]:.4f}")
        devs = [abs(m - 1.0) for m in means]
        for prev, cur in zip(devs, devs[1:]):
            check(cur <= prev + 1e-12, f"|mean-1| ladder not non-increasing: {devs}")
        ratios = [
            majorant.majorant_pair_correlation(ladder_tables[n], 6).ratio
            for n in LADDER
        ]
        for n, ratio in zip(LADDER, ratios):
            check(0.5 <= ratio <= 2.0, f"N'={n} pair ratio {ratio:.4f}")
        logdevs = [abs(math.log(r)) for r in ratios]
        for prev, cur in zip(logdevs, logdevs[1:]):
            check(cur <= prev + 1e-12,
                  f"|log ratio| ladder not non-increasing: {logdevs}")


def test_criterion_09_width_threshold_exponents(capsys):
    with _criterion(capsys, 9) as check:
        alphas = (0.2, 0.1, 0.05)
        t0 = time.perf_counter()
        cases = (
            (lf.first_family(3), 4.0, 0.3, "first(3)"),
            (lf.third_family(3, 1), 2.0, 0.2, "third(3,1)"),
            (lf.third_family(3, 2), 2.0, 0.2, "third(3,2)"),
        )
        for system, want, tol, name in cases:
            fit = width_threshold_fit(system, alphas)
            check(abs(fit.slope - want) <= tol,
                  f"{name} slope {fit.slope:.4f} not within {want} +- {tol}")
            index = lf.lindex(system).value
            for row in fit.rows:
                check(row.dominant_ratio == index,
                      f"{name} alpha={row.alpha} dominant ratio "
                      f"{row.dominant_ratio} != {index}")
        elapsed = time.perf_counter() - t0
        check(elapsed < 300.0, f"fits took {elapsed:.1f}s")


def test_criterion_10_narrow_progressions_at_desk_scale(capsys, big_sieve):
    with _criterion(capsys, 10) as check:
        report = aplab.narrowness_report((10 ** 5, 10 ** 6, 10 ** 7), 3, 0.0,
                                         None, big_sieve)
        for row in report.rows:
            check(1 <= row.min_d <= row.log_pow_high,
                  f"N={row.N}: min_d={row.min_d} outside "
                  f"[1, {row.log_pow_high:.1f}]")
        nprime = 10 ** 6 + 3
        D = math.ceil(math.log(nprime) ** 4)
        f = aplab.prime_signal(big_sieve, nprime)
        value = aplab.lambda_D([f, f, f], D)
        check(value > 0.0, f"Lambda_D = {value!r} at D={D}")
        check(abs(value - 1.619145) < 5e-4,
              f"Lambda_D = {value:.6f}, want about 1.619145")


def test_criterion_11_count_against_prediction(capsys, big_sieve):
    with _criterion(capsys, 11) as check:
        count = aplab.count_aps_with_difference(10 ** 7, 3, 6, big_sieve)
        check(count == 17194, f"count = {count}")
        prediction = aplab.hl_prediction(10 ** 7, 3, 6).value
        ratio = count / prediction
        check(abs(ratio - 1.0) <= 0.10,
              f"count {count} vs prediction {prediction:.1f} (ratio {ratio:.4f})")


def test_criterion_12_lambda_d_bruteforce_equivalence(capsys):
    rng = np.random.default_rng(12)
    with _criterion(capsys, 12) as check:
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(12, 40))
            m = int(rng.integers(1, 4))
            D = int(rng.integers(1, n))
            fs = [rng.uniform(-1.0, 1.0, size=n) for _ in range(m)]
            worst = max(worst, abs(aplab.lambda_D(fs, D) - oracles.lambda_D(fs, D)))
        check(worst <= 1e-10, f"worst |fast - brute| = {worst:.2e}")
