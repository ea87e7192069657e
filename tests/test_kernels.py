"""Seeded brute-force checks of the hot loops in numtheory and aplab."""

import math

import numpy as np
import pytest

from narrowlab import aplab as ap
from narrowlab import numtheory as nt


def _packed_ap_count(flags, k, d):
    """packed_ap_count over the words of flags: n with flags[n + j*d] set
    for all j in [0, k), no wraparound."""
    return ap.packed_ap_count(nt.pack_bits(flags), len(flags) - (k - 1) * d, k, d)


def _direct_ap_count(flags, k, d):
    return sum(
        1
        for start in range(len(flags) - (k - 1) * d)
        if all(flags[start + j * d] for j in range(k))
    )


def _brute_cyclic_count(sets, D):
    n = len(sets[0])
    return sum(
        1
        for d in range(1, D + 1)
        for start in range(n)
        if all(s[(start + j * d) % n] for j, s in enumerate(sets))
    )


def _brute_lambda(fs, D):
    n = len(fs[0])
    total = 0.0
    for d in range(1, D + 1):
        for start in range(n):
            prod = 1.0
            for j, f in enumerate(fs):
                prod *= f[(start + j * d) % n]
            total += prod
    return total / (n * D)


# Word-boundary lengths for the packed kernels, then seeded random ones.
EDGE_N = (1, 2, 3, 63, 64, 65, 127, 129)
RANDOM_N = tuple(int(n) for n in np.random.default_rng(7).integers(4, 200, size=3))


def _differences(n):
    return sorted({1, max(1, n // 2), max(1, n - 1)})


def test_cyclic_count_matches_brute_force():
    rng = np.random.default_rng(4)
    for n in EDGE_N + RANDOM_N:
        for k in (1, 2, 3, 4):
            sets = [rng.random(n) < 0.7 for _ in range(k)]
            for D in _differences(n):
                got = ap.cyclic_ap_count(sets, D)
                assert got == _brute_cyclic_count(sets, D), (n, k, D)


def test_cyclic_count_composite_moduli_matches_brute_force():
    # gcd(j, n) > 1 splits the step table into several rows; D at and
    # around a word boundary, and past n, wraps those rows.
    rng = np.random.default_rng(9)
    for n in (6, 12, 60, 64, 128):
        for k in (1, 2, 3, 4, 5):
            sets = [rng.random(n) < 0.75 for _ in range(k)]
            for D in (1, 63, 64, 65, n - 1):
                got = ap.cyclic_ap_count(sets, D)
                assert got == _brute_cyclic_count(sets, D), (n, k, D)
            sets[0] = np.zeros(n, dtype=bool)
            assert ap.cyclic_ap_count(sets, 65) == 0, (n, k)


def test_cyclic_count_matches_rolled_sets():
    # Per-d reference: AND sets[j] rolled back by j*d, then count.
    rng = np.random.default_rng(10)
    n, D = 10007, 2000
    for k in (3, 4):
        sets = [rng.random(n) < 0.3 for _ in range(k)]
        want = 0
        for d in range(1, D + 1):
            v = sets[0].copy()
            for j in range(1, k):
                v &= np.roll(sets[j], -j * d)
            want += int(v.sum())
        assert ap.cyclic_ap_count(sets, D) == want, k


def test_lambda_sweep_over_many_blocks_matches_brute_force(monkeypatch):
    # n = 301 positions span several blocks of 64, the last one partial.
    rng = np.random.default_rng(11)
    n = 301
    D = n - 1
    monkeypatch.setattr(ap, "SWEEP_ENTRIES", 64 * D)
    block = ap.SWEEP_ENTRIES // D
    assert n > 2 * block and n % block
    for k in (1, 2, 3, 4):
        fs = [rng.uniform(-1.0, 1.0, n) for _ in range(k)]
        got = ap.lambda_sweep(np.vstack(fs), D)
        assert got == pytest.approx(_brute_lambda(fs, D), rel=1e-12, abs=1e-15), k
    # NaN and inf are not scaled indicators: lambda_D sweeps them densely.
    # At k >= 5 f_0 and f_2 are folded into one operand before the sum.
    base = rng.uniform(0.5, 1.0, n)
    for bad, want in ((np.nan, math.isnan), (np.inf, math.isinf)):
        f = base.copy()
        f[7] = bad
        for k, at in ((3, 0), (5, 0), (5, 2), (6, 0), (6, 2)):
            fs = [base] * k
            fs[at] = f
            got = ap.lambda_D(fs, D)
            assert want(got) and want(_brute_lambda(fs, D)), (bad, k, at)


def test_lambda_sweep_infinite_pivot_entry_matches_brute_force():
    # Term 1 leaves the sum over d only where it is finite: an infinite
    # entry times zero or mixed-sign products is nan, as in the brute-force
    # sum, and times same-signed nonzero products is an infinity.
    rng = np.random.default_rng(13)
    n, D = 97, 40
    positive = rng.uniform(0.5, 1.0, n)
    pivot = positive.copy()
    pivot[5] = -np.inf
    firsts = ((positive, math.isinf),
              (np.where(rng.random(n) < 0.5, positive, 0.0), math.isnan),
              (rng.uniform(-1.0, 1.0, n), math.isnan))
    with np.errstate(invalid="ignore"):
        for k in range(2, 7):
            for first, want in firsts:
                fs = [first, pivot] + [positive] * (k - 2)
                got = ap.lambda_sweep(np.vstack(fs), D)
                brute = _brute_lambda(fs, D)
                assert want(got) and want(brute), k
                assert math.isnan(got) or got == brute, k


def test_lambda_d_non_finite_pivot_past_the_first_block(monkeypatch):
    # fs[1] is searched for infinities once per call: one that sits only
    # in a later block, or in the last entry, must still leave that
    # block's sum over d as in the brute-force sum; a NaN stays NaN.
    rng = np.random.default_rng(14)
    n, D = 97, 40
    monkeypatch.setattr(ap, "SWEEP_ENTRIES", 8 * D)
    block = ap.SWEEP_ENTRIES // D
    positive = rng.uniform(0.5, 1.0, n)
    firsts = (positive, np.where(rng.random(n) < 0.5, positive, 0.0))
    with np.errstate(invalid="ignore"):
        for bad in (np.inf, -np.inf, np.nan):
            for at in (block + 3, n - 1):
                pivot = positive.copy()
                pivot[at] = bad
                for k in (3, 5):
                    for first in firsts:
                        fs = [first, pivot] + [positive] * (k - 2)
                        got, brute = ap.lambda_D(fs, D), _brute_lambda(fs, D)
                        assert not math.isfinite(brute), (bad, at, k)
                        assert got == brute or math.isnan(got) and math.isnan(brute), \
                            (bad, at, k, got, brute)


def test_dense_lambda_d_of_the_benchmark_inputs_is_pinned():
    # The benchmark's dense inputs (three uniform arrays of 10^5 + 3
    # entries from default_rng(seed)), at k = 3, 4, 5: every bit is kept.
    pins = {1: ("0x1.fdb513eb9918cp-4", "0x1.fd90f6301f912p-5", "0x1.fd67584caf8d4p-6"),
            2: ("0x1.001cb90e867c9p-3", "0x1.00710cd5ac374p-4", "0x1.008afd266a402p-5")}
    for seed, want in pins.items():
        rng = np.random.default_rng(seed)
        dense = [rng.uniform(0.0, 1.0, 10 ** 5 + 3) for _ in range(3)]
        got = (ap.lambda_D(dense, 2000), ap.lambda_D(dense + dense[:1], 300),
               ap.lambda_D(dense + dense[:2], 100))
        assert tuple(v.hex() for v in got) == want, seed


def test_lambda_sweep_matches_brute_force_at_every_block_size(monkeypatch):
    # Signed values, so no product's sign hides a misread entry; blocks of
    # one position (also with D past SWEEP_ENTRIES), of 7 (a partial last
    # block at every n but 64) and past every n.
    rng = np.random.default_rng(12)
    for n in (2, 3, 12, 64, 301):
        for k in range(1, 7):
            fs = [rng.uniform(-1.0, 1.0, n) for _ in range(k)]
            for D in _differences(n):
                want = _brute_lambda(fs, D)
                for entries in (D // 2, D, 7 * D, 302 * D):
                    monkeypatch.setattr(ap, "SWEEP_ENTRIES", entries)
                    got = ap.lambda_sweep(np.vstack(fs), D)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (n, k, D, entries)


def test_lambda_d_scaled_indicators_bitset_dense_brute():
    # Distinct and negative scales, and an all-zero array, on the bitset
    # path; the dense sweep and the brute-force mean must agree with it.
    rng = np.random.default_rng(5)
    scales = (2.5, -1.0, 0.375, -3.0)
    for n in EDGE_N[1:] + RANDOM_N:
        for k in (1, 2, 3, 4):
            for zero in (False, True):
                fs = [np.where(rng.random(n) < 0.7, scales[j], 0.0) for j in range(k)]
                if zero:
                    fs[-1] = np.zeros(n)
                for D in _differences(n):
                    got = ap.lambda_D(fs, D)
                    dense = ap.lambda_sweep(np.vstack(fs), D)
                    brute = _brute_lambda(fs, D)
                    assert got == pytest.approx(dense, rel=1e-12, abs=1e-15), (n, k, D)
                    assert got == pytest.approx(brute, rel=1e-12, abs=1e-15), (n, k, D)
                    if zero:   # +0.0 as the dense sweep gives, even with negative scales
                        assert math.copysign(1.0, got) == 1.0 and got == 0.0


def test_lambda_d_dispatch_on_input_values(monkeypatch):
    # Scaled 0/1 arrays take the exact count; real-valued, NaN and inf
    # inputs take the dense sweep.
    paths = []
    sweep, count = ap.lambda_sweep, ap.cyclic_ap_count
    monkeypatch.setattr(ap, "lambda_sweep",
                        lambda fs, D: paths.append("dense") or sweep(fs, D))
    monkeypatch.setattr(ap, "cyclic_ap_count",
                        lambda sets, D: paths.append("bitset") or count(sets, D))
    rng = np.random.default_rng(6)
    n, D = 97, 40
    bits = rng.random(n) < 0.6
    indicator = np.where(bits, -2.0, 0.0)
    cases = {
        "scaled indicators": ([indicator, np.where(bits, 3.0, 0.0)], "bitset"),
        "all zero": ([np.zeros(n), np.ones(n)], "bitset"),
        "real valued": ([rng.uniform(-1.0, 1.0, n), indicator], "dense"),
        "two nonzero values": ([np.where(bits, 1.0, 2.0), indicator], "dense"),
        "nan": ([np.where(bits, np.nan, 0.0), indicator], "dense"),
        "nan beside a scale": ([np.where(bits, 1.0, np.nan), indicator], "dense"),
        "inf": ([np.where(bits, np.inf, 0.0), indicator], "dense"),
        "-inf": ([indicator, np.where(bits, -np.inf, 0.0)], "dense"),
    }
    for name, (fs, path) in cases.items():
        paths.clear()
        with np.errstate(invalid="ignore"):   # inf * 0 in the dense sweep
            got = ap.lambda_D(fs, D)
            want = sweep(np.vstack(fs), D)
        assert paths == [path], name
        if math.isnan(want):
            assert math.isnan(got), name
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), name


def test_ap_count_across_word_boundaries():
    # starts = len(flags) - (k-1)*d, the number of first terms, sits on,
    # one past and one short of a 64-bit word boundary.
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 4):
        for words in (1, 2, 5):
            for rem in (0, 1, 63):
                starts = 64 * words + rem
                d = int(rng.integers(1, 70))
                flags = rng.random(starts + (k - 1) * d) < 0.8
                got = _packed_ap_count(flags, k, d)
                assert got == _direct_ap_count(flags, k, d), (k, starts, d)


def _trial_spf(n):
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return 0


def test_ap_count_matches_direct_enumeration():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        for trial in range(10):
            flags = rng.random(int(rng.integers(1, 600))) < rng.uniform(0.2, 0.9)
            d = int(rng.integers(1, 80))
            got = _packed_ap_count(flags, k, d)
            assert got == _direct_ap_count(flags, k, d), (k, trial, d, len(flags))


def test_ap_count_paths_agree():
    # The packed count and the direct enumeration are two paths to
    # the same count; they must agree on a long sparse array at every k.
    rng = np.random.default_rng(2)
    flags = rng.random(5000) < 0.2
    for k in (2, 3, 4):
        for d in (1, 6, 30):
            assert _packed_ap_count(flags, k, d) == _direct_ap_count(flags, k, d), (k, d)


def test_spf_segment_matches_trial_division():
    # The segment kernel writes every entry's final value into an
    # uninitialised segment, from any start lo.
    rng = np.random.default_rng(1)
    for trial in range(20):
        lo = int(rng.integers(2, 200000))
        size = int(rng.integers(1, 3000))
        hi = lo + size
        base = nt._bootstrap_primes(int(hi ** 0.5) + 1)
        seg = np.full(size, 12345, dtype=np.uint32)
        nt.spf_segment(seg, lo, base)
        want = [_trial_spf(n) or n for n in range(lo, hi)]
        assert seg.tolist() == want, (trial, lo, size)


def _trial_spf_array(limit):
    """spf[0..limit] by trial division by every p >= 2: each n's least
    divisor above 1, stored last; 0 and 1 stay themselves."""
    n = np.arange(limit + 1)
    spf = n.copy()
    for p in range(math.isqrt(limit), 1, -1):
        spf[(n % p == 0) & (n > p)] = p
    return spf


def test_spf_segment_at_wheel_period_edges_matches_trial_division():
    # Starts at, one past and one before a period edge put the wheel at
    # offsets 0, 1 and WHEEL - 1; lengths below one period leave no whole
    # row, two periods leave no tail, and two periods + 1 both.
    want = _trial_spf_array(4 * nt.WHEEL + 2)
    for lo in (0, 1, nt.WHEEL - 1, nt.WHEEL, 2 * nt.WHEEL + 1):
        for size in (1, 7, nt.WHEEL - 1, 2 * nt.WHEEL, 2 * nt.WHEEL + 1):
            hi = lo + size
            base = nt._bootstrap_primes(math.isqrt(hi - 1))
            seg = np.full(size, 12345, dtype=np.uint32)
            nt.spf_segment(seg, lo, base)
            assert np.array_equal(seg, want[lo:hi]), (lo, size)
