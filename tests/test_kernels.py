"""Seeded brute-force checks of the hot loops in numtheory and aplab."""

import numpy as np

from narrowlab import aplab as ap
from narrowlab import numtheory as nt


def _direct_ap_count(flags, k, d):
    return sum(
        1
        for start in range(len(flags) - (k - 1) * d)
        if all(flags[start + j * d] for j in range(k))
    )


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
            got = ap.ap_count(flags, k, d)
            assert got == _direct_ap_count(flags, k, d), (k, trial, d, len(flags))


def test_ap_count_paths_agree():
    # The vectorised ap_count and the direct enumeration are two paths to
    # the same count; they must agree on a long sparse array at every k.
    rng = np.random.default_rng(2)
    flags = rng.random(5000) < 0.2
    for k in (2, 3, 4):
        for d in (1, 6, 30):
            assert ap.ap_count(flags, k, d) == _direct_ap_count(flags, k, d), (k, d)


def test_spf_segment_matches_trial_division():
    rng = np.random.default_rng(1)
    for trial in range(20):
        lo = int(rng.integers(2, 200000))
        size = int(rng.integers(1, 3000))
        hi = lo + size
        base = nt._bootstrap_primes(int(hi ** 0.5) + 1)
        seg = np.zeros(size, dtype=np.uint32)
        nt.spf_segment(seg, lo, base)
        want = [_trial_spf(n) for n in range(lo, hi)]
        assert seg.tolist() == want, (trial, lo, size)
