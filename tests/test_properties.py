"""Property tests: the packed kernels in aplab against dense and brute force.

They need hypothesis and are skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from narrowlab import aplab as ap
from test_kernels import _brute_lambda, _direct_ap_count

SCALES = (0.0, 1.0, -1.0, 2.5, -0.375, math.log(10007))


@st.composite
def scaled_indicators(draw):
    n = draw(st.integers(2, 70))
    k = draw(st.integers(1, 4))
    D = draw(st.integers(1, n - 1))
    fs = []
    for _ in range(k):
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        fs.append(np.where(bits, draw(st.sampled_from(SCALES)), 0.0))
    return fs, D


@settings(max_examples=150, deadline=None)
@given(scaled_indicators())
def test_lambda_d_bitset_equals_dense_equals_brute(case):
    fs, D = case
    got = ap.lambda_D(fs, D)
    assert got == pytest.approx(ap.lambda_sweep(np.vstack(fs), D), rel=1e-12, abs=1e-15)
    assert got == pytest.approx(_brute_lambda(fs, D), rel=1e-12, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=400),
       st.integers(1, 4), st.integers(1, 90))
def test_packed_ap_count_equals_enumeration(bits, k, d):
    flags = np.array(bits, dtype=bool)
    assert ap.ap_count(flags, k, d) == _direct_ap_count(flags, k, d)
