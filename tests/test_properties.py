"""Property tests: the packed kernels in aplab against dense and brute force,
and the integer echelon in linforms against a Fraction row reduction.

They need hypothesis and are skipped without it.
"""

import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    # Collect each test and skip it, so that running this file alone
    # exits 0 rather than with pytest's "no tests collected" code.
    from unittest import mock
    st = mock.MagicMock()
    given = settings = lambda *_, **__: pytest.mark.skip(reason="needs hypothesis")

import oracles
from narrowlab import aplab as ap
from narrowlab import linforms as lf
from narrowlab import numtheory as nt

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
    assert got == pytest.approx(oracles.lambda_D(fs, D), rel=1e-12, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=400),
       st.integers(1, 4), st.integers(1, 90))
def test_packed_ap_count_equals_enumeration(bits, k, d):
    flags = np.array(bits, dtype=bool)
    got = ap.packed_ap_count(nt.pack_bits(flags), len(flags) - (k - 1) * d, k, d)
    assert got == oracles.ap_count(flags, k, d)


@st.composite
def augmented_matrices(draw):
    width = draw(st.integers(2, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * width),
                         min_size=1, max_size=6))
    return rows, draw(st.permutations(range(len(rows))))


@settings(max_examples=300, deadline=None)
@given(augmented_matrices())
def test_integer_echelon_equals_fraction_rref(case):
    rows, order = case
    ech = lf._echelon(rows)
    want, feasible = oracles.fraction_rref(rows)
    assert lf._as_subspace(ech).rows == want
    for p, r in ech:
        assert r[p] > 0 and math.gcd(*r) == 1
        assert all(r[q] == 0 for q, _ in ech if q != p)
    rank = np.linalg.matrix_rank(np.array(rows, dtype=float))
    coeff_rank = np.linalg.matrix_rank(np.array(rows, dtype=float)[:, :-1])
    assert len(ech) == len(want) == rank
    assert lf._feasible(ech) == feasible == (coeff_rank == rank)
    grown = ()
    for i in order:
        grown = lf._echelon_add(grown, rows[i])
    assert grown == ech
