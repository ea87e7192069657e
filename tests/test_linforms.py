import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from narrowlab import linforms as lf
from narrowlab.errors import DomainError, UnsupportedError


def _random_system(rng, d, t):
    forms = set()
    while len(forms) < t:
        coeffs = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        constant = int(rng.integers(-2, 3))
        forms.add((coeffs, constant))
    return lf.LinearSystem(
        d=d,
        forms=tuple(lf.LinearForm(coeffs=c, constant=b) for c, b in sorted(forms)),
    )


def test_linear_form_basics():
    f = lf.LinearForm(coeffs=(2, -1), constant=3)
    assert f.dim == 2
    assert f.evaluate((1, 4)) == 2 - 4 + 3
    assert f.functional() == (2, -1, 3)


def test_system_rejects_mismatched_and_duplicate_forms():
    with pytest.raises(DomainError):
        lf.LinearSystem(d=2, forms=(lf.LinearForm(coeffs=(1,)),))
    dup = lf.LinearForm(coeffs=(1, 0))
    with pytest.raises(DomainError):
        lf.LinearSystem(d=2, forms=(dup, dup))
    with pytest.raises(DomainError):
        lf.LinearSystem(d=2, forms=())


def test_partition_validation():
    with pytest.raises(DomainError):
        lf.FormPartition(atoms=((0, 1), (1, 2)))
    with pytest.raises(DomainError):
        lf.FormPartition(atoms=((0, 2),))
    pi = lf.FormPartition(atoms=((2, 0), (1,)))
    assert pi.atoms == ((0, 2), (1,))
    assert pi.size == 2 and pi.t == 3


def test_psi_j_coefficients():
    assert lf.psi_j(3, 1).coeffs == (0, -1, -2)
    assert lf.psi_j(3, 2).coeffs == (1, 0, -1)
    assert lf.psi_j(3, 3).coeffs == (2, 1, 0)
    with pytest.raises(DomainError):
        lf.psi_j(3, 0)
    with pytest.raises(DomainError):
        lf.psi_j(1, 1)


def test_first_family_smallest_case():
    sys2 = lf.first_family(2)
    assert sys2.d == 4 and sys2.t == 4
    got = {f.coeffs for f in sys2.forms}
    assert got == {(0, -1, 0, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 0, 1, 0)}
    assert all(f.constant == 0 for f in sys2.forms)


def test_family_shapes():
    for k in (2, 3, 4):
        fam1 = lf.first_family(k)
        assert fam1.d == 2 * k and fam1.t == k * 2 ** (k - 1)
        fam2 = lf.second_family(k)
        assert fam2.d == 2 * k and fam2.t == 2 ** k
        scale = math.factorial(k)
        assert all(
            set(f.coeffs) <= {0, scale} and sum(f.coeffs) == k * scale
            for f in fam2.forms
        )
        fam3 = lf.third_family(k, 1)
        assert fam3.d == 2 and fam3.t == 2 * (k - 1) + 1
        assert lf.LinearForm(coeffs=(0, 0)) in fam3.forms


def test_codim_of_partition_first_family():
    sys2 = lf.first_family(2)
    one_pair = lf.FormPartition(atoms=((0, 1), (2,), (3,)))
    assert lf.codim_of_partition(sys2, one_pair) == 1
    two_pairs = lf.FormPartition(atoms=((0, 1), (2, 3)))
    assert lf.codim_of_partition(sys2, two_pairs) == 2


def test_codim_infeasible_partition():
    shifted = lf.LinearSystem(
        d=1,
        forms=(lf.LinearForm(coeffs=(1,)), lf.LinearForm(coeffs=(1,), constant=1)),
    )
    pi = lf.FormPartition(atoms=((0, 1),))
    assert lf.codim_of_partition(shifted, pi) is lf.INFINITE_CODIM


def test_subspace_and_induced_partition():
    sys2 = lf.first_family(2)
    pi = lf.FormPartition(atoms=((0, 1), (2,), (3,)))
    sub = lf.subspace_of_partition(sys2, pi)
    assert sub.feasible and sub.codim == 1
    induced = lf.induced_partition(sys2, sub)
    assert (0, 1) in induced.atoms


def test_induced_partition_of_empty_subspace_keeps_constants_apart():
    # The rhs row (0, 1) of an empty subspace is not subtracted away, so
    # forms that differ only in their constant stay in separate atoms.
    shifted = lf.LinearSystem(
        d=1,
        forms=(lf.LinearForm(coeffs=(1,)), lf.LinearForm(coeffs=(1,), constant=1)),
    )
    sub = lf.subspace_of_partition(shifted, lf.FormPartition(atoms=((0, 1),)))
    assert not sub.feasible and sub.rows == ((0, 1),)
    assert lf.induced_partition(shifted, sub).atoms == ((0,), (1,))


def test_lindex_family_values():
    cases = [
        (lf.first_family(2), Fraction(1)),
        (lf.first_family(3), Fraction(4)),
        (lf.second_family(2), Fraction(2)),
        (lf.second_family(3), Fraction(4)),
        (lf.third_family(2, 1), Fraction(1)),
        (lf.third_family(3, 1), Fraction(2)),
        (lf.third_family(3, 2), Fraction(2)),
    ]
    for sys, want in cases:
        res = lf.lindex(sys)
        assert res.value == want, (sys.t, res.value, want)


def test_lindex_witness_is_consistent():
    rng = np.random.default_rng(7)
    randoms = [_random_system(rng, 3, 6) for _ in range(10)]
    for sys in (lf.first_family(2), lf.first_family(3), lf.third_family(3, 1),
                *randoms):
        res = lf.lindex(sys)
        pi = res.witness
        assert lf.codim_of_partition(sys, pi) == res.codim
        assert Fraction(sys.t - pi.size, res.codim) == res.value


def test_lindex_no_finite_collision():
    shifted = lf.LinearSystem(
        d=1,
        forms=(lf.LinearForm(coeffs=(1,)), lf.LinearForm(coeffs=(1,), constant=1)),
    )
    res = lf.lindex(shifted)
    assert res.value == 0 and res.witness is None


def test_lindex_needs_two_forms():
    single = lf.LinearSystem(d=1, forms=(lf.LinearForm(coeffs=(1,)),))
    with pytest.raises(DomainError):
        lf.lindex(single)
    with pytest.raises(DomainError):
        lf.lindex_bruteforce(single)


def test_bruteforce_rejects_large_t():
    with pytest.raises(UnsupportedError):
        lf.lindex_bruteforce(lf.first_family(3))


def test_lindex_matches_bruteforce_on_random_systems():
    rng = np.random.default_rng(20260816)
    for trial in range(25):
        d = int(rng.integers(2, 5))
        t = int(rng.integers(3, 7))
        sys = _random_system(rng, d, t)
        assert lf.lindex(sys).value == lf.lindex_bruteforce(sys), (trial, sys)


def test_iter_partitions_counts_are_bell_numbers():
    assert sum(1 for _ in lf.iter_partitions(4)) == 15
    assert sum(1 for _ in lf.iter_partitions(5)) == 52


def test_min_distinct_first_family_values():
    res1 = lf.min_distinct_on_codim(lf.first_family(2), 1)
    assert res1.count == 3 and res1.witness.codim == 1
    res2 = lf.min_distinct_on_codim(lf.first_family(2), 2)
    assert res2.count == 2 and res2.witness.codim == 2
    res3 = lf.min_distinct_on_codim(lf.first_family(3), 1)
    assert res3.count == 8
    res4 = lf.min_distinct_on_codim(lf.first_family(3), 2)
    assert res4.count == 5


def test_min_distinct_lower_bounds():
    for k in (2, 3):
        sys = lf.first_family(k)
        assert lf.min_distinct_on_codim(sys, 1).count >= (k + 1) * 2 ** (k - 2)
        assert lf.min_distinct_on_codim(sys, 2).count >= 2 ** (k - 1)
    with pytest.raises(DomainError):
        lf.min_distinct_on_codim(lf.first_family(2), 3)
    pair = lf.LinearSystem(
        d=2, forms=(lf.LinearForm(coeffs=(1, 0)), lf.LinearForm(coeffs=(0, 1)))
    )
    with pytest.raises(DomainError):
        lf.min_distinct_on_codim(pair, 2)


def _generic_point(rng, subspace, d):
    """A rational point of the subspace with random free coordinates."""
    x = [Fraction(int(v)) for v in rng.integers(-10 ** 6, 10 ** 6, size=d)]
    for row in subspace.rows:
        pivot = next(i for i, v in enumerate(row) if v != 0)
        x[pivot] = row[-1] - sum(
            v * x[i] for i, v in enumerate(row[:-1]) if i != pivot
        )
    return x


def _distinct_values(sys, x):
    return len({sum(c * v for c, v in zip(f.coeffs, x)) + f.constant
                for f in sys.forms})


def test_min_distinct_witness_keeps_the_constant_sign():
    sys = lf.LinearSystem(d=2, forms=(
        lf.LinearForm(coeffs=(1, 0)),
        lf.LinearForm(coeffs=(0, 0), constant=2),
        lf.LinearForm(coeffs=(0, 1), constant=5),
    ))
    res = lf.min_distinct_on_codim(sys, 1)
    assert res.count == 2
    assert res.witness.rows == ((1, 0, 2),)
    assert _distinct_values(sys, (2, 0)) == 2


def test_min_distinct_witness_realizes_count_with_constants():
    rng = np.random.default_rng(1509)
    for trial in range(20):
        sys = _random_system(rng, int(rng.integers(2, 5)), int(rng.integers(3, 7)))
        for c in (1, 2):
            res = lf.min_distinct_on_codim(sys, c)
            assert res.witness.codim == c
            assert lf.induced_partition(sys, res.witness).size == res.count
            x = _generic_point(rng, res.witness, sys.d)
            assert _distinct_values(sys, x) == res.count, (trial, c, sys)


def test_codim2_flat_parents_are_the_containing_hyperplanes():
    mixed = _random_system(np.random.default_rng(3), 3, 6)
    assert any(row[-1] % math.gcd(*row[:-1])
               for row in lf._collision_hyperplanes(mixed))
    for sys in (lf.first_family(3), mixed):
        hyperplanes = lf._collision_hyperplanes(sys)
        for row in hyperplanes:
            assert math.gcd(*row) == 1 and next(v for v in row if v) > 0
        flats = lf._codim2_flats(hyperplanes, math.inf)
        assert len({flat for flat, parents in flats}) == len(flats) > 0
        for flat, parents in flats:
            assert len(flat) == 2 and len(parents) >= 2
            containing = tuple(
                i for i, row in enumerate(hyperplanes)
                if len(lf._echelon_add(flat, row)) == 2
            )
            assert parents == containing


def test_lindex_first4_anchor():
    res = lf.lindex(lf.first_family(4))
    assert res.value == 12 and res.codim == 1
    assert res.subspaces_explored == 36770


def test_solution_lattice_diagonal():
    sys = lf.LinearSystem(
        d=2,
        forms=(lf.LinearForm(coeffs=(1, 0)), lf.LinearForm(coeffs=(0, 1))),
    )
    pi = lf.FormPartition(atoms=((0, 1),))
    lat = lf.solution_lattice(sys, pi)
    assert lat.dimension == 1
    assert lat.gram_det == 2
    assert abs(lat.covolume - math.sqrt(2.0)) < 1e-12
    basis = lat.basis.tolist()
    assert basis in ([[1, 1]], [[-1, -1]])


def test_solution_lattice_rejects_inconsistent_partition():
    shifted = lf.LinearSystem(
        d=1,
        forms=(lf.LinearForm(coeffs=(1,)), lf.LinearForm(coeffs=(1,), constant=1)),
    )
    with pytest.raises(DomainError):
        lf.solution_lattice(shifted, lf.FormPartition(atoms=((0, 1),)))


def test_solution_lattice_full_when_partition_discrete():
    sys = lf.first_family(2)
    pi = lf.FormPartition(atoms=((0,), (1,), (2,), (3,)))
    lat = lf.solution_lattice(sys, pi)
    assert lat.dimension == sys.d
    assert lat.gram_det == 1 and lat.covolume == 1.0


def test_interchange_roundtrip():
    for sys in (lf.first_family(3), lf.second_family(2), lf.third_family(4, 2)):
        text = lf.format_system(sys)
        back = lf.parse_system(text)
        assert back == sys


def test_parse_accepts_comments_and_blank_lines():
    text = "# header\n\n0; 1 0\n-2; 0 1\n"
    sys = lf.parse_system(text)
    assert sys.d == 2 and sys.t == 2
    assert sys.forms[1].constant == -2


def test_parse_errors():
    with pytest.raises(DomainError):
        lf.parse_system("1 2 3\n")
    with pytest.raises(DomainError):
        lf.parse_system("0; 1 x\n")
    with pytest.raises(DomainError):
        lf.parse_system("0; 1 2\n0; 1\n")
    with pytest.raises(DomainError):
        lf.parse_system("# only a comment\n")
