import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from narrowlab import conditions as cd
from narrowlab import limits
from narrowlab import linforms as lf
from narrowlab.errors import DomainError, ResourceError, UnsupportedError


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


def _induced_atoms(sys, ech):
    """Canonical atoms of the forms that agree as functions on the echelon.

    The oracle that the form-pair partitions of lindex, min_distinct_on_codim
    and the deviation engine are checked against.  Forms are grouped by
    their residue modulo the functionals (a, -rhs) of the rows: den * v
    minus, per row, v at the row's pivot times den / pivot entry times the
    functional, where den is the lcm of the pivot entries.  Each row has
    zeros in the other pivot columns, so the residue vanishes in every
    pivot column but the rhs one.  Columns are computed over all forms at
    once.
    """
    den = math.lcm(*(r[p] for p, r in ech))
    cols = list(zip(*(f.functional() for f in sys.forms)))
    last = len(cols) - 1
    zero = {p for p, r in ech} - {last}
    keys = []
    for c, col in enumerate(cols):
        if c in zero:
            continue
        res = [den * v for v in col]
        for p, r in ech:
            w = r[c] * (den // r[p])
            if w:
                if c == last:
                    w = -w
                res = [x - w * y for x, y in zip(res, cols[p])]
        keys.append(res)
    groups = {}
    for idx, key in enumerate(zip(*keys)):
        groups.setdefault(key, []).append(idx)
    return tuple(tuple(g) for g in groups.values())


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
    ech = lf._echelon(lf._constraint_rows(sys2, pi))
    assert lf._feasible(ech) and len(ech) == 1
    assert (0, 1) in _induced_atoms(sys2, ech)


def test_induced_partition_of_empty_subspace_keeps_constants_apart():
    # The rhs row (0, 1) of an empty subspace is not subtracted away, so
    # forms that differ only in their constant stay in separate atoms.
    shifted = lf.LinearSystem(
        d=1,
        forms=(lf.LinearForm(coeffs=(1,)), lf.LinearForm(coeffs=(1,), constant=1)),
    )
    ech = lf._echelon(lf._constraint_rows(shifted, lf.FormPartition(atoms=((0, 1),))))
    assert not lf._feasible(ech) and ech == ((1, (0, 1)),)
    assert _induced_atoms(shifted, ech) == ((0,), (1,))


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
            x = _generic_point(rng, res.witness, sys.d)
            assert _distinct_values(sys, x) == res.count, (trial, c, sys)


def _pairwise_codim2_flats(hyperplanes):
    """The codim-2 reader as it was before it streamed: every pair of
    hyperplanes meets by _echelon_add, and one dict holds every flat's
    echelon with its ascending parents, in the order the pairs first
    produce the flat."""
    lines = [lf._echelon([row]) for row in hyperplanes]
    flats = {}
    for (i, hi), (j, hj) in itertools.combinations(enumerate(lines), 2):
        ech = lf._echelon_add(hi, hj[0][1])
        if len(ech) == 2 and lf._feasible(ech):
            parents = flats.setdefault(ech, [i])
            if parents[0] == i:
                parents.append(j)
    return list(flats.items())


def _flat_echelons(hyperplanes):
    """(echelon, parents) of each flat the codim-2 reader yields."""
    rows = list(hyperplanes)
    return [(lf._echelon(rows[p] for p in parents[:2]), parents)
            for parents in lf._codim2_flats(rows, math.inf)]


def test_codim2_reader_matches_the_pairwise_flats():
    rng = np.random.default_rng(26)
    systems = [lf.first_family(k) for k in (2, 3, 4)]
    systems += [lf.second_family(k) for k in (2, 3, 4)]
    systems += [lf.third_family(k, j) for k in (3, 4) for j in range(1, k + 1)]
    systems += _benchmark_systems()
    systems += [_random_system(rng, int(rng.integers(2, 6)), int(rng.integers(2, 8)))
                for _ in range(300)]
    multi = 0
    for i, sys in enumerate(systems):
        rows = list(lf._collision_hyperplanes(sys, math.inf))
        want = _pairwise_codim2_flats(rows)
        got = list(lf._codim2_flats(rows, math.inf))
        assert got == [parents for _, parents in want], (i, sys)
        for parents, (flat, _) in zip(got, want):
            assert lf._echelon(rows[p] for p in parents[:2]) == flat, (i, parents)
        multi += sum(len(parents) > 2 for parents in got)
    assert multi > 1000   # flats with middle parents are exercised


def test_codim2_reader_streams_first4_in_little_memory():
    # first(4) has 316 hyperplanes and 36,454 flats; a dict of every
    # flat's echelon peaked at 19.4 MB.
    rows = list(lf._collision_hyperplanes(lf.first_family(4), math.inf))
    assert len(rows) == 316
    tracemalloc.start()
    try:
        count = sum(1 for _ in lf._codim2_flats(rows, math.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 36454
    assert peak < 2 << 20


def test_min_distinct_cap_counts_hyperplanes_and_flats(monkeypatch):
    # first(3) has 37 hyperplanes and 347 codim-2 flats.
    sys = lf.first_family(3)
    assert limits.MAX_SUBSPACES == 500000
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 384)
    assert lf.min_distinct_on_codim(sys, 2).count == 5
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 383)
    with pytest.raises(ResourceError, match="codim-2 lattice exceeded 383 subspaces"):
        lf.min_distinct_on_codim(sys, 2)


def test_codim2_flat_parents_are_the_containing_hyperplanes():
    mixed = _random_system(np.random.default_rng(3), 3, 6)
    assert any(row[-1] % math.gcd(*row[:-1])
               for row in lf._collision_hyperplanes(mixed, math.inf))
    for sys in (lf.first_family(3), mixed):
        hyperplanes = lf._collision_hyperplanes(sys, math.inf)
        for row in hyperplanes:
            assert math.gcd(*row) == 1 and next(v for v in row if v) > 0
        flats = _flat_echelons(hyperplanes)
        assert len({flat for flat, parents in flats}) == len(flats) > 0
        for flat, parents in flats:
            assert len(flat) == 2 and len(parents) >= 2
            containing = [
                i for i, row in enumerate(hyperplanes)
                if len(lf._echelon_add(flat, row)) == 2
            ]
            assert parents == containing


def test_lindex_first4_anchor():
    res = lf.lindex(lf.first_family(4))
    assert res.value == 12 and res.codim == 1
    assert res.subspaces_explored == 36770


def _pair_walk_lindex(sys):
    """lindex as it walked codim 2 before reading _codim2_flats: every
    hyperplane meets every row, against a set of the subspaces seen."""
    t = sys.t
    hyperplanes = lf._collision_hyperplanes(sys, math.inf)
    generators = [lf._echelon([row]) for row in hyperplanes]
    best, witness, codim = Fraction(0), None, 0
    seen = set(generators)

    def evaluate(ech):
        nonlocal best, witness, codim
        atoms = _induced_atoms(sys, ech)
        if len(atoms) < t and Fraction(t - len(atoms), len(ech)) > best:
            best = Fraction(t - len(atoms), len(ech))
            witness, codim = lf.FormPartition(atoms=atoms), len(ech)

    for g in generators:
        evaluate(g)
    frontier = generators
    while frontier:
        next_frontier = []
        for ech in frontier:
            if Fraction(t - 1, len(ech) + 1) <= best:
                continue
            for row in hyperplanes:
                child = lf._echelon_add(ech, row)
                if lf._feasible(child) and child not in seen:
                    seen.add(child)
                    evaluate(child)
                    next_frontier.append(child)
        frontier = next_frontier
    return best, witness, codim, len(seen)


def test_lindex_matches_the_pair_walk_on_random_systems():
    rng = np.random.default_rng(16)
    deeper = 0
    for trial in range(300):
        sys = _random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        res = lf.lindex(sys)
        got = (res.value, res.witness, res.codim, res.subspaces_explored)
        assert got == _pair_walk_lindex(sys), (trial, sys)
        hyperplanes = list(lf._collision_hyperplanes(sys, math.inf))
        flats = list(lf._codim2_flats(hyperplanes, math.inf))
        deeper += res.subspaces_explored > len(hyperplanes) + len(flats)
    assert deeper > 50   # the closure walk past codim 2 is exercised too


def _closure_walk_lindex(sys):
    """lindex as it was before subspaces carried their containing
    hyperplanes: partitions from _induced_atoms, and a closure walk that
    adds every hyperplane row to every subspace it expands.  Returns the
    result and the echelons it scored, in order."""
    t = sys.t
    hyperplanes = list(lf._collision_hyperplanes(sys, math.inf))
    best, witness, codim = Fraction(0), None, 0
    scored = []

    def evaluate(ech):
        nonlocal best, witness, codim
        scored.append(ech)
        atoms = _induced_atoms(sys, ech)
        if len(atoms) < t and Fraction(t - len(atoms), len(ech)) > best:
            best = Fraction(t - len(atoms), len(ech))
            witness, codim = lf.FormPartition(atoms=atoms), len(ech)

    for row in hyperplanes:
        evaluate(lf._echelon([row]))
    frontier = ([flat for flat, _ in _flat_echelons(hyperplanes)]
                if Fraction(t - 1, 2) > best else [])
    for flat in frontier:
        evaluate(flat)
    seen = set()
    while frontier:
        next_frontier = []
        for ech in frontier:
            if Fraction(t - 1, len(ech) + 1) <= best:
                continue
            for row in hyperplanes:
                child = lf._echelon_add(ech, row)
                if child is ech or not lf._feasible(child) or child in seen:
                    continue
                seen.add(child)
                evaluate(child)
                next_frontier.append(child)
        frontier = next_frontier
    return (best, witness, codim, len(scored)), scored


def test_lindex_matches_the_closure_walk_and_its_partitions():
    rng = np.random.default_rng(17)
    systems = _benchmark_systems() + [
        _random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        for _ in range(300)]
    deeper = 0
    for i, sys in enumerate(systems):
        res = lf.lindex(sys)
        got = (res.value, res.witness, res.codim, res.subspaces_explored)
        want, scored = _closure_walk_lindex(sys)
        assert got == want, (i, sys)
        deeper += any(len(ech) > 2 for ech in scored)
        # The pairs of the hyperplanes containing a subspace give its
        # induced atoms on every subspace lindex scores.
        arrangement = lf._collision_hyperplanes(sys, math.inf)
        for ech in scored:
            inside = [pairs for row, pairs in arrangement.items()
                      if lf._echelon_add(ech, row) is ech]
            size, groups = lf._joined(sys.t, inside)
            atoms = [tuple(g) for g in groups]
            atoms += [(j,) for j in range(sys.t) if all(j not in g for g in groups)]
            want_atoms = _induced_atoms(sys, ech)
            assert size == len(want_atoms), (i, ech)
            assert lf.FormPartition(atoms=atoms) == lf.FormPartition(atoms=want_atoms)
    assert deeper > 100   # the closure walk past codim 2 is exercised too


def test_lindex_carried_rows_match_the_echelon_reduction(monkeypatch):
    # Every _eliminate call lindex makes returns the rows of one subspace:
    # a hyperplane's from a dict of raw rows, a child's from its parent's.
    # Each kept row must be the primitive reduction of its raw row by the
    # echelon of the hyperplanes containing that subspace, and each dropped
    # row must reduce to 0 (it contains the subspace) or 0 = nonzero (it
    # misses it).
    rng = np.random.default_rng(27)
    systems = _benchmark_systems() + [
        _random_system(rng, int(rng.integers(2, 6)), int(rng.integers(2, 8)))
        for _ in range(200)]
    eliminate = lf._eliminate
    deeper = 0
    for i, sys in enumerate(systems):
        calls = []

        def record(carried, key):
            out = eliminate(carried, key)
            calls.append((carried, key, out))
            return out

        with monkeypatch.context() as m:
            m.setattr(lf, "_eliminate", record)
            lf.lindex(sys)
        rows = list(lf._collision_hyperplanes(sys, math.inf))
        echelons = {}   # id of each returned dict, all kept alive in calls
        for carried, key, out in calls:
            parent = echelons.get(id(carried))
            if parent is None:
                assert all(r == rows[j] for j, r in carried.items())
                parent = ()
            ech = lf._echelon_add(parent, key)
            assert len(ech) == len(parent) + 1 and lf._feasible(ech)
            containing = [j for j, row in enumerate(rows)
                          if not any(lf._reduce(ech, row))]
            want = lf._echelon(rows[j] for j in containing)
            assert want == ech, (i, containing)
            echelons[id(out)] = want
            # A child's rows cover every row but those its parent dropped.
            for j in carried if parent == () else range(len(rows)):
                r = lf._reduce(want, rows[j])
                if any(r[:-1]):
                    assert out[j] == lf._primitive(r), (i, j)
                else:
                    assert j not in out, (i, j)
            deeper += len(ech) > 2
    assert deeper > 1000   # expanded subspaces past codim 2


def _big_system(rng, d, t):
    """A seeded system whose coefficients and constants pass 2^63.

    A small random system is mapped by x -> M x with a big nonsingular M,
    scaled by B > 2^64 and shifted by one big form g added to every form.
    Form differences are B times the old ones composed with M, so the
    collision lattice, and lindex, are the small system's.
    """
    small = _random_system(rng, d, t)
    big = random.Random(int(rng.integers(1 << 62)))
    while True:
        M = [[big.randrange(-1 << 40, 1 << 40) for _ in range(d)] for _ in range(d)]
        if lf._int_det(M):
            break
    B = (1 << 64) + big.randrange(1 << 20)
    g = [big.randrange(-1 << 80, 1 << 80) for _ in range(d + 1)]
    forms = []
    for f in small.forms:
        coeffs = [B * sum(f.coeffs[i] * M[i][k] for i in range(d)) + g[k]
                  for k in range(d)]
        forms.append(lf.LinearForm(coeffs=coeffs, constant=B * f.constant + g[d]))
    return small, lf.LinearSystem(d=d, forms=tuple(forms))


def test_lindex_on_coefficients_past_int64():
    rng = np.random.default_rng(2063)
    deeper = 0
    for trial in range(40):
        small, sys = _big_system(rng, int(rng.integers(2, 5)), int(rng.integers(3, 8)))
        assert max(abs(v) for f in sys.forms for v in f.functional()) > 1 << 63
        res = lf.lindex(sys)
        got = (res.value, res.witness, res.codim, res.subspaces_explored)
        assert res.value == lf.lindex_bruteforce(sys), (trial, small)
        assert got == _closure_walk_lindex(sys)[0], (trial, small)
        small_res = lf.lindex(small)
        assert got == (small_res.value, small_res.witness, small_res.codim,
                       small_res.subspaces_explored), (trial, small)
        hyperplanes = list(lf._collision_hyperplanes(sys, math.inf))
        flats = list(lf._codim2_flats(hyperplanes, math.inf))
        deeper += res.subspaces_explored > len(hyperplanes) + len(flats)
    assert deeper > 10   # the closure walk past codim 2 runs on big rows too


@pytest.mark.parametrize("k", [2, 3, 4])
def test_min_distinct_matches_the_induced_atoms_on_first_family(k):
    sys = lf.first_family(k)
    hyperplanes = list(lf._collision_hyperplanes(sys, math.inf))
    for c, candidates in (
            (1, [lf._echelon([row]) for row in hyperplanes]),
            (2, [flat for flat, _ in _flat_echelons(hyperplanes)])):
        counts = [len(_induced_atoms(sys, ech)) for ech in candidates]
        best = counts.index(min(counts))
        res = lf.min_distinct_on_codim(sys, c)
        assert res.count == counts[best]
        assert res.witness == lf._as_subspace(candidates[best])


def test_lindex_cap_counts_hyperplanes_and_flats():
    # first(3) has 37 hyperplanes and 347 codim-2 flats, and lindex stops there.
    assert lf.lindex(lf.first_family(3), max_subspaces=384).subspaces_explored == 384
    with pytest.raises(ResourceError, match="codim-2 lattice exceeded 383 subspaces"):
        lf.lindex(lf.first_family(3), max_subspaces=383)


def test_hyperplane_cap_stops_the_pair_loop():
    # first(10) has 5,120 forms and about 1.3e7 form pairs; the cap must
    # stop the hyperplane enumeration long before it has seen them all.
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="hyperplanes exceeded 10000 subspaces"):
        lf.lindex(lf.first_family(10), max_subspaces=10_000)
    assert time.perf_counter() - start < 2.0


def _benchmark_systems():
    """The families and the 105 seeded random systems of the benchmark's
    collision-threshold workload."""
    systems = [lf.first_family(k) for k in (2, 3)]
    systems += [lf.second_family(k) for k in (2, 3, 4)]
    systems += [lf.third_family(k, j) for k in (3, 4) for j in range(1, k + 1)]
    rng = np.random.default_rng(1509)
    systems += [_random_system(rng, d, t) for d in (2, 3, 4) for t in (2, 3, 4, 5, 6)
                for _ in range(7)]
    return systems


def test_deviation_partitions_match_the_induced_atoms():
    # The engine joins the form pairs of a subspace's parents; the oracle
    # reads the forms that agree on the subspace's echelon.
    rng = np.random.default_rng(20)
    systems = _benchmark_systems() + [
        _random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        for _ in range(100)]
    flats = 0
    for i, sys in enumerate(systems):
        try:
            engine = cd._DeviationEngine(sys)
        except DomainError:   # no collision hyperplane holds integer points
            continue
        subspaces = [lf._echelon([row]) for row in engine.rows]
        subspaces += [lf._echelon([engine.rows[p] for p in parents[:2]])
                      for parents, _ in engine.flats]
        assert len(subspaces) == len(engine.entries)
        for ech, (codim, size, _) in zip(subspaces, engine.entries):
            assert codim == len(ech) and lf._feasible(ech)
            assert size == len(_induced_atoms(sys, ech)), (i, ech)
        flats += len(engine.flats)
    assert flats > 1000


def test_hyperplane_cap_leaves_explored_counts_alone():
    # The workload reports this total.
    systems = _benchmark_systems()
    assert sum(lf.lindex(s).subspaces_explored for s in systems) == 4751
    assert lf.lindex(lf.first_family(3)).subspaces_explored == 384


def _kernel_gram_det(a, b):
    """Gram determinant of the integer kernel of rows a, b, the route
    solution_lattice takes: unimodular column reduction, Gram matrix and
    Bareiss determinant."""
    basis = lf._integer_kernel([a, b], len(a))
    gram = [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis]
    return lf._int_det(gram)


def _minors_gcd(a, b):
    return math.gcd(*(a[i] * b[j] - a[j] * b[i]
                      for i, j in itertools.combinations(range(len(a)), 2)))


def _flat_row_pairs(sys):
    rows = list(lf._collision_hyperplanes(sys, math.inf))
    return [(rows[p][:-1], rows[q][:-1])
            for p, q, *_ in lf._codim2_flats(rows, math.inf)]


def test_flat_gram_det_hand_checked_with_shared_minor_factor():
    # x0 + x1 = 0 and x0 - x1 + 2 x2 = 0 leave x = (s, -s, -s, u), basis
    # (1, -1, -1, 0) and (0, 0, 0, 1), Gram det 3.  The minors
    # (-2, 2, 0, 2, 0, 0) share the factor 2, so sum m^2 = 12 is the row
    # lattice's squared covolume, four times the kernel's.
    a, b = (1, 1, 0, 0), (1, -1, 2, 0)
    assert _minors_gcd(a, b) == 2
    assert lf._flat_gram_det(a + (0,), b + (0,)) == 3 == _kernel_gram_det(a, b)
    # x = 0 and x + 2y = 1 meet in (0, 1/2): the minor 2 does not divide
    # the rhs minor 1.  x = 0 and x + 2y = 2 meet in (0, 1).
    assert lf._flat_gram_det((1, 0, 0), (1, 2, 1)) is None
    assert lf._flat_gram_det((1, 0, 0), (1, 2, 2)) == 1


@pytest.mark.parametrize("family", [lf.first_family(3), lf.second_family(4)],
                         ids=["first3", "second4"])
def test_flat_gram_det_matches_kernel_on_family_flats(family):
    pairs = _flat_row_pairs(family)
    assert len(pairs) in (347, 362)
    for a, b in pairs:
        assert lf._flat_gram_det(a + (0,), b + (0,)) == _kernel_gram_det(a, b)


def test_flat_gram_det_matches_kernel_on_random_systems():
    rng = np.random.default_rng(13)
    systems = []
    while len(systems) < 20:
        sys = _random_system(rng, int(rng.integers(3, 6)), 5)
        pairs = _flat_row_pairs(sys)
        if any(_minors_gcd(a, b) > 1 for a, b in pairs):
            systems.append(pairs)
    assert {len(a) for pairs in systems for a, _ in pairs} == {3, 4, 5}
    for pairs in systems:
        for a, b in pairs:
            assert lf._flat_gram_det(a + (0,), b + (0,)) == _kernel_gram_det(a, b)


def _has_integer_point(a, b):
    """Whether a . x = alpha, b . x = beta has an integer solution.

    Unimodular column operations gather the first coefficient row into one
    pivot column (p, q) and clear it from the other columns, which keep
    their second entries c_i; then p y_1 = alpha and q y_1 + sum c_i y_i =
    beta must be solvable in integers.
    """
    *a, alpha = a
    *b, beta = b
    cols = [[x, y] for x, y in zip(a, b)]
    while sum(1 for c in cols if c[0]) > 1:
        cols.sort(key=lambda c: (c[0] == 0, abs(c[0])))
        for c in cols[1:]:
            q = c[0] // cols[0][0]
            c[0] -= q * cols[0][0]
            c[1] -= q * cols[0][1]
    (p, q), = [c for c in cols if c[0]]
    rest = math.gcd(*(c[1] for c in cols if not c[0]))
    return alpha % p == 0 and (beta - q * (alpha // p)) % rest == 0


def test_flat_integer_point_test_matches_column_reduction():
    rng = np.random.default_rng(20)
    outcomes = []
    for _ in range(60):
        sys = _random_system(rng, int(rng.integers(2, 6)), 5)
        rows = list(lf._collision_hyperplanes(sys, math.inf))
        for p, q, *_ in lf._codim2_flats(rows, math.inf):
            a, b = rows[p], rows[q]
            gram = lf._flat_gram_det(a, b)
            outcomes.append(gram is not None)
            assert outcomes[-1] == _has_integer_point(a, b), (a, b)
            if gram is not None:
                assert gram == _kernel_gram_det(a[:-1], b[:-1])
    assert sum(outcomes) > 500 and len(outcomes) - sum(outcomes) > 300


def test_family_sizes_are_capped_before_building(monkeypatch):
    # The cap keeps first(13) (53,248 forms) and second(16) (65,536).
    assert 13 << 12 <= limits.MAX_FAMILY_FORMS == 1 << 16
    monkeypatch.setattr(limits, "MAX_FAMILY_FORMS", 32)
    assert lf.first_family(4).t == 32
    assert lf.second_family(5).t == 32
    assert lf.third_family(16, 1).t == 31
    for build in (lambda: lf.first_family(5), lambda: lf.second_family(6),
                  lambda: lf.third_family(17, 1),
                  lambda: lf.first_family(1 << 31),
                  lambda: lf.second_family(1 << 31),
                  lambda: lf.third_family(1 << 31, 1)):
        with pytest.raises(ResourceError, match="cap of 32"):
            build()


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
