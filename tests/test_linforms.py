import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from narrowlab import conditions as cd
from narrowlab import limits
from narrowlab import linforms as lf
from narrowlab.errors import DomainError, ResourceError, UnsupportedError


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
    assert (0, 1) in oracles.induced_atoms(sys2, ech)


def test_induced_partition_of_empty_subspace_keeps_constants_apart():
    # The rhs row (0, 1) of an empty subspace is not subtracted away, so
    # forms that differ only in their constant stay in separate atoms.
    shifted = lf.LinearSystem(
        d=1,
        forms=(lf.LinearForm(coeffs=(1,)), lf.LinearForm(coeffs=(1,), constant=1)),
    )
    ech = lf._echelon(lf._constraint_rows(shifted, lf.FormPartition(atoms=((0, 1),))))
    assert not lf._feasible(ech) and ech == ((1, (0, 1)),)
    assert oracles.induced_atoms(shifted, ech) == ((0,), (1,))


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
    randoms = [oracles.random_system(rng, 3, 6) for _ in range(10)]
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
        sys = oracles.random_system(rng, d, t)
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
        sys = oracles.random_system(rng, int(rng.integers(2, 5)), int(rng.integers(3, 7)))
        for c in (1, 2):
            res = lf.min_distinct_on_codim(sys, c)
            assert res.witness.codim == c
            x = _generic_point(rng, res.witness, sys.d)
            assert _distinct_values(sys, x) == res.count, (trial, c, sys)


def test_codim2_reader_matches_the_pairwise_flats(benchmark_systems):
    rng = np.random.default_rng(26)
    systems = [lf.first_family(k) for k in (2, 3, 4)]
    systems += [lf.second_family(k) for k in (2, 3, 4)]
    systems += [lf.third_family(k, j) for k in (3, 4) for j in range(1, k + 1)]
    systems += benchmark_systems
    systems += [oracles.random_system(rng, int(rng.integers(2, 6)), int(rng.integers(2, 8)))
                for _ in range(300)]
    multi = 0
    for i, sys in enumerate(systems):
        rows = list(lf._collision_hyperplanes(sys, math.inf))
        want = oracles.pairwise_flats(rows)
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
    with pytest.raises(ResourceError, match="^codim-2 lattice: hyperplanes plus "
                       "flats 384 is past the cap of 383$"):
        lf.min_distinct_on_codim(sys, 2)


def test_codim2_flat_parents_are_the_containing_hyperplanes():
    mixed = oracles.random_system(np.random.default_rng(3), 3, 6)
    assert any(row[-1] % math.gcd(*row[:-1])
               for row in lf._collision_hyperplanes(mixed, math.inf))
    for sys in (lf.first_family(3), mixed):
        hyperplanes = list(lf._collision_hyperplanes(sys, math.inf))
        for row in hyperplanes:
            assert math.gcd(*row) == 1 and next(v for v in row if v) > 0
        flats = [(lf._echelon(hyperplanes[p] for p in parents[:2]), parents)
                 for parents in lf._codim2_flats(hyperplanes, math.inf)]
        assert len({flat for flat, parents in flats}) == len(flats) > 0
        for flat, parents in flats:
            assert len(flat) == 2 and len(parents) >= 2
            containing = [
                i for i, row in enumerate(hyperplanes)
                if len(lf._echelon_add(flat, row)) == 2
            ]
            assert parents == containing


def test_lindex_first2_is_certified_at_codim_1():
    # first(2) is -s2, -s2', s1, s1'.  The differences from -s2, (0, 1, 0, -1),
    # (1, 1, 0, 0) and (0, 1, 1, 0) with constant 0, have rank 3 = t - 1, so
    # nu = 0 and no subspace of codim c merges more than c forms: the first
    # of the 6 hyperplanes reaches ratio 1 and nothing else is explored.
    sys = lf.first_family(2)
    assert oracles.nullity(sys) == 0
    res = lf.lindex(sys)
    assert (res.value, res.codim, res.subspaces_explored) == (1, 1, 1)
    assert res.witness == lf.FormPartition(atoms=((0, 1), (2,), (3,)))
    assert len(lf._collision_hyperplanes(sys, math.inf)) == 6
    assert oracles.closure_walk(sys, "t-1")[0][3] == 13   # 6 hyperplanes, 7 flats


def test_lindex_first4_anchor():
    res = lf.lindex(lf.first_family(4))
    assert res.value == 12 and res.codim == 1
    assert res.subspaces_explored == 36770


def _fewer_than_recorded(results, recorded, cell):
    """Check lindex's results against one cell of the recorded (t - 1) /
    codim walk: the same value, witness and codim on each system, from no
    more subspaces.  Returns how many took fewer."""
    got = [(r.value, r.witness, r.codim) for r in results]
    assert oracles.walk_digest(got) == recorded["digest"], cell
    assert len(recorded["explored"]) == len(results), cell
    fewer = 0
    for i, (r, old) in enumerate(zip(results, recorded["explored"])):
        assert r.subspaces_explored <= old, (cell, i)
        fewer += r.subspaces_explored < old
    return fewer


def _matches_the_walks(res, sys, label):
    """Check lindex's result against the closure walks: the nullity walk's
    value, witness and codim from no more subspaces, and exactly the walk
    that prunes by the independently computed dependency bound.  Returns
    the scored subspaces of the nullity walk and of the dependency walk,
    which are the ones lindex scores."""
    got = (res.value, res.witness, res.codim, res.subspaces_explored)
    want, scored = oracles.closure_walk(sys, "nullity")
    assert got[:3] == want[:3] and got[3] <= want[3], label
    exact, own = oracles.closure_walk(sys, "dependency")
    assert got == exact, label
    return scored, own


def test_lindex_matches_the_closure_walks_on_random_systems(recorded_walks):
    # The closure walk that prunes by the dependency bound scores exactly
    # the subspaces lindex does; the ones that prune by the nullity bound
    # and, as recorded, by (t - 1) / codim give the same result from at
    # least as many.  The homogeneous d = 3, t = 5 systems have nu >= 1, so
    # their walks can pass codim 2.
    results = []
    deeper = 0
    for trial, sys in enumerate(oracles.random_corpus()):
        res = lf.lindex(sys)
        scored, _ = _matches_the_walks(res, sys, (trial, sys))
        results.append(res)
        deeper += any(len(ech) > 2 for ech, _, _ in scored)
    _fewer_than_recorded(results, recorded_walks["random"], "random")
    assert deeper > 50   # the closure walk past codim 2 is exercised too


def test_lindex_matches_the_closure_walk_and_its_partitions(recorded_walks):
    # The walk with the dependency bound gives the exact count; the walks
    # with the nullity bound and, as recorded, (t - 1) / codim the same
    # result from at least as many subspaces.
    results = []
    deeper = 0
    for i, sys in enumerate(oracles.partitions_corpus()):
        res = lf.lindex(sys)
        scored, _ = _matches_the_walks(res, sys, (i, sys))
        results.append(res)
        deeper += any(len(ech) > 2 for ech, _, _ in scored)
        # The pairs of the hyperplanes containing a subspace give its
        # induced atoms on every subspace lindex scores, and the popcount
        # of the OR of their later masks its size.
        pairs = list(lf._collision_hyperplanes(sys, math.inf).values())
        later = lf._later_masks(pairs)
        for ech, inside, want_atoms in scored:
            size, atoms = lf._joined(sys.t, (pairs[j] for j in inside))
            merged = lf._merged(later, inside)
            assert sys.t - merged.bit_count() == size == len(want_atoms), (i, ech)
            assert lf.FormPartition(atoms=atoms) == lf.FormPartition(atoms=want_atoms)
    _fewer_than_recorded(results, recorded_walks["partitions"], "partitions")
    assert deeper > 100   # the closure walk past codim 2 is exercised too


def test_lindex_matches_the_recorded_closure_walk_sweep(recorded_walks):
    # 1,516 systems over d = 2..5 and t = 2..8: lindex, pruning by the
    # nullity bound, gives the (t - 1) / codim walk's value, witness and
    # codim on each, from no more subspaces.
    assert sum(oracles.SWEEP_CELLS.values()) == 1516
    fewer = 0
    for cell, systems in oracles.sweep_corpus().items():
        fewer += _fewer_than_recorded([lf.lindex(sys) for sys in systems],
                                      recorded_walks[cell], cell)
    assert fewer > 500   # the bound prunes on many of them


def test_lindex_carried_rows_match_the_echelon_reduction(monkeypatch, benchmark_systems):
    # Every _eliminate call the walk makes returns the rows of one subspace:
    # a hyperplane's from a dict of raw rows, a child's from its parent's.
    # Each kept row must be the primitive reduction of its raw row by the
    # echelon of the hyperplanes containing that subspace, and each dropped
    # row must reduce to 0 (it contains the subspace) or 0 = nonzero (it
    # misses it).  The recorder skips the calls made inside lindex's
    # _echelon of the form differences, for the bounds, and, when nu = 1,
    # of their columns, for the dependency.  The dependency bound stops the
    # walk at codim 2 on the benchmark and random systems, so two affine
    # d = 4, t = 8 systems (nu = 2) and four whose one dependency has a
    # zero-sum split carry the walk past codim 3.
    rng = np.random.default_rng(27)
    systems = list(benchmark_systems) + [
        oracles.random_system(rng, int(rng.integers(2, 6)), int(rng.integers(2, 8)))
        for _ in range(200)]
    systems += [oracles.random_system(rng, 4, 8) for _ in range(2)]
    systems += oracles.drawn_until(
        rng, 4, [(4, 7, False), (5, 7, True)],
        lambda s: oracles.nullity(s) == 1 and oracles.dependency_floor(s) == 0)
    eliminate, echelon = lf._eliminate, lf._echelon
    deeper = 0
    for i, sys in enumerate(systems):
        calls, inside, built = [], [], []

        def record(carried, key):
            out = eliminate(carried, key)
            if not inside:
                calls.append((carried, key, out))
            return out

        def record_echelon(rows):
            inside.append(True)
            built.append(echelon(rows))
            inside.pop()
            return built[-1]

        with monkeypatch.context() as m:
            m.setattr(lf, "_eliminate", record)
            m.setattr(lf, "_echelon", record_echelon)
            lf.lindex(sys)
        assert len(built) == 1 + (oracles.nullity(sys) == 1)
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


def test_lindex_on_coefficients_past_int64(recorded_walks):
    # The 5 homogeneous d = 3, t = 5 systems have nu >= 1, and 8 more have
    # nu >= 2 or a zero-sum split, so lindex's own walk passes codim 2 on
    # big rows; 22 have nu = 0, which lindex settles at its first pair.
    results = []
    deeper = settled = 0
    for trial, (small, sys) in enumerate(oracles.past_int64_corpus()):
        assert max(abs(v) for f in sys.forms for v in f.functional()) > 1 << 63
        res = lf.lindex(sys)
        got = (res.value, res.witness, res.codim, res.subspaces_explored)
        assert res.value == lf.lindex_bruteforce(sys), (trial, small)
        small_res = lf.lindex(small)
        assert got == (small_res.value, small_res.witness, small_res.codim,
                       small_res.subspaces_explored), (trial, small)
        assert oracles.nullity(sys) == oracles.nullity(small)
        assert oracles.dependency_floor(sys) == oracles.dependency_floor(small)
        _, own = _matches_the_walks(small_res, small, (trial, small))
        results.append(res)
        deeper += any(len(ech) > 2 for ech, _, _ in own)
        settled += oracles.nullity(sys) == 0
    _fewer_than_recorded(results, recorded_walks["past-int64"], "past-int64")
    assert deeper >= 10   # lindex's walk past codim 2 runs on big rows too
    assert settled == 22


def _dependency_classes():
    """Seeded systems by their forms' dependencies: nu = 0; nu = 1 with no
    zero-sum split of the dependency's support; nu = 1 with one; nu = 2."""
    rng = np.random.default_rng(39)
    nu = oracles.nullity
    floor = oracles.dependency_floor
    return {
        "nu=0": oracles.drawn_until(rng, 3, [(4, 5, False), (3, 4, False)],
                                    lambda s: nu(s) == 0),
        "lone": oracles.drawn_until(rng, 4, [(3, 6, False), (3, 5, True), (4, 6, True)],
                                    lambda s: nu(s) == 1 and floor(s) > 0),
        "split": oracles.drawn_until(rng, 3, [(3, 6, False), (4, 6, True)],
                                     lambda s: nu(s) == 1 and floor(s) == 0),
        "nu=2": oracles.drawn_until(rng, 3, [(2, 6, False), (3, 6, True)],
                                    lambda s: nu(s) == 2),
    }


def test_dependency_bound_holds_on_every_collision_subspace():
    # On every subspace of the unpruned lattice, merges = codim + r(pi), with
    # r(pi) the dimension of the forms' dependencies that sum to 0 on every
    # atom of its partition pi, taken by exact rank over all partitions.  So
    # r <= nu, and with nu = 1 and no zero-sum split of the dependency's
    # support (s forms), r = 1 only where one atom holds the support: no
    # subspace of codim below s - 2 merges more than its codim.  lindex,
    # which prunes by that bound, finds the unpruned walk's value, witness
    # and codim, and scores exactly the subspaces of the oracle walk that
    # prunes by the bound computed here.
    deep = {}
    for cls, systems in _dependency_classes().items():
        for i, sys in enumerate(systems):
            label = (cls, i, sys)
            nu, low = oracles.nullity(sys), oracles.dependency_floor(sys)
            basis = oracles.dependencies(sys)
            assert len(basis) == nu, label
            f0 = sys.forms[0].functional()
            diffs = [[x - y for x, y in zip(f.functional(), f0)] for f in sys.forms[1:]]
            if nu == 1:
                assert lf._lone_dependency_codim(diffs) == low, label
            support = {j for j, v in enumerate(basis[0]) if v} if nu == 1 else set()
            ranks = {}
            for atoms in lf.iter_partitions(sys.t):
                r = oracles.dependency_rank(sys, atoms)
                assert r <= nu, label
                if low and r:
                    assert any(support <= set(a) for a in atoms), (label, atoms)
                ranks[lf.FormPartition(atoms=atoms).atoms] = r
            arrangement = lf._collision_hyperplanes(sys, math.inf)
            rows = list(arrangement)
            for codim, parents, merged in lf._lattice(arrangement, math.inf, lambda c: True):
                atoms = oracles.induced_atoms(sys, lf._echelon(rows[p] for p in parents))
                r = ranks[lf.FormPartition(atoms=atoms).atoms]
                assert merged.bit_count() == codim + r, (label, parents)
                assert codim >= low or r == 0, (label, parents)
                deep[cls] = deep.get(cls, 0) + (codim > 2)
            res = lf.lindex(sys)
            got = (res.value, res.witness, res.codim, res.subspaces_explored)
            assert got[:3] == oracles.closure_walk(sys)[0][:3], label
            assert got == oracles.closure_walk(sys, "dependency")[0], label
    assert all(deep.get(cls, 0) > 0 for cls in ("lone", "split", "nu=2")), deep


@pytest.mark.parametrize("k", [2, 3, 4])
def test_min_distinct_matches_the_induced_atoms_on_first_family(k):
    sys = lf.first_family(k)
    scored = oracles.closure_walk(sys, depth=2)[1]
    for c in (1, 2):
        candidates = [(ech, atoms) for ech, _, atoms in scored if len(ech) == c]
        counts = [len(atoms) for _, atoms in candidates]
        best = counts.index(min(counts))
        res = lf.min_distinct_on_codim(sys, c)
        assert res.count == counts[best]
        assert res.witness == lf._as_subspace(candidates[best][0])


def test_lindex_cap_counts_hyperplanes_and_flats(monkeypatch):
    # first(3) has 37 hyperplanes and 347 codim-2 flats, and lindex stops there.
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 384)
    assert lf.lindex(lf.first_family(3)).subspaces_explored == 384
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 383)
    with pytest.raises(ResourceError, match="^codim-2 lattice: hyperplanes plus "
                       "flats 384 is past the cap of 383$"):
        lf.lindex(lf.first_family(3))


def test_caps_hold_at_the_codim_1_boundary(monkeypatch):
    # second(3)'s lindex (nu = 4, L = 4 at codim 1) and
    # min_distinct_on_codim(first(3), 1) read their hyperplanes and no flat,
    # so a cap of exactly the hyperplanes passes.
    assert oracles.nullity(lf.second_family(3)) == 4
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 13)
    assert lf.lindex(lf.second_family(3)).subspaces_explored == 13
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 12)
    with pytest.raises(ResourceError,
                       match="^collision hyperplanes 13 is past the cap of 12$"):
        lf.lindex(lf.second_family(3))
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 37)
    assert lf.min_distinct_on_codim(lf.first_family(3), 1).count == 8
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 36)
    with pytest.raises(ResourceError,
                       match="^collision hyperplanes 37 is past the cap of 36$"):
        lf.min_distinct_on_codim(lf.first_family(3), 1)


def test_unpruned_lattice_is_every_collision_subspace_once(benchmark_systems):
    # Asked to go deeper everywhere, _lattice yields each nonempty
    # intersection of collision hyperplanes once, with every hyperplane
    # containing it as its parents and t - |pi| bits in merged: the
    # subspaces the closure walk scores when nothing prunes it.
    rng = np.random.default_rng(35)
    systems = list(benchmark_systems) + [
        oracles.random_system(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
        for _ in range(150)]
    systems += [oracles.random_system(rng, 3, 5, homogeneous=True) for _ in range(50)]
    deeper = 0
    for i, sys in enumerate(systems):
        arrangement = lf._collision_hyperplanes(sys, math.inf)
        rows = list(arrangement)
        walk = {ech: (inside, atoms) for ech, inside, atoms in oracles.closure_walk(sys)[1]}
        got = []
        for codim, parents, merged in lf._lattice(arrangement, math.inf, lambda c: True):
            ech = lf._echelon(rows[p] for p in parents)
            inside, atoms = walk[ech]
            assert codim == len(ech) and list(parents) == inside, (i, parents)
            assert sys.t - merged.bit_count() == len(atoms), (i, ech)
            got.append(ech)
        assert len(got) == len(set(got)) == len(walk), (i, sys)
        deeper += any(len(ech) > 2 for ech in got)
    assert deeper > 100   # the walk past codim 2 is exercised


def test_hyperplane_cap_stops_the_pair_loop(monkeypatch):
    # first(10) has 5,120 forms and about 1.3e7 form pairs; the cap must
    # stop the hyperplane enumeration long before it has seen them all.
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 10_000)
    start = time.perf_counter()
    with pytest.raises(ResourceError,
                       match="^collision hyperplanes 10001 is past the cap of 10000$"):
        lf.lindex(lf.first_family(10))
    assert time.perf_counter() - start < 2.0


def _joined_entries(sys, engine):
    """The engine's (codim, size, ratio) entries with each size from
    _joined over the form pairs of the subspace's parents."""
    arrangement = lf._collision_hyperplanes(sys, math.inf)
    pairs = [arrangement[row] for row in engine.rows]
    entries = []
    for codim, inside in ([(1, (i,)) for i in range(len(engine.rows))]
                          + [(2, parents) for parents, _ in engine.flats]):
        size = lf._joined(sys.t, (pairs[i] for i in inside))[0]
        entries.append((codim, size, Fraction(sys.t - size, codim)))
    return entries


def test_deviation_partitions_match_the_induced_atoms(benchmark_systems):
    # The engine counts a subspace's partition from the later masks of its
    # parents; the references join their form pairs and read the forms that
    # agree on the subspace's echelon.  first(4)'s 36,454 flats are checked
    # against the joined pairs only.
    rng = np.random.default_rng(20)
    systems = list(benchmark_systems) + [
        oracles.random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        for _ in range(100)]
    engine = cd._DeviationEngine(lf.first_family(4))
    assert engine.entries == _joined_entries(lf.first_family(4), engine)
    flats = 0
    for i, sys in enumerate(systems):
        try:
            engine = cd._DeviationEngine(sys)
        except DomainError:   # no collision hyperplane holds integer points
            continue
        assert engine.entries == _joined_entries(sys, engine), i
        subspaces = [lf._echelon([row]) for row in engine.rows]
        subspaces += [lf._echelon([engine.rows[p] for p in parents[:2]])
                      for parents, _ in engine.flats]
        assert len(subspaces) == len(engine.entries)
        for ech, (codim, size, _) in zip(subspaces, engine.entries):
            assert codim == len(ech) and lf._feasible(ech)
            assert size == len(oracles.induced_atoms(sys, ech)), (i, ech)
        flats += len(engine.flats)
    assert flats > 1000


def test_hyperplane_cap_leaves_explored_counts_alone(benchmark_systems):
    # The workload reports this total.
    assert sum(lf.lindex(s).subspaces_explored for s in benchmark_systems) == 1380
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


def test_flat_gram_det_stays_exact_past_int64():
    # The minor 3037000499^2 is just below 2^63 and its square is not: an
    # int64 sum of the squared minors wraps to -1, and the engine's covolume
    # sqrt then fails.
    assert lf._flat_gram_det((3037000499, 1, 0, 0), (0, 1, 3037000499, 0)) \
        == 3037000499 ** 2 + 2
    sys = lf.parse_system("0; 3037000499 1 0\n0; 0 0 0\n0; 3037000499 0 -3037000499\n")
    engine = cd._DeviationEngine(sys)
    assert engine.flats == [([0, 1, 2], math.sqrt(3037000499 ** 2 + 2))]


def test_flat_gram_det_matches_kernel_on_random_systems():
    rng = np.random.default_rng(13)
    systems = []
    while len(systems) < 20:
        sys = oracles.random_system(rng, int(rng.integers(3, 6)), 5)
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
        sys = oracles.random_system(rng, int(rng.integers(2, 6)), 5)
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

