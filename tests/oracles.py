"""Slow references for the differential tests, one per concept, and the
seeded inputs they share.

Every fast path in narrowlab is checked against one of these: a trial
division for the factor table, brute-force AP counts and Lambda_D, point
counts of a hyperplane by enumeration, a Fraction row reduction, and the
echelon-closure walk of the collision lattice, with the forms'
dependencies by exact rank.  They read nothing from the code they check
beyond the integer echelon and the collision rows.

The (t - 1) / codim closure walk is too slow to run on every corpus each
session, so its results are recorded in tests/data/lindex_sweep.json, one
digest per cell.  Regenerate the file (under a minute) with

    PYTHONPATH=src python tests/oracles.py
"""

import hashlib
import itertools
import json
import math
import random
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from narrowlab import linforms as lf


# Seeded systems

def random_system(rng, d, t, homogeneous=False):
    """t distinct forms on Z^d, coefficients in [-3, 3] and constants in
    [-2, 2] (0 if homogeneous), drawn from rng until t differ, sorted."""
    forms = set()
    while len(forms) < t:
        coeffs = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        constant = 0 if homogeneous else int(rng.integers(-2, 3))
        forms.add((coeffs, constant))
    return lf.LinearSystem(
        d=d,
        forms=tuple(lf.LinearForm(coeffs=c, constant=b) for c, b in sorted(forms)),
    )


def drawn_until(rng, count, shapes, keep, draw=random_system):
    """The first count systems draw(rng, d, t, homogeneous) that keep
    accepts, the shapes (d, t, homogeneous) taken in turn."""
    systems = []
    for d, t, homogeneous in itertools.cycle(shapes):
        sys = draw(rng, d, t, homogeneous)
        if keep(sys):
            systems.append(sys)
            if len(systems) == count:
                return systems


def big_system(rng, d, t, homogeneous=False):
    """A seeded system whose coefficients and constants pass 2^63, with the
    small system it is built from, as (small, big).

    A small random system is mapped by x -> M x with a big nonsingular M,
    scaled by B > 2^64 and shifted by one big form g added to every form.
    Form differences are B times the old ones composed with M, so the
    collision lattice, and lindex, are the small system's.
    """
    small = random_system(rng, d, t, homogeneous)
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


def benchmark_systems():
    """The families and the 105 seeded random systems of the benchmark's
    collision-threshold workload."""
    systems = [lf.first_family(k) for k in (2, 3)]
    systems += [lf.second_family(k) for k in (2, 3, 4)]
    systems += [lf.third_family(k, j) for k in (3, 4) for j in range(1, k + 1)]
    rng = np.random.default_rng(1509)
    systems += [random_system(rng, d, t) for d in (2, 3, 4) for t in (2, 3, 4, 5, 6)
                for _ in range(7)]
    return tuple(systems)


# Number theory

def trial_spf(lo, hi):
    """Least prime factor of each n in [lo, hi) by trial division, as the
    factor table stores it: a prime is its own, 0 and 1 stay themselves."""
    n = np.arange(lo, hi)
    spf = n.copy()
    for p in range(math.isqrt(max(hi - 1, 0)), 1, -1):
        spf[(n % p == 0) & (n > p)] = p
    return spf


# Progressions

def ap_count(flags, k, d):
    """Starts n with flags[n + j d] set for all j in [0, k), no wraparound:
    the AND of k shifted slices."""
    starts = len(flags) - (k - 1) * d
    if starts <= 0:
        return 0
    return int(np.count_nonzero(np.logical_and.reduce(
        [flags[j * d:j * d + starts] for j in range(k)])))


def narrowest_differences(flags, N, k, cap, target):
    """(min_d, median_d) of the k-APs of flags starting at n <= N, with d
    taken in turn from 1 until target progressions are in hand or d reaches
    cap; None when none is found.  Each d is one ap_count."""
    diffs = []
    for d in range(1, cap + 1):
        diffs += [d] * ap_count(flags[:N + 1 + (k - 1) * d], k, d)
        if len(diffs) >= target:
            break
    return (diffs[0], float(np.median(diffs))) if diffs else None


def cyclic_ap_count(sets, D):
    """Pairs (n, d), d in [1, D], with n + j d in sets[j] modulo n' for each
    j: per d, the AND of sets[j] rolled back by j d."""
    total = 0
    for d in range(1, D + 1):
        v = np.array(sets[0], dtype=bool)
        for j, s in enumerate(sets[1:], 1):
            v &= np.roll(s, -j * d)
        total += int(np.count_nonzero(v))
    return total


def lambda_D(fs, D):
    """(1 / (n' D)) sum over d in [1, D] and n mod n' of prod_j f_j(n + j d),
    one float product at a time."""
    n = len(fs[0])
    total = 0.0
    for d in range(1, D + 1):
        for start in range(n):
            prod = 1.0
            for j, f in enumerate(fs):
                prod *= f[(start + j * d) % n]
            total += prod
    return total / (n * D)


# Hyperplane point counts

def hyperplane_points(a, S, rhs=0):
    """Points x of [-S, S]^len(a) with a . x = rhs: enumerate every
    coordinate but the last with a nonzero coefficient, solve for that one."""
    last = max(i for i, v in enumerate(a) if v)
    head = [v for i, v in enumerate(a) if i != last]
    total = 0
    for x in itertools.product(range(-S, S + 1), repeat=len(head)):
        q, r = divmod(rhs - sum(u * v for u, v in zip(head, x)), a[last])
        total += r == 0 and abs(q) <= S
    return total


# Fraction elimination

def fraction_rref(rows):
    """Reduced row echelon form over Fraction, with its feasibility: no
    pivot in the last (rhs) column."""
    mat = [[Fraction(v) for v in r] for r in rows]
    width = len(mat[0])
    r = 0
    pivots = []
    for col in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                mat[i] = [a - mat[i][col] * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), not pivots or pivots[-1] != width - 1


def nullity(sys):
    """nu = t - 1 minus the rank of the augmented differences f_a - f_0."""
    f0 = sys.forms[0].functional()
    diffs = [[x - y for x, y in zip(f.functional(), f0)] for f in sys.forms[1:]]
    return sys.t - 1 - len(fraction_rref(diffs)[0])


def coefficient_rank(sys):
    """The rank of the coefficient parts of the differences f_a - f_0."""
    c0 = sys.forms[0].coeffs
    return len(fraction_rref([[x - y for x, y in zip(f.coeffs, c0)]
                              for f in sys.forms])[0])


def dependencies(sys):
    """A Fraction basis of the dependencies lambda of the forms, sum_a
    lambda_a (coeffs_a, constant_a, 1) = 0: the nullspace of the matrix
    whose columns are the forms, read off its reduced row echelon form."""
    rref = fraction_rref(list(zip(*(f.functional() + (1,) for f in sys.forms))))[0]
    pivots = [next(i for i, v in enumerate(r) if v) for r in rref]
    basis = []
    for free in (j for j in range(sys.t) if j not in pivots):
        lam = [Fraction(j == free) for j in range(sys.t)]
        for p, r in zip(pivots, rref):
            lam[p] = -r[free]
        basis.append(lam)
    return basis


def dependency_rank(sys, atoms):
    """r(pi) = dim(K0 meet M_pi) by exact ranks: K0 the dependencies, M_pi
    the vectors e_i - e_j with i and j in one atom, which sum to 0 on every
    atom.  A subspace of codim c whose partition is pi merges c + r(pi)
    forms: its constraints are the images of M_pi, K0 meet M_pi the kernel."""
    K = dependencies(sys)
    M = [[Fraction((j == i) - (j == a[0])) for j in range(sys.t)]
         for a in atoms for i in a[1:]]
    if not K or not M:
        return 0
    return len(K) + len(M) - len(fraction_rref(K + M)[0])


def dependency_floor(sys):
    """The codim below which no collision subspace merges more forms than
    its codim, by the one-dependency rule: s - 2 when nu = 1 and no proper
    nonempty part of the support of the one dependency, s forms, sums to 0
    (every part is tried); 0 otherwise."""
    basis = dependencies(sys)
    if len(basis) != 1:
        return 0
    support = [v for v in basis[0] if v]
    if any(sum(part) == 0 for size in range(1, len(support))
           for part in itertools.combinations(support, size)):
        return 0
    return len(support) - 2


# The collision lattice

def induced_atoms(sys, ech):
    """Canonical atoms of the forms that agree as functions on the echelon.

    Forms are grouped by their residue modulo the functionals (a, -rhs) of
    the rows: den * v minus, per row, v at the row's pivot times den /
    pivot entry times the functional, where den is the lcm of the pivot
    entries.  Each row has zeros in the other pivot columns, so the
    residue vanishes in every pivot column but the rhs one.  Columns are
    computed over all forms at once.
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


def pairwise_flats(rows):
    """(echelon, parents) of each nonempty codim-2 intersection of the rows:
    every pair of rows meets by _echelon_add, in the order the pairs first
    produce the flat, with the ascending rows containing it as parents."""
    lines = [lf._echelon([row]) for row in rows]
    flats = {}
    for (i, hi), (j, hj) in itertools.combinations(enumerate(lines), 2):
        ech = lf._echelon_add(hi, hj[0][1])
        if len(ech) == 2 and lf._feasible(ech):
            parents = flats.setdefault(ech, [i])
            if parents[0] == i:
                parents.append(j)
    return list(flats.items())


def closure_walk(sys, bound=None, depth=math.inf):
    """lindex by the echelon-closure walk of the collision lattice.

    Scores the collision hyperplanes, then, if a flat can beat the best,
    every pairwise flat, then adds every row to every subspace it expands,
    level by level, each new nonempty subspace once.  A subspace's
    partition is its induced_atoms and its score (t - |pi|) / codim.  A
    subspace is expanded while codim + 1 <= depth and the bound of some
    codim from codim + 1 to the coefficient rank beats the best score so
    far: bound None never prunes, "t-1" bounds codim c by (t - 1) / c,
    "nullity" by min(t - 1, c + nu) / c, and "dependency" by 1 below
    dependency_floor and as "nullity" from there on; the "dependency" walk
    also stops scoring flats as soon as no subspace of codim 2 or more can
    beat the best, as lindex does, and with nu = 0, where every subspace
    scores 1, scores the first hyperplane alone.  Returns (value,
    witness, codim, explored) and, in the order scored, each subspace's
    (echelon, ascending rows containing it, atoms).
    """
    t = sys.t
    rows = list(lf._collision_hyperplanes(sys, math.inf))
    nu = t if bound == "t-1" else nullity(sys)
    low = dependency_floor(sys) if bound == "dependency" else 0
    rank = coefficient_rank(sys)
    best, witness, codim = Fraction(0), None, 0
    scored = []

    def beats(c):   # whether a subspace of codim c or more may score more than best
        return c <= depth and (bound is None or any(
            Fraction(min(t - 1, e + nu) if e >= low else e, e) > best
            for e in range(c, rank + 1)))

    def children(ech, inside):
        """The nonempty subspaces the rows cut out of ech, in order, each with
        the rows containing it: those containing ech and those cutting it."""
        out = {}
        for j, row in enumerate(rows):
            child = lf._echelon_add(ech, row)
            if child is not ech and lf._feasible(child):
                out.setdefault(child, list(inside)).append(j)
        return out

    def score(ech, inside):
        nonlocal best, witness, codim
        atoms = induced_atoms(sys, ech)
        scored.append((ech, inside, atoms))
        if len(atoms) < t and Fraction(t - len(atoms), len(ech)) > best:
            best = Fraction(t - len(atoms), len(ech))
            witness, codim = lf.FormPartition(atoms=atoms), len(ech)

    for i, row in enumerate(rows):
        score(lf._echelon([row]), [i])
        if bound == "dependency" and nu == 0:
            break
    frontier = []
    if beats(2):
        for ech, parents in pairwise_flats(rows):
            score(ech, parents)
            frontier.append((ech, parents))
            if bound == "dependency" and not beats(2):
                break
    seen = set()
    while frontier:
        next_frontier = []
        for ech, inside in frontier:
            if not beats(len(ech) + 1):
                continue
            for child, containing in children(ech, inside).items():
                if child in seen:
                    continue
                seen.add(child)
                containing.sort()
                score(child, containing)
                next_frontier.append((child, containing))
        frontier = next_frontier
    return (best, witness, codim, len(scored)), scored


# Recorded closure walks

# Seeded affine systems per (d, t): fewer where t = 7 or 8 and d >= 3, where
# one lindex call takes 0.01-0.3 s and one closure walk 0.1-2.4 s.
SWEEP_CELLS = {(d, t): 65 for d in (2, 3, 4, 5) for t in range(2, 7)}
SWEEP_CELLS.update({(2, 7): 60, (3, 7): 30, (4, 7): 30, (5, 7): 60,
                    (2, 8): 20, (3, 8): 10, (4, 8): 3, (5, 8): 3})
WALKS_FILE = Path(__file__).parent / "data" / "lindex_sweep.json"


def sweep_corpus():
    """The 1,516 sweep systems by cell "d,t"."""
    rng = np.random.default_rng(1500)
    return {f"{d},{t}": [random_system(rng, d, t) for _ in range(n)]
            for (d, t), n in SWEEP_CELLS.items()}


def random_corpus():
    """300 seeded systems over d = 2..4 and t = 2..6, and 70 homogeneous
    d = 3, t = 5 ones, which have nu >= 1."""
    rng = np.random.default_rng(16)
    systems = [random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
               for _ in range(300)]
    return systems + [random_system(rng, 3, 5, homogeneous=True) for _ in range(70)]


def partitions_corpus():
    """The benchmark systems, 300 seeded ones over d = 2..4 and t = 2..6,
    and 150 homogeneous d = 3, t = 5 ones, which have nu >= 1."""
    rng = np.random.default_rng(17)
    systems = list(benchmark_systems()) + [
        random_system(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        for _ in range(300)]
    return systems + [random_system(rng, 3, 5, homogeneous=True) for _ in range(150)]


def past_int64_corpus():
    """40 seeded (small, big) pairs over d = 2..4 and t = 3..7, 22 of them
    with nu = 0; 5 homogeneous d = 3, t = 5 ones, which have nu >= 1; and 8
    with nu >= 2 or one dependency with a zero-sum split, whose walks pass
    codim 2."""
    rng = np.random.default_rng(2063)
    pairs = [big_system(rng, int(rng.integers(2, 5)), int(rng.integers(3, 8)))
             for _ in range(40)]
    pairs += [big_system(rng, 3, 5, homogeneous=True) for _ in range(5)]

    def deep(pair):
        nu = nullity(pair[0])
        return nu >= 2 or nu == 1 and dependency_floor(pair[0]) == 0

    return pairs + drawn_until(rng, 8, [(3, 6, True), (3, 7, False)], deep,
                               draw=big_system)


def walk_digest(results):
    """sha256 of the (value, witness, codim) of each result, in order."""
    h = hashlib.sha256()
    for value, witness, codim, *_ in results:
        h.update(f"{value} {witness and witness.atoms} {codim}\n".encode())
    return h.hexdigest()


def record_walks():
    """Write WALKS_FILE: for the random and partitions corpora, the big
    systems of the past-int64 corpus and each sweep cell, the digest of the
    (t - 1) / codim walk's results and each system's explored count."""
    corpora = {"random": random_corpus(),
               "partitions": partitions_corpus(),
               "past-int64": [big for _, big in past_int64_corpus()],
               **sweep_corpus()}
    lines = []
    for cell, systems in corpora.items():
        results = [closure_walk(sys, "t-1")[0] for sys in systems]
        record = {"digest": walk_digest(results), "explored": [r[3] for r in results]}
        lines.append(f"{json.dumps(cell)}: {json.dumps(record)}")
    WALKS_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


# Majorant files

def with_majorant_header(blob, **fields):
    """The bytes of a NAPMV1 file with header fields N, W, b or R replaced."""
    head = dict(zip("NWbR", struct.unpack_from("<3Qd", blob, 6)))
    head.update(fields)
    return blob[:6] + struct.pack("<3Qd", *head.values()) + blob[38:]


def hostile_majorant_headers(blob):
    """Variants of a NAPMV1 file (W = 6) whose header no build writes."""
    N, W, b, _ = struct.unpack_from("<3Qd", blob, 6)
    past_top = math.nextafter(math.sqrt(W * N + b), math.inf)
    return {
        **{f"b={v}": with_majorant_header(blob, b=v) for v in (0, 3, 9)},
        **{f"R={v}": with_majorant_header(blob, R=v)
           for v in (1.0, -2.0, past_top, math.nan, math.inf, -math.inf)},
    }


if __name__ == "__main__":
    record_walks()
