"""Exact rational linear algebra over systems of affine linear forms.

Forms are affine maps Z^d -> Z written as coefficient vectors plus a
constant.  The module builds the three standard condition families,
measures the codimension of collision subvarieties, computes the
collision index L of a system, and enumerates low-codimension subspaces
for restricted-form counting.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import limits
from .errors import DomainError, UnsupportedError

INFINITE_CODIM = math.inf


@dataclass(frozen=True)
class LinearForm:
    """Affine form coeffs . x + constant with integer data."""

    coeffs: tuple
    constant: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        object.__setattr__(self, "constant", int(self.constant))

    @property
    def dim(self):
        return len(self.coeffs)

    def evaluate(self, x):
        return sum(c * int(v) for c, v in zip(self.coeffs, x)) + self.constant

    def functional(self):
        """The form as a length d+1 integer vector (coeffs, constant)."""
        return self.coeffs + (self.constant,)


@dataclass(frozen=True)
class LinearSystem:
    """Ordered tuple of pairwise distinct affine forms in d variables."""

    d: int
    forms: tuple

    def __post_init__(self):
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        if len(forms) < 1:
            raise DomainError("a system needs at least one form")
        for f in forms:
            if f.dim != self.d:
                raise DomainError(
                    f"form {f} has {f.dim} variables, system has d={self.d}"
                )
        if len({(f.coeffs, f.constant) for f in forms}) != len(forms):
            raise DomainError("forms must be pairwise distinct")

    @property
    def t(self):
        return len(self.forms)


@dataclass(frozen=True)
class FormPartition:
    """Partition of the form indices {0, ..., t-1} into disjoint atoms."""

    atoms: tuple

    def __post_init__(self):
        canon = tuple(sorted(tuple(sorted(int(i) for i in a)) for a in self.atoms))
        object.__setattr__(self, "atoms", canon)
        flat = [i for a in canon for i in a]
        if len(flat) != len(set(flat)):
            raise DomainError("partition atoms must be disjoint")
        if not flat or set(flat) != set(range(len(flat))):
            raise DomainError("partition atoms must cover 0..t-1 exactly")

    @property
    def size(self):
        return len(self.atoms)

    @property
    def t(self):
        return sum(len(a) for a in self.atoms)


@dataclass(frozen=True)
class Subspace:
    """Affine subspace in reduced row echelon form over the rationals.

    Each row (a_1, ..., a_d, rhs) encodes the constraint a . x = rhs.
    The echelon form is canonical, so the rows tuple doubles as a
    deduplication key.
    """

    rows: tuple
    codim: int
    feasible: bool


def _reduce(ech, row):
    """Row (a_1, ..., a_d, rhs) with the echelon's pivot columns cleared.

    It is zero when the row's hyperplane contains the echelon's subspace,
    and zero but for the rhs when the two miss each other.
    """
    for p, r in ech:
        c = row[p]
        if c:
            a = r[p]
            row = [a * x - c * y for x, y in zip(row, r)]
    return row


def _primitive(v):
    """Integer vector divided by its gcd, signed so its first nonzero is > 0."""
    g = math.gcd(*v)
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return tuple([x // g for x in v])


def _echelon_add(ech, row):
    """Echelon ech with one more integer row (a_1, ..., a_d, rhs) added.

    An echelon is a tuple of (pivot, row) pairs sorted by pivot; each row
    is a primitive integer vector with a positive entry at its pivot and
    zeros in the other rows' pivot columns.  It is the reduced row echelon
    form scaled row by row, so it is canonical.  A row that adds nothing
    returns ech itself; a pivot in the last column means 0 = nonzero,
    i.e. an empty affine subspace.
    """
    row = _reduce(ech, row)
    p = next((i for i, v in enumerate(row) if v), None)
    if p is None:
        return ech
    row = _primitive(row)
    return tuple(sorted([*_eliminate(dict(ech), row).items(), (p, row)]))


def _echelon(rows):
    """Echelon of integer rows, added one at a time."""
    ech = ()
    for row in rows:
        ech = _echelon_add(ech, row)
    return ech


def _feasible(ech):
    """Whether the echelon's affine subspace has a rational point."""
    return not ech or ech[-1][0] != len(ech[-1][1]) - 1


def _as_subspace(ech):
    """Public Subspace of an echelon: each row divided by its pivot entry."""
    rows = tuple(tuple(Fraction(v, r[p]) for v in r) for p, r in ech)
    return Subspace(rows=rows, codim=len(rows), feasible=_feasible(ech))


def _constraint_rows(sys, pi):
    """Within-atom difference constraints a . x = rhs for a partition."""
    rows = []
    for atom in pi.atoms:
        anchor = sys.forms[atom[0]]
        for idx in atom[1:]:
            f = sys.forms[idx]
            a = tuple(ci - cj for ci, cj in zip(f.coeffs, anchor.coeffs))
            rhs = -(f.constant - anchor.constant)
            rows.append(a + (rhs,))
    return rows


def codim_of_partition(sys, pi):
    """codim of the collision subvariety of pi; math.inf when empty."""
    if pi.t != sys.t:
        raise DomainError(
            f"partition covers {pi.t} forms, system has {sys.t}"
        )
    ech = _echelon(_constraint_rows(sys, pi))
    return len(ech) if _feasible(ech) else INFINITE_CODIM


# ----------------------------------------------------------------- families

def _check_family_size(name, k, count):
    """ResourceError, before any allocation, if count(k) > MAX_FAMILY_FORMS.

    A family has at least k forms, so count(k) runs only for k <= the cap:
    no 2^(k-1) is ever built for a huge k (256 MB at k = 2^31)."""
    cap = limits.MAX_FAMILY_FORMS
    limits.check(k, cap, f"forms of the {name} family: at least k =")
    limits.check(count(k), cap, f"forms of the {name} family at k={k}:")


def psi_j(k, j):
    """The form sum over i of (j - i) s_i in k variables."""
    k = int(k)
    j = int(j)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not 1 <= j <= k:
        raise DomainError(f"j must be in [1, {k}], got {j}")
    return LinearForm(coeffs=tuple(j - i for i in range(1, k + 1)))


def first_family(k):
    """System of k 2^(k-1) forms in 2k variables built from psi_j.

    Variables are ordered s_1 .. s_k then the second copies s'_1 .. s'_k;
    each form applies psi_j with every choice of copy for the k-1 free
    variables.
    """
    k = int(k)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    _check_family_size("first", k, lambda k: k << (k - 1))
    forms = []
    for j in range(1, k + 1):
        others = [i for i in range(1, k + 1) if i != j]
        for omega in itertools.product((0, 1), repeat=k - 1):
            coeffs = [0] * (2 * k)
            for i, bit in zip(others, omega):
                coeffs[(i - 1) + bit * k] += j - i
            forms.append(LinearForm(coeffs=tuple(coeffs)))
    return LinearSystem(d=2 * k, forms=tuple(forms))


def second_family(k):
    """System of 2^k forms k! (s_1 + ... + s_k) with per-variable copies."""
    k = int(k)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    _check_family_size("second", k, lambda k: 1 << k)
    scale = math.factorial(k)
    forms = []
    for omega in itertools.product((0, 1), repeat=k):
        coeffs = [0] * (2 * k)
        for i, bit in enumerate(omega):
            coeffs[i + bit * k] = scale
        forms.append(LinearForm(coeffs=tuple(coeffs)))
    return LinearSystem(d=2 * k, forms=tuple(forms))


def third_family(k, j):
    """System of 2(k-1)+1 forms in 2 variables: zero plus (i-j) d_tau."""
    k = int(k)
    j = int(j)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not 1 <= j <= k:
        raise DomainError(f"j must be in [1, {k}], got {j}")
    _check_family_size("third", k, lambda k: 2 * k - 1)
    forms = [LinearForm(coeffs=(0, 0))]
    for tau in (0, 1):
        for i in range(1, k + 1):
            if i == j:
                continue
            coeffs = [0, 0]
            coeffs[tau] = i - j
            forms.append(LinearForm(coeffs=tuple(coeffs)))
    return LinearSystem(d=2, forms=tuple(forms))


# ----------------------------------------------------------- collision index

@dataclass(frozen=True)
class LindexResult:
    """Collision index with the partition attaining it."""

    value: Fraction
    witness: object
    codim: int
    subspaces_explored: int


def _collision_hyperplanes(sys, cap):
    """Distinct hyperplanes on which two forms agree, with their form pairs.

    Returns a dict from each row (a_1, ..., a_d, rhs), meaning a . x = rhs,
    to the list of form index pairs (i, j), i < j, that agree exactly on
    it.  Each row is primitive with a positive first nonzero entry, and
    rows keep the order in which the pairs first produce them.  Raises
    ResourceError as soon as there are more than cap rows.
    """
    rows = {}
    for (i, fi), (j, fj) in itertools.combinations(enumerate(sys.forms), 2):
        a = tuple(ci - cj for ci, cj in zip(fi.coeffs, fj.coeffs))
        if not any(a):
            continue
        row = _primitive(a + (fj.constant - fi.constant,))
        rows.setdefault(row, []).append((i, j))
        if len(rows) > cap:
            limits.check(len(rows), cap, "collision hyperplanes")
    return rows


def _later_masks(pair_lists):
    """Per hyperplane, the bitmask of the forms j of its pairs (i, j), i < j.

    The pairs of the hyperplanes containing a nonempty subspace are the form
    pairs equal on it, already closed, so a form is the least of its atom
    unless they pair it with a smaller one: |pi| = t - popcount(OR of masks)."""
    return [sum(1 << j for j in {j for _, j in pairs}) for pairs in pair_lists]


def _merged(later, parents):
    """OR of the later masks of the hyperplanes parents."""
    out = 0
    for p in parents:
        out |= later[p]
    return out


def _joined(t, pair_lists):
    """Size and atoms, as sets, of the partition of range(t) that joins the
    forms of every listed pair: lindex builds its witness from them."""
    atom = {}
    for pairs in pair_lists:
        for i, j in pairs:
            ai = atom.get(i)
            aj = atom.get(j)
            if ai is None:
                if aj is None:
                    aj = atom[j] = {j}
                aj.add(i)
                atom[i] = aj
            elif aj is None:
                ai.add(j)
                atom[j] = ai
            elif ai is not aj:
                if len(ai) < len(aj):
                    ai, aj = aj, ai
                ai |= aj
                for k in aj:
                    atom[k] = ai
    groups = list({id(a): a for a in atom.values()}.values())
    groups += [{i} for i in range(t) if i not in atom]
    return len(groups), groups


def _bits(mask):
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _eliminate(carried, key):
    """One elimination step: a dict from index to the primitive a r - r[p] key
    for each row r of the dict carried, in order, where p is the first
    nonzero column of the primitive row key and a = key[p].  Rows whose
    coefficient part vanishes are dropped.  For rows reduced by a subspace
    and a key that cuts out a child, these are the rows reduced by the child
    less those that contain or miss it; an echelon's rows lose none.
    """
    p = next(i for i, v in enumerate(key) if v)
    a = key[p]
    out = {}
    for j, r in carried.items():
        c = r[p]
        if c:
            r = [a * x - c * y for x, y in zip(r, key)]
            if not any(r[:-1]):
                continue
            r = _primitive(r)
        out[j] = r
    return out


def _children(carried):
    """Children of a subspace from its rows as _eliminate gives them: a dict
    from each child's row to the bitmask of the rows that cut it out.  Rows
    with equal primitive reductions cut out the same child."""
    children = {}
    for j, r in carried.items():
        children[r] = children.get(r, 0) | 1 << j
    return children


def _codim2_flats(rows, cap):
    """Nonempty codim-2 intersections of the rows of _collision_hyperplanes.

    Yields each flat's parents, the ascending indices of the rows that
    contain it, once: at its smallest parent i, among the children the
    later rows cut out of row i, so by smallest and then second parent.
    Two hyperplanes through a codim-2 flat meet only in it, so the flat
    comes up again exactly at each middle parent q, with parent mask
    mask >> q << q, held until then.  Raises ResourceError as soon as the
    rows and flats together number more than cap.
    """
    found = len(rows)
    pending = set()
    for i, row in enumerate(rows):
        later = _eliminate(dict(enumerate(rows[i + 1:], i + 1)), row)
        for mask in _children(later).values():
            mask |= 1 << i
            if mask in pending:
                pending.remove(mask)
                continue
            found += 1
            if found > cap:
                limits.check(found, cap, "codim-2 lattice: hyperplanes plus flats")
            parents = list(_bits(mask))
            pending.update(mask >> q << q for q in parents[1:-1])
            yield parents


def _lattice(arrangement, cap, deeper):
    """Each nonempty collision subspace once, as (codim, parents, merged).

    arrangement is a dict from rows to form pairs, as _collision_hyperplanes
    gives it; parents are the ascending indices of the rows containing the
    subspace and merged the OR of their _later_masks, so the subspace's
    induced partition has t - popcount(merged) atoms.  The rows come first,
    then, while deeper(2), the flats of _codim2_flats, then the closure walk
    level by level.  deeper(c) says whether a subspace of codim c or more may
    still matter, so a false deeper(c) must stay false for every larger c.
    It is asked after each flat for c = 2 and 3, and before each
    codim-(c-1) subspace is expanded: a caller that scores the yields can
    prune on its best so far.  Past codim 2 no echelon is built:
    an expanded subspace carries the other rows reduced by it, one
    _eliminate step on its parent's (for a flat, its smallest parent's).
    ResourceError once more than cap subspaces are found.
    """
    rows = list(arrangement)
    later = _later_masks(arrangement.values())
    for i, mask in enumerate(later):
        yield 1, (i,), mask
    if not deeper(2):
        return
    # Frontier entries are (parent rows, key, inside, merged): key cuts the
    # subspace out of its parent, and inside, the rows containing it, names it.
    frontier, cut, found = [], (None, None), len(rows)
    for found, parents in enumerate(_codim2_flats(rows, cap), found + 1):
        merged = _merged(later, parents)
        yield 2, parents, merged
        if not deeper(2):   # no later flat, and nothing deeper, can matter
            return
        if deeper(3):
            i, j = parents[:2]
            if cut[0] != i:   # flats come by smallest parent
                cut = i, _eliminate(dict(enumerate(rows)), rows[i])
            frontier.append((cut[1], cut[1][j], sum(1 << p for p in parents), merged))
    seen, codim = set(), 2
    while frontier:
        next_frontier = []
        for carried, key, inside, merged in frontier:
            # This also drops each child too deep to go on, a round later.
            if not deeper(codim + 1):
                continue
            carried = _eliminate(carried, key)
            for key, mask in _children(carried).items():
                child = inside | mask
                if child in seen:
                    continue
                seen.add(child)
                found += 1
                if found > cap:
                    limits.check(found, cap, "closure lattice: subspaces explored")
                child_merged = merged | _merged(later, _bits(mask))
                yield codim + 1, list(_bits(child)), child_merged
                next_frontier.append((carried, key, child, child_merged))
        frontier = next_frontier
        codim += 1


def _lone_dependency_codim(diffs):
    """s - 2 for differences f_a - f_0 (a = 1, ..., t-1) of nullity 1 whose
    one dependency lambda, sum lambda_a f_a = 0 with sum lambda_a = 0 over
    all t forms, has a support of s forms no proper nonempty part of which
    has lambda-sum 0; else 0.

    lambda comes from the integer kernel of the differences' columns, so no
    Fraction is built.  A zero-sum part, or its complement, misses the
    support's first form; past 2^16 distinct part sums the test gives up and
    returns 0, which only keeps the weaker bound.
    """
    (mu,) = _integer_kernel(list(zip(*diffs)), len(diffs))
    support = [v for v in (-sum(mu), *mu) if v]
    sums = set()
    for v in support[1:]:
        sums |= {v, *(x + v for x in sums)}
        if 0 in sums or len(sums) > 1 << 16:
            return 0
    return len(support) - 2


def lindex(sys):
    """Collision index of the system with a maximizing partition.

    Scores each subspace of _lattice, the closure lattice of the pairwise
    form-difference kernels, as (t - |pi|) / codim, pi its induced partition
    (forms equal as functions there, whose own subvariety is the subspace),
    and prunes what is too deep to beat the best ratio (integers
    cross-multiplied).  A codim-c subspace merges c + r forms, r the
    dimension of the dependencies of the forms (as functionals with their
    constants) that sum to 0 on every atom, so it scores at most
    min(t - 1, c + nu) / c, nu the nullity of the augmented differences
    f_a - f_0.  With nu = 0 every subspace scores 1 and each hyperplane
    holds one form pair, so the hyperplane of the first pair whose
    coefficients differ is the answer, with 1 subspace explored and no
    arrangement built (0 and no witness when there is no such pair).  With
    nu = 1 and a dependency of support s with no zero-sum proper part, r = 1
    only when one atom holds the whole support: a subspace of codim < s - 2
    scores at most 1.  That bound rises again at s - 2, so the walk goes
    deeper while the largest bound of any codim from c to the deepest, the
    differences' coefficient rank, beats the best.  Only a new best ratio
    joins its parents' form pairs, for the witness.  subspaces_explored
    counts the subspaces scored, the hyperplanes included; ResourceError
    once more than limits.MAX_SUBSPACES of them are found.
    """
    t = sys.t
    if t < 2:
        raise DomainError(f"collision index needs t >= 2 forms, got t={t}")
    f0 = sys.forms[0].functional()
    diffs = [[x - y for x, y in zip(f.functional(), f0)] for f in sys.forms[1:]]
    # The t - 1 differences, in d + 1 coordinates, can be independent only
    # when t <= d + 2; a larger system meets the hyperplane cap before they
    # are reduced.
    ech = _echelon(diffs) if t <= sys.d + 2 else None
    if ech is not None and len(ech) == t - 1:   # nu = 0: the first pair settles it
        pair = next(((i, j) for (i, fi), (j, fj) in itertools.combinations(
            enumerate(sys.forms), 2) if fi.coeffs != fj.coeffs), None)
        if pair is None:
            return LindexResult(value=Fraction(0), witness=None, codim=0,
                                subspaces_explored=0)
        atoms = [pair] + [(i,) for i in range(t) if i not in pair]
        return LindexResult(value=Fraction(1), witness=FormPartition(atoms=atoms),
                            codim=1, subspaces_explored=1)
    cap = limits.MAX_SUBSPACES
    arrangement = _collision_hyperplanes(sys, cap)
    pairs = list(arrangement.values())
    if ech is None:
        ech = _echelon(diffs)
    nu = t - 1 - len(ech)
    depth = len(ech) - (not _feasible(ech))
    low = _lone_dependency_codim(diffs) if nu == 1 else 0
    # top[c - 1] is the largest bound (merges, e) of the codims e in [c, depth].
    top, bound = [], (0, 1)
    for e in range(depth, 0, -1):
        merges = min(t - 1, e + nu) if e >= low else e
        if merges * bound[1] > bound[0] * e:
            bound = merges, e
        top.append(bound)
    top.reverse()
    num, den, witness, explored = 0, 1, None, 0   # the best ratio so far is num / den
    # deeper reads num and den as they stand each time the walk asks.
    walk = _lattice(arrangement, cap, lambda c: c <= depth
                    and top[c - 1][0] * den > num * top[c - 1][1])
    for explored, (codim, parents, merged) in enumerate(walk, 1):
        if merged.bit_count() * den > num * codim:
            num, den = merged.bit_count(), codim
            witness = FormPartition(atoms=_joined(t, (pairs[i] for i in parents))[1])
    return LindexResult(value=Fraction(num, den), witness=witness,
                        codim=den if witness else 0, subspaces_explored=explored)


def iter_partitions(t):
    """All set partitions of {0, ..., t-1} as tuples of tuples."""
    def rec(elements):
        if not elements:
            yield []
            return
        first, rest = elements[0], elements[1:]
        for part in rec(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part
    for part in rec(list(range(t))):
        yield tuple(tuple(sorted(a)) for a in part)


def lindex_bruteforce(sys):
    """Collision index by direct enumeration of all partitions (t <= 8)."""
    t = sys.t
    if t < 2:
        raise DomainError(f"collision index needs t >= 2 forms, got t={t}")
    if t > 8:
        raise UnsupportedError(
            f"brute force enumerates Bell({t}) partitions; limit is t=8"
        )
    best = Fraction(0)
    for atoms in iter_partitions(t):
        if len(atoms) >= t:
            continue
        pi = FormPartition(atoms=atoms)
        c = codim_of_partition(sys, pi)
        if c is INFINITE_CODIM or c == 0:
            continue
        ratio = Fraction(t - len(atoms), c)
        if ratio > best:
            best = ratio
    return best


# ------------------------------------------------- restricted form counting

@dataclass(frozen=True)
class MinDistinctResult:
    """Minimum number of distinct restricted forms with a witness subspace."""

    count: int
    witness: Subspace


def min_distinct_on_codim(sys, c):
    """Minimum count of distinct restricted forms over codim-c subspaces.

    Candidates are the codim-c subspaces of _lattice, walked no deeper:
    difference kernels (c = 1) or their codim-2 intersections (c = 2).  Any
    collision on a subspace forces it inside some difference kernel, so
    these realize the minima.  The forms that stay distinct on a candidate
    are the atoms of its induced partition, t - popcount(merged).  The
    first minimal candidate is the witness; only its echelon is built.
    ResourceError past limits.MAX_SUBSPACES hyperplanes and flats, as lindex
    counts them.
    """
    if c not in (1, 2):
        raise DomainError(f"codimension must be 1 or 2, got {c}")
    cap = limits.MAX_SUBSPACES
    arrangement = _collision_hyperplanes(sys, cap)
    candidates = ((sys.t - merged.bit_count(), parents) for codim, parents, merged
                  in _lattice(arrangement, cap, lambda codim: codim <= c) if codim == c)
    count, parents = min(candidates, key=lambda item: item[0], default=(None, None))
    if parents is None:
        raise DomainError(f"system has no feasible codim-{c} collision subspaces")
    rows = list(arrangement)
    witness = _echelon(rows[p] for p in parents[:2])
    return MinDistinctResult(count=count, witness=_as_subspace(witness))


# ----------------------------------------------------------- integer lattice

@dataclass(frozen=True)
class SolutionLattice:
    """Integer basis of the solutions of the within-atom difference system."""

    basis: np.ndarray
    dimension: int
    gram_det: int
    covolume: float


def _integer_kernel(rows, d):
    """Lattice basis of {x in Z^d : A x = 0} via unimodular column reduction."""
    mat = [list(map(int, r)) for r in rows]
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    active = list(range(d))
    for r in range(len(mat)):
        live = [c for c in active if mat[r][c] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(mat[r][c]))
            c1 = live[0]
            for c2 in live[1:]:
                q = mat[r][c2] // mat[r][c1]
                if q:
                    for rr in range(len(mat)):
                        mat[rr][c2] -= q * mat[rr][c1]
                    for rr in range(d):
                        u[rr][c2] -= q * u[rr][c1]
            live = [c for c in active if mat[r][c] != 0]
        if live:
            active.remove(live[0])
    basis = [[u[i][c] for i in range(d)] for c in active]
    return basis


def _int_det(mat):
    """Exact determinant of a small integer matrix (Bareiss elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _flat_gram_det(a, b):
    """Gram determinant of the flat a . x = alpha, b . x = beta in Z^d, or
    None when the flat holds no integer point.

    a and b are rows (a_1, ..., a_d, alpha) with independent coefficient
    parts.  Their row lattice has squared covolume sum m_ij^2 = |a|^2 |b|^2
    - (a . b)^2 (Cauchy-Binet, Lagrange), m_ij = a_i b_j - a_j b_i, and index
    g = gcd(m) in its saturation, formed until g reaches 1.  The saturation's
    orthogonal complement {a . x = b . x = 0} has equal covolume, so Gram
    determinant sum m_ij^2 / g^2.  By the Smith normal form the flat holds an
    integer point exactly when g also divides each a_i beta - alpha b_i,
    which a homogeneous flat (alpha = beta = 0) passes at the origin.
    """
    (*a, alpha), (*b, beta) = a, b
    g = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        if (g := math.gcd(g, a[i] * b[j] - a[j] * b[i])) == 1:
            break
    if (alpha or beta) and any((x * beta - alpha * y) % g for x, y in zip(a, b)):
        return None
    return (sum(map(mul, a, a)) * sum(map(mul, b, b)) - sum(map(mul, a, b)) ** 2) // (g * g)


def solution_lattice(sys, pi):
    """Integer lattice of points where all within-atom differences vanish.

    The constraints A x = b must have a solution in Z^d, else DomainError.
    One exists exactly when the last coordinates of the integer kernel of
    [A | -b] have gcd 1: they are the s for which A x = s b is solvable,
    an ideal gZ.  The lattice itself is the kernel of A.
    """
    if pi.t != sys.t:
        raise DomainError(f"partition covers {pi.t} forms, system has {sys.t}")
    rows = _constraint_rows(sys, pi)
    lifted = _integer_kernel([(*a, -rhs) for *a, rhs in rows], sys.d + 1)
    if math.gcd(*(v[-1] for v in lifted)) != 1:
        raise DomainError("partition's affine constraints have no integer point")
    basis = _integer_kernel([r[:-1] for r in rows], sys.d)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    gdet = _int_det(gram)
    arr = np.array(basis, dtype=np.int64).reshape(len(basis), sys.d)
    return SolutionLattice(basis=arr, dimension=len(basis), gram_det=gdet,
                           covolume=math.sqrt(float(gdet)))


# ------------------------------------------------------------- interchange

def format_system(sys):
    """Text interchange format, one form per line: "c0; c1 c2 ... cd"."""
    lines = []
    for f in sys.forms:
        lines.append(f"{f.constant}; " + " ".join(str(c) for c in f.coeffs))
    return "\n".join(lines) + "\n"


def parse_system(text):
    """Parse the interchange format produced by format_system."""
    forms = []
    d = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ";" not in line:
            raise DomainError(f"line {lineno}: missing ';' separator")
        head, _, tail = line.partition(";")
        try:
            constant = int(head.strip())
            coeffs = tuple(int(v) for v in tail.split())
        except ValueError:
            raise DomainError(f"line {lineno}: non-integer entry") from None
        if d is None:
            d = len(coeffs)
        elif len(coeffs) != d:
            raise DomainError(
                f"line {lineno}: expected {d} coefficients, got {len(coeffs)}"
            )
        forms.append(LinearForm(coeffs=coeffs, constant=constant))
    if not forms:
        raise DomainError("no forms found in system text")
    return LinearSystem(d=d, forms=tuple(forms))
