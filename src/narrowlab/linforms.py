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

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedError

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


def _echelon_add(ech, row):
    """Echelon ech with one more integer row (a_1, ..., a_d, rhs) added.

    An echelon is a tuple of (pivot, row) pairs sorted by pivot; each row
    is a primitive integer vector with a positive entry at its pivot and
    zeros in the other rows' pivot columns.  It is the reduced row echelon
    form scaled row by row, so it is canonical.  A row that adds nothing
    returns ech itself; a pivot in the last column means 0 = nonzero,
    i.e. an empty affine subspace.
    """
    for p, r in ech:
        c = row[p]
        if c:
            a = r[p]
            row = [a * x - c * y for x, y in zip(row, r)]
    p = next((i for i, v in enumerate(row) if v), None)
    if p is None:
        return ech
    g = math.gcd(*row)
    if row[p] < 0:
        g = -g
    row = tuple(v // g for v in row)
    a = row[p]
    out = []
    for q, r in ech:
        c = r[p]
        if c:
            r = [a * x - c * y for x, y in zip(r, row)]
            g = math.gcd(*r)
            r = tuple(v // g for v in r)
        out.append((q, r))
    out.append((p, row))
    out.sort()
    return tuple(out)


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


def subspace_of_partition(sys, pi):
    """Canonical Subspace cut out by equality within each atom of pi."""
    return _as_subspace(_echelon(_constraint_rows(sys, pi)))


def codim_of_partition(sys, pi):
    """codim of the collision subvariety of pi; math.inf when empty."""
    if pi.t != sys.t:
        raise DomainError(
            f"partition covers {pi.t} forms, system has {sys.t}"
        )
    ech = _echelon(_constraint_rows(sys, pi))
    return len(ech) if _feasible(ech) else INFINITE_CODIM


def _induced_atoms(sys, ech):
    """Canonical atoms of the forms that agree as functions on the echelon.

    Forms are grouped by their residue modulo the functionals (a, -rhs)
    of the rows: den * v minus, per row, v at the row's pivot times
    den / pivot entry times the functional, where den is the lcm of the
    pivot entries.  Each row has zeros in the other pivot columns, so the
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


def induced_partition(sys, subspace):
    """Partition grouping forms that agree as functions on the subspace.

    The subspace's rows are in reduced echelon form; each is scaled by the
    lcm of its denominators to the primitive integer row of the echelon.
    """
    ech = []
    for row in subspace.rows:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        r = tuple(int(v * den) for v in row)
        ech.append((next(i for i, v in enumerate(r) if v), r))
    return FormPartition(atoms=_induced_atoms(sys, tuple(ech)))


# ----------------------------------------------------------------- families

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


def _collision_hyperplanes(sys):
    """Distinct hyperplanes on which two forms agree, as integer rows.

    Each row (a_1, ..., a_d, rhs) means a . x = rhs, is primitive and has
    a positive first nonzero entry.  Rows keep the order in which the
    pairs (i, j), i < j, first produce them.
    """
    rows = {}
    for fi, fj in itertools.combinations(sys.forms, 2):
        a = tuple(ci - cj for ci, cj in zip(fi.coeffs, fj.coeffs))
        if not any(a):
            continue
        row = a + (fj.constant - fi.constant,)
        g = math.gcd(*row)
        if next(v for v in row if v) < 0:
            g = -g
        rows.setdefault(tuple(v // g for v in row), None)
    return list(rows)


def _hyperplane_echelons(hyperplanes):
    """One-row echelons of primitive rows with a positive leading entry."""
    return [((next(i for i, v in enumerate(row) if v), row),)
            for row in hyperplanes]


def _codim2_flats(hyperplanes, cap):
    """Nonempty codim-2 intersections of the rows of _collision_hyperplanes.

    Returns (flat, parents) pairs in the order the hyperplane pairs first
    produce them: flat is the echelon, parents the ascending indices of
    the hyperplanes that contain it.  Two distinct hyperplanes through a
    codim-2 flat meet exactly in it, so the pairs that produce a flat name
    all of its parents.  Raises ResourceError as soon as there are more
    than cap flats.
    """
    lines = _hyperplane_echelons(hyperplanes)
    flats = {}
    for (i, hi), (j, hj) in itertools.combinations(enumerate(lines), 2):
        ech = _echelon_add(hi, hj[0][1])
        if len(ech) == 2 and _feasible(ech):
            flats.setdefault(ech, set()).update((i, j))
            if len(flats) > cap:
                raise ResourceError(
                    f"codim-2 lattice exceeded {cap} subspaces"
                )
    return [(ech, tuple(sorted(parents))) for ech, parents in flats.items()]


def lindex(sys, max_subspaces=500000):
    """Collision index of the system with a maximizing partition.

    Searches the closure lattice generated by intersecting kernels of
    pairwise form differences.  For each subspace the induced partition
    (forms equal as functions there) is scored as
    (t - |pi|) / codim of the partition's own subvariety, and subspaces
    too deep to beat the best ratio are pruned.  Each subspace is an
    integer echelon, grown by one generator row at a time.
    """
    t = sys.t
    if t < 2:
        raise DomainError(f"collision index needs t >= 2 forms, got t={t}")
    hyperplanes = _collision_hyperplanes(sys)
    generators = _hyperplane_echelons(hyperplanes)
    best = Fraction(0)
    best_witness = None
    best_codim = 0
    seen = set(generators)
    frontier = generators
    explored = len(seen)

    def evaluate(ech):
        nonlocal best, best_witness, best_codim
        atoms = _induced_atoms(sys, ech)
        if len(atoms) >= t:
            return
        # ech is cut out by collision hyperplanes whose form pairs share
        # atoms, so the partition's own subvariety is ech's subspace.
        c = len(ech)
        ratio = Fraction(t - len(atoms), c)
        if ratio > best:
            best = ratio
            best_witness = FormPartition(atoms=atoms)
            best_codim = c

    for g in generators:
        evaluate(g)
    while frontier:
        next_frontier = []
        for ech in frontier:
            # A child has codim c + 1 and ratio at most (t - 1) / (c + 1);
            # this also drops, a round later, each child too deep to beat best.
            if Fraction(t - 1, len(ech) + 1) <= best:
                continue
            for row in hyperplanes:
                child = _echelon_add(ech, row)
                # A row that adds nothing returns ech, which is in seen.
                if not _feasible(child) or child in seen:
                    continue
                seen.add(child)
                explored += 1
                if explored > max_subspaces:
                    raise ResourceError(
                        f"closure lattice exceeded {max_subspaces} subspaces; "
                        "raise max_subspaces or cap the system size"
                    )
                evaluate(child)
                next_frontier.append(child)
        frontier = next_frontier
    return LindexResult(value=best, witness=best_witness,
                        codim=best_codim, subspaces_explored=explored)


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

    Candidates are kernels of pairwise form differences (c = 1) and their
    pairwise intersections of codimension exactly 2 (c = 2): any collision
    on a subspace forces it inside some difference kernel, so these
    candidate sets realize the minima.  The forms that stay distinct on a
    candidate are the atoms of its induced partition.
    """
    if c not in (1, 2):
        raise DomainError(f"codimension must be 1 or 2, got {c}")
    hyperplanes = _collision_hyperplanes(sys)
    if c == 1:
        candidates = _hyperplane_echelons(hyperplanes)
    else:
        candidates = [flat for flat, _ in _codim2_flats(hyperplanes, math.inf)]
    if not candidates:
        raise DomainError(
            f"system has no feasible codim-{c} collision subspaces"
        )
    counts = [len(_induced_atoms(sys, ech)) for ech in candidates]
    best = counts.index(min(counts))
    return MinDistinctResult(count=counts[best],
                             witness=_as_subspace(candidates[best]))


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


def _kernel_lattice(rows, d):
    """Integer kernel basis of the rows, its Gram determinant and covolume."""
    basis = _integer_kernel(rows, d)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    gdet = _int_det(gram)
    return basis, gdet, math.sqrt(float(gdet))


def solution_lattice(sys, pi):
    """Integer lattice of points where all within-atom differences vanish.

    The constant parts must be consistent (a partition with contradictory
    affine constraints has no solutions and is rejected); the lattice
    itself is the kernel of the homogeneous difference system.
    """
    if pi.t != sys.t:
        raise DomainError(f"partition covers {pi.t} forms, system has {sys.t}")
    rows = _constraint_rows(sys, pi)
    if not _feasible(_echelon(rows)):
        raise DomainError("partition forces an inconsistent affine constraint")
    basis, gdet, covolume = _kernel_lattice([r[:-1] for r in rows], sys.d)
    arr = np.array(basis, dtype=np.int64).reshape(len(basis), sys.d)
    return SolutionLattice(basis=arr, dimension=len(basis), gram_det=gdet,
                           covolume=covolume)


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
