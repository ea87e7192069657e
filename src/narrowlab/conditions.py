"""Empirical linear-forms-condition averages and random-model width thresholds.

The average of a product of weights along a system of forms over a box is
estimated by Monte Carlo sampling, enumerated exactly on small boxes, and
for the Bernoulli random model predicted analytically from the collision
structure of the system.  The deviation of that prediction from 1 as a
function of the box width S locates the width threshold, whose growth
exponent in 1/alpha is the collision index.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits
from .errors import DomainError, NumericError
from .linforms import _collision_hyperplanes, _flat_gram_det, _lattice

MC_BATCH = 1 << 18   # Monte Carlo samples drawn per batch
# Samples whose form values are built at once: a block's draws, coordinate
# columns, value, term and lookup columns and its slice of the products,
# about 1 MB at 2^14 and d = 4, stay in a 2 MB L2 cache, where a whole
# batch's would take 13 MB.
MC_BLOCK = 1 << 14
EHRHART_MEMO = 4096   # (row, rhs, residue class) quasi-polynomial fits kept


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned integer box given by per-coordinate closed intervals."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((int(lo), int(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise DomainError("box needs at least one coordinate")
        for lo, hi in ivs:
            if hi < lo:
                raise DomainError(f"empty box interval [{lo}, {hi}]")

    @property
    def d(self):
        return len(self.intervals)

    @property
    def point_count(self):
        count = 1
        for lo, hi in self.intervals:
            count *= hi - lo + 1
        return count


def symmetric_box(d, S):
    """The box [-S, S]^d, whose inradius is S."""
    S = int(S)
    if S < 1:
        raise DomainError(f"box half-width must be >= 1, got {S}")
    return BoxRegion(intervals=tuple((-S, S) for _ in range(int(d))))


@dataclass(frozen=True)
class ExponentPattern:
    """0/1 exponents selecting which forms participate in a product."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(v) for v in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(v not in (0, 1) for v in entries):
            raise DomainError("exponents must be 0 or 1")

    @classmethod
    def all_ones(cls, t):
        return cls(entries=(1,) * int(t))


class WeightModel:
    """Weight function on Z/N'Z: majorant table, Bernoulli model, or constant 1.

    The random variant draws nu(n) in {0, 1/alpha} i.i.d. Bernoulli(alpha)
    per residue, materialized once per seed so repeated lookups agree.
    """

    def __init__(self, kind, modulus, values=None, alpha=None):
        self.kind = kind
        self.modulus = int(modulus)
        if self.modulus < 1:
            raise DomainError(f"modulus must be >= 1, got {self.modulus}")
        if values is not None and len(values) != self.modulus:
            raise DomainError(f"{len(values)} weights for modulus {self.modulus}; "
                              "need one per residue")
        self.values = values
        self.alpha = alpha

    @classmethod
    def constant_one(cls, modulus):
        return cls(kind="one", modulus=modulus)

    @classmethod
    def from_table(cls, table):
        return cls(kind="table", modulus=table.nprime, values=table.values)

    @classmethod
    def random(cls, alpha, seed, modulus):
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")
        model = cls(kind="random", modulus=modulus, alpha=alpha)
        limits.check(model.modulus, limits.MAX_RANDOM_MODULUS, "random model draws")
        draws = np.random.default_rng(seed).random(model.modulus)
        model.values = np.where(draws < alpha, 1.0 / alpha, 0.0)
        return model


@dataclass(frozen=True)
class LfcEstimate:
    """Monte Carlo estimate of a linear-forms average."""

    estimate: float
    stderr: float
    samples: int
    workers: int


def _form_arrays(sys, e, box):
    """Active form indices, coefficient matrix and constants of a system.

    The system is a LinearSystem or a plain form sequence; plain sequences
    may repeat a form (useful for degenerate averages that LinearSystem's
    distinctness invariant rules out).  e selects the active forms (all
    when None), and the box must have the forms' dimension.  Raises
    ResourceError for an active coefficient or constant outside int64.
    """
    forms = list(getattr(sys, "forms", sys))
    if not forms:
        raise DomainError("need at least one form")
    d = forms[0].dim
    if any(f.dim != d for f in forms):
        raise DomainError("forms have mixed dimensions")
    if box.d != d:
        raise DomainError(f"box dimension {box.d} does not match d={d}")
    t = len(forms)
    if e is None:
        e = ExponentPattern.all_ones(t)
    if len(e.entries) != t:
        raise DomainError(
            f"exponent pattern has {len(e.entries)} entries, system has {t}"
        )
    active = [i for i, bit in enumerate(e.entries) if bit]
    top = max((abs(v) for i in active for v in forms[i].functional()), default=0)
    limits.check(top, limits.INT64_RANGE, "|coefficient| or |constant| of an "
                 "active form, as an int64,", below=True)
    A = np.array([forms[i].coeffs for i in active], dtype=np.int64)
    c = np.array([forms[i].constant for i in active], dtype=np.int64)
    return active, A.reshape(len(active), d), c


def _int64_span(A, c, box, modulus):
    """Largest |coordinate| or |form value| on the box, checked against int64.

    Every coordinate of the box and every form value plus a residue below
    the modulus must fit int64, or ResourceError is raised.
    """
    reach = max((abs(v) for iv in box.intervals for v in iv), default=0)
    span = max([reach] + [sum(map(abs, row)) * reach + abs(b)
                          for row, b in zip(A.tolist(), c.tolist())])
    limits.check(modulus + span, limits.INT64_RANGE,
                 "largest form value on this box plus N', as an int64,",
                 below=True)
    return span


def lfc_average_mc(model, sys, e, box, samples, seed=0, workers=1):
    """Monte Carlo average of prod nu(n + psi_i(x))^{e_i} over the box.

    Samples (n, x) uniformly with n in Z/N'Z and x an integer point of the
    box, MC_BATCH at a time, and builds their form values MC_BLOCK at a
    time.  The seed is split deterministically into `workers` seed streams,
    which run one after another in this process, so the result depends
    only on (seed, workers).  More than
    limits.MAX_MC_SAMPLES samples, more workers than samples, or a batch
    that looks up more than limits.MAX_ARRAY_ENTRIES form values (one
    form's column at a time) raise ResourceError before any stream is spawned.
    """
    active, A, c = _form_arrays(sys, e, box)
    samples = int(samples)
    if samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    limits.check(samples, limits.MAX_MC_SAMPLES, "Monte Carlo samples")
    workers = max(1, int(workers))
    limits.check(workers, samples, "workers (at most one per sample)")
    quota, rem = divmod(samples, workers)
    if model.kind != "one":   # form values a batch looks up, column by column
        limits.check(min(MC_BATCH, quota + (rem > 0)) * len(active),
                     limits.MAX_ARRAY_ENTRIES, "form values of a Monte Carlo batch")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    d = A.shape[1]
    modulus = model.modulus
    span = _int64_span(A, c, box, modulus)
    lo = np.array([iv[0] for iv in box.intervals], dtype=np.int64)
    hi = np.array([iv[1] for iv in box.intervals], dtype=np.int64)
    if len(set(box.intervals)) == 1:   # scalar bounds draw the same stream, faster
        lo, hi = box.intervals[0]
    # numpy draws a bounded integer below 2^32 by one 32-bit path for either
    # dtype, so int32 draws give the int64 values in half the memory.
    reach = max(modulus - 1, *(abs(v) for iv in box.intervals for v in iv))
    draw = np.int32 if reach < 1 << 31 else np.int64
    # A partial sum of a form value is at most modulus - 1 + span in size, so
    # form values are built in int32 when that fits and every coefficient
    # does (a box of the origin alone leaves coefficients out of span).
    top = int(np.abs(A).max(initial=0))
    value = np.int32 if modulus - 1 + max(span, top) < 1 << 31 else np.int64
    # Each form's nonzero coefficients, so a value column costs one pass per term.
    forms = [([(j, a) for j, a in enumerate(row) if a], b)
             for row, b in zip(A.tolist(), c.tolist())] if model.kind != "one" else []
    # A batch's products, and one block's coordinates by column (a strided
    # column of the draws is several times slower to read), form values,
    # product term and lookup.
    vals_all = np.empty(min(MC_BATCH, quota + (rem > 0)))
    block = min(MC_BLOCK, len(vals_all))
    cols_all = np.empty((d, block), dtype=draw)
    phi_all, term_all = np.empty(block, dtype=value), np.empty(block, dtype=value)
    looked_all = np.empty(block)
    if not forms:
        vals_all.fill(1.0)
    streams = np.random.SeedSequence(seed).spawn(workers)
    total = 0.0
    total_sq = 0.0
    for w, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        left = quota + (1 if w < rem else 0)
        while left > 0:
            m = min(MC_BATCH, left)
            left -= m
            x = rng.integers(lo, hi + 1, size=(m, d), dtype=draw)
            n = rng.integers(0, modulus, size=m, dtype=draw)
            vals = vals_all[:m]
            for s in range(0, m if forms else 0, MC_BLOCK):
                base0, out = n[s:s + MC_BLOCK], vals[s:s + MC_BLOCK]
                k = len(base0)
                phi, term, looked = phi_all[:k], term_all[:k], looked_all[:k]
                cols = cols_all[:, :k]
                np.copyto(cols, x[s:s + k].T)
                for i, (row, b) in enumerate(forms):
                    base = base0
                    for j, a in row:
                        if a in (1, -1):
                            (np.add if a == 1 else np.subtract)(base, cols[j], out=phi,
                                                                dtype=value)
                        else:
                            np.add(base, np.multiply(cols[j], a, out=term, dtype=value),
                                   out=phi)
                        base = phi
                    if b or base is base0:   # the constant; n alone for a constant form
                        np.add(base, b, out=phi, dtype=value)
                    # np.take's wrap mode steps one modulus at a time, so
                    # values more than a modulus away are reduced first.
                    if span >= modulus:
                        phi %= modulus
                    # prod's order, form by form
                    np.take(model.values, phi, mode="wrap", out=looked if i else out)
                    if i:
                        out *= looked
            # The sums run over the whole batch, so the estimate does not
            # depend on the block length.
            total += float(vals.sum())
            vals *= vals
            total_sq += float(vals.sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / max(samples - 1, 1))
    return LfcEstimate(estimate=mean, stderr=stderr, samples=samples,
                       workers=workers)


def lfc_average_exact(model, sys, e, box):
    """Exact linear-forms average on a small box.

    For the table model every (x, n) pair is evaluated, so the box size
    times the modulus must stay within limits.EXACT_CAP (the box size
    alone for the random model).  For the random model the average over
    the randomness is analytic: each point contributes
    alpha^(distinct - active) through its collision pattern.  The constant
    model is identically 1.  Otherwise every form value must fit int64,
    checked before any evaluation (ResourceError).
    """
    active, A, c = _form_arrays(sys, e, box)
    npoints = box.point_count
    if len(active) == 0 or model.kind == "one":
        return 1.0
    _int64_span(A, c, box, model.modulus)
    budget = npoints * (model.modulus if model.kind == "table" else 1)
    limits.check(budget, limits.EXACT_CAP, "exact average evaluations")
    ranges = [range(lo, hi + 1) for lo, hi in box.intervals]
    if model.kind == "random":
        alpha = model.alpha
        t_active = len(active)
        total = 0.0
        for x in itertools.product(*ranges):
            vals = (A @ np.array(x, dtype=np.int64) + c) % model.modulus
            total += alpha ** (len(set(vals.tolist())) - t_active)
        return total / npoints
    values = model.values
    modulus = model.modulus
    total = 0.0
    for x in itertools.product(*ranges):
        shifts = (A @ np.array(x, dtype=np.int64) + c) % modulus
        prod = np.ones(modulus)
        for s in shifts:
            prod *= np.roll(values, -int(s))
        total += float(prod.mean())
    return total / npoints


# ------------------------------------------------- exact hyperplane counts

def count_hyperplane_points(coeffs, S, rhs=0):
    """Number of integer points of [-S, S]^d on coeffs . x = rhs.

    Coordinates with zero coefficient range freely and contribute a factor
    of (2S+1) each, and the count is 0 whenever gcd(coeffs) does not divide
    rhs.  With t >= 2 active coordinates, key the sorted primitive
    |coeffs_i| and r the |rhs| over their gcd, the count is a
    quasi-polynomial in S of degree t-1 whose period divides p = lcm(key)
    for S >= r (Verdoolaege et al., Algorithmica 2007): a vertex S*e of
    the box meets the hyperplane only where S * (key . e) = r, and a
    nonzero key . e is at least 1, so past r the section keeps one shape,
    its vertices affine in S with denominators key_i.  Once
    S >= start + (t-1)*p, start the first width >= r congruent to S mod p,
    it is evaluated exactly in Python ints from t boxcar counts at widths
    from start to at most S, with no upper limit on S; rows a.x = 0 start
    at S mod p.  Narrower widths run a strided-boxcar convolution of int64
    value distributions.  Its partial counts are at most (2S+1)^(t-1), so
    it is exact whenever that bound is below 2^63; larger inputs raise
    ResourceError.
    """
    S = int(S)
    if S < 0:
        raise DomainError(f"S must be >= 0, got {S}")
    a = [int(v) for v in coeffs if v != 0]
    rhs = int(rhs)
    free = (2 * S + 1) ** (len(list(coeffs)) - len(a))
    if not a:
        return free if rhs == 0 else 0
    g = math.gcd(*a)
    if rhs % g:
        return 0
    if len(a) == 1:
        return free if abs(rhs // a[0]) <= S else 0
    key = tuple(sorted(abs(v) // g for v in a))
    r, p = abs(rhs) // g, math.lcm(*key)
    start = r + (S - r) % p
    j = (S - start) // p
    if j >= len(key) - 1:
        diffs = _ehrhart_differences(key, r, start)
        return free * sum(math.comb(j, k) * dk for k, dk in enumerate(diffs))
    return free * _boxcar_count(a, S, rhs)


@functools.lru_cache(maxsize=EHRHART_MEMO)
def _ehrhart_differences(key, r, start):
    """Forward differences of f(j) = count at width start + j*p, j < t.

    key is the sorted primitive |coefficients| of a row and r its |rhs| over
    their gcd, whose count sign flips and permutations leave unchanged, and
    p = lcm(key).  For start >= r, f is a polynomial of degree t-1 in j, so
    Newton's formula f(j) = sum_k C(j, k) * diffs[k] gives it at every
    j >= 0.
    """
    p = math.lcm(*key)
    vals = [_boxcar_count(key, start + j * p, r) for j in range(len(key))]
    diffs = []
    while vals:
        diffs.append(vals[0])
        vals = [y - x for x, y in zip(vals, vals[1:])]
    return tuple(diffs)


def _boxcar_count(a, S, rhs):
    """Count of |x_i| <= S with a . x = rhs by int64 boxcar convolutions.

    x_i -> -x_i maps the box to itself, so only |a_i| matters.  The value
    distribution of the smaller coefficients' terms is held on g*Z, one
    entry per multiple of g = gcd of those coefficients, and the largest
    coefficient is summed against it rather than convolved in, so two
    coordinates take O(S) memory whatever their size.  The distribution
    of all but the last term has 2S sum(head)/gcd(head) + 1 entries, and no
    array is longer; when that count plus one passes limits.MAX_ARRAY_ENTRIES
    this raises ResourceError before any is allocated.
    """
    limits.check((2 * S + 1) ** (len(a) - 1), limits.INT64_RANGE,
                 "partial count (2S+1)^(t-1) of a hyperplane count, as an int64,",
                 below=True)
    *head, last = sorted(abs(v) for v in a)
    if abs(rhs) > S * (sum(head) + last):
        return 0
    limits.check(2 * S * (sum(head) // math.gcd(*head)) + 2,
                 limits.MAX_ARRAY_ENTRIES, "entries of a hyperplane count's array")
    pmf = np.ones(2 * S + 1, dtype=np.int64)
    step = head[0]
    low = -step * S   # value at pmf[0]; pmf[i] is at low + i * step
    for coef in head[1:]:
        g = math.gcd(step, coef)
        spread = np.zeros((pmf.shape[0] - 1) * (step // g) + 1, dtype=np.int64)
        spread[::step // g] = pmf
        pmf = _boxcar_convolve(spread, coef // g, S)
        step = g
        low -= coef * S
    # x_last = x reads pmf at (c - last x) / step: for the x of one residue
    # mod step / g, the entries of one progression, stride last / g.
    c, g = rhs - low, math.gcd(step, last)
    period = step // g
    x0 = c // g * pow(last // g, -1, period)
    lo = max(-S, -((step * (pmf.shape[0] - 1) - c) // last))   # index <= len - 1
    lo += (x0 - lo) % period
    hi = min(S, c // last)                                     # index >= 0
    hi -= (hi - x0) % period
    if c % g or lo > hi:
        return 0
    return int(pmf[(c - last * hi) // step:(c - last * lo) // step + 1:last // g].sum())


def _boxcar_convolve(pmf, step, S):
    """Convolve a distribution with the comb {step * x : |x| <= S}.

    Each residue column of the padded copy is overwritten by running
    differences of its own cumsum, so no index array is built.
    """
    span = step * S
    n = pmf.shape[0]
    out_len = n + 2 * span
    padded = np.zeros(out_len, dtype=np.int64)
    padded[span:span + n] = pmf
    for r in range(step):   # col[q] becomes csum[min(q+S, m-1)] - csum[q-S-1]
        col = padded[r::step]
        csum = np.cumsum(col)
        m = col.shape[0]
        col[:max(m - S, 0)] = csum[S:]
        col[max(m - S, 0):] = csum[-1:]   # a slice: at S = 0 a column can be empty
        col[S + 1:] -= csum[:max(m - S - 1, 0)]
    return padded


# ------------------------------------------------------ deviation machinery

@dataclass(frozen=True)
class SubspaceTerm:
    """One collision subspace's contribution to the model deviation."""

    codim: int
    partition_size: int
    ratio: Fraction
    box_fraction: float
    exclusive_fraction: float
    contribution: float
    approximate: bool


@dataclass(frozen=True)
class DeviationReport:
    """Total random-model deviation with its per-subspace breakdown."""

    total: float
    terms: tuple
    dominant: SubspaceTerm
    S: int
    alpha: float


class _DeviationEngine:
    """The collision arrangement of a system, tabulated once and only read after.

    Holds, in term order (hyperplanes, then codim-2 flats, as _lattice
    yields them), each collision subspace's (codim, partition size, ratio),
    each hyperplane's row for the exact box counts, and each flat's parents
    and lattice covolume for inclusion-exclusion and the density
    approximation.  Subspaces with no integer point are left out; a
    covolume reads its flat's first two parent rows, so no echelon is built,
    and one ratio is built per (t - size, codim).  Each (alpha, S) runs
    array operations in a term loop's float order.  Past
    limits.MAX_DEVIATION_SUBSPACES hyperplanes plus flats it raises
    ResourceError.
    """

    def __init__(self, sys):
        self.t = sys.t
        self.d = sys.d
        cap = limits.MAX_DEVIATION_SUBSPACES
        # Only hyperplanes with integer points (gcd(a) | rhs) meet the box.
        # Every hyperplane through a flat with integer points holds them, so
        # it is a row here and the flat's parents name all that contain it.
        arrangement = {row: pairs for row, pairs in _collision_hyperplanes(sys, cap).items()
                       if row[-1] % math.gcd(*row[:-1]) == 0}
        self.rows = list(arrangement)
        if not self.rows:
            raise DomainError(
                "no collision hyperplane of the system holds integer points, "
                "so the random model has no deviation to measure"
            )
        self.flats, self.entries, ratio = [], [], functools.cache(Fraction)
        for codim, parents, merged in _lattice(arrangement, cap, lambda c: c <= 2):
            if codim == 2:   # only flats with integer points meet the box either
                gram = _flat_gram_det(self.rows[parents[0]], self.rows[parents[1]])
                if gram is None:
                    continue
                self.flats.append((parents, math.sqrt(float(gram))))
            merges = merged.bit_count()
            self.entries.append((codim, self.t - merges, ratio(merges, codim)))
        self.sizes = sorted({size for _, size, _ in self.entries})
        self.size_index = np.searchsorted(self.sizes, [size for _, size, _ in self.entries])
        self.covol = np.array([covol for _, covol in self.flats])
        # Each flat's parents in flat order, as inclusion-exclusion visits them.
        self.parent_of = np.array([p for ps, _ in self.flats for p in ps], dtype=np.intp)
        self.flat_of = np.repeat(np.arange(len(self.flats)), [len(p) for p, _ in self.flats])
        # Count classes: x -> -x and x_i -> -x_i map the box to itself.
        self.classes = [(tuple(sorted(map(abs, row[:-1]))), abs(row[-1]))
                        for row in self.rows]

    def fractions(self, S):
        """Fresh arrays of the terms' box and exclusive fractions at width S."""
        width = 2 * S + 1
        box_total = width ** self.d   # can pass int64, so box fractions divide Python ints
        counts = {key: count_hyperplane_points(key[0], S, rhs=key[1])
                  for key in set(self.classes)}
        frac2 = 1.0 / (self.covol * width * width)
        fracs = np.concatenate(([counts[key] / box_total for key in self.classes], frac2))
        excl = fracs.copy()
        np.subtract.at(excl, self.parent_of, frac2[self.flat_of])
        return fracs, excl

    def contributions(self, alpha, excl):
        """Each term's exclusive fraction times its excess alpha^(|pi| - t) - 1,
        and their sum from the left, as a running total's float."""
        try:
            gains = np.array([alpha ** (size - self.t) - 1.0 for size in self.sizes])
        except OverflowError:
            raise NumericError(f"alpha^(|pi| - t) overflows a float at "
                               f"alpha={alpha}, t={self.t}") from None
        contributions = excl * gains[self.size_index]
        return contributions, float(np.add.accumulate(contributions)[-1])


@functools.lru_cache(maxsize=1)
def _engine(sys, cap):
    """The last system's engine.  cap, limits.MAX_DEVIATION_SUBSPACES as the
    caller read it, is in the key, so a changed cap builds and checks afresh."""
    return _DeviationEngine(sys)


def random_model_deviation(sys, alpha, S):
    """Deviation of the Bernoulli random model from 1 at box width S.

    Sums, over the collision subspaces of the system up to codimension 2
    that hold integer points, the exclusive fraction of the box [-S, S]^d
    they occupy times the excess alpha^(|pi| - t) - 1 of the collision
    pattern.  Codimension-1 fractions use exact point counts; codimension-2
    fractions use the lattice density approximation (terms flagged
    approximate).  The dominant term is the first with the largest
    contribution.
    """
    if sys.t < 2:
        raise DomainError("deviation needs a system with t >= 2 forms")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    S = int(S)
    if S < 2:
        raise DomainError(f"width S must be >= 2, got {S}")
    engine = _engine(sys, limits.MAX_DEVIATION_SUBSPACES)
    fracs, excl = engine.fractions(S)
    contributions, total = engine.contributions(alpha, excl)
    terms = tuple(SubspaceTerm(codim, size, ratio, f, ex, c, codim == 2)
                  for (codim, size, ratio), f, ex, c
                  in zip(engine.entries, fracs.tolist(), excl.tolist(), contributions.tolist()))
    return DeviationReport(total=total, terms=terms, dominant=terms[np.argmax(contributions)],
                           S=S, alpha=alpha)


@dataclass(frozen=True)
class ThresholdRow:
    """Width threshold data for one alpha."""

    alpha: float
    S_star: float
    dominant_codim: int
    dominant_ratio: Fraction
    deviation: float


@dataclass(frozen=True)
class ThresholdFit:
    """Fitted growth exponent of the width threshold in 1/alpha."""

    slope: float
    rows: tuple


def width_threshold_fit(sys, alphas, target=1.0):
    """Solve deviation(S) = target per alpha and fit log S* vs log(1/alpha),
    over at least 3 distinct alphas.

    The deviation decreases in S; the crossing is bracketed by doubling,
    no wider than the box whose codim-2 densities stay in float range
    (NumericError past it), and refined by log-log interpolation.  Each
    row's deviation and dominant term are random_model_deviation's at
    S = max(2, round(S*)), read from the engine's arrays; per width the fit
    keeps only each alpha's total and dominant entry.  The fitted slope
    estimates the collision index of the system.
    """
    alphas = [float(a) for a in alphas]
    if len(set(alphas)) < 3:
        raise DomainError(f"need at least 3 distinct alpha values, got {len(set(alphas))}")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {a}")
    target = float(target)
    if not (math.isfinite(target) and target > 0):
        raise DomainError(f"target must be positive and finite, got {target}")
    engine = _engine(sys, limits.MAX_DEVIATION_SUBSPACES)

    @functools.cache
    def at(S):
        """Per alpha, its total at width S and the entry of its first largest
        contribution, or the NumericError it raises: numbers, not arrays."""
        excl = engine.fractions(S)[1]
        out = []
        for a in alphas:
            try:
                contributions, total = engine.contributions(a, excl)
            except NumericError as exc:
                out.append(exc)
            else:
                out.append((total, int(np.argmax(contributions))))
        return out

    def read(j, S):   # alpha j's error is raised when alpha j reads it
        got = at(S)[j]
        if isinstance(got, NumericError):
            raise got
        return got

    # The widest 2S + 1 whose flat densities 1 / (covol (2S+1)^2) stay in float range.
    widest = math.isqrt(int(np.finfo(float).max / engine.covol.max(initial=1.0)))

    def log_between(lo, hi, frac):   # frac of the way from lo to hi in log S
        return math.exp(math.log(lo) + frac * (math.log(hi) - math.log(lo)))

    rows = []
    for j, alpha in enumerate(alphas):
        dev = lambda S, j=j: read(j, S)[0]
        lo = 2
        if dev(lo) < target:
            s_star = float(lo)
        else:
            hi = 4
            while dev(hi) >= target:
                prev = hi
                hi *= 2
                if 2 * hi + 1 > widest:
                    raise NumericError(
                        f"deviation never fell below {target} up to S={prev}"
                    )
                if dev(hi) > dev(prev) * (1 + 1e-9):
                    raise NumericError(
                        f"deviation increased from S={prev} to S={hi}: "
                        f"{dev(prev)} -> {dev(hi)}"
                    )
            lo = hi // 2
            while hi - lo > max(1, lo // 1024):
                f_lo = dev(lo)
                f_hi = dev(hi)
                span = math.log(f_lo) - math.log(f_hi)
                if span <= 0:
                    raise NumericError(
                        f"deviation not decreasing on [{lo}, {hi}] "
                        f"at alpha={alpha}"
                    )
                frac = (math.log(f_lo) - math.log(target)) / span
                mid = int(round(log_between(lo, hi, min(max(frac, 0.1), 0.9))))
                mid = min(max(mid, lo + 1), hi - 1)
                if dev(mid) >= target:
                    lo = mid
                else:
                    hi = mid
            f_lo = dev(lo)
            f_hi = dev(hi)
            if f_lo > f_hi:
                span = math.log(f_lo) - math.log(f_hi)
                frac = (math.log(f_lo) - math.log(target)) / span
                s_star = log_between(lo, hi, frac)
            else:
                s_star = float(lo)
        total, entry = read(j, max(2, int(round(s_star))))
        codim, _, ratio = engine.entries[entry]
        rows.append(ThresholdRow(alpha=alpha, S_star=s_star, dominant_codim=codim,
                                 dominant_ratio=ratio, deviation=total))
    xs = np.log([1.0 / r.alpha for r in rows])
    ys = np.log([r.S_star for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ThresholdFit(slope=slope, rows=tuple(rows))
