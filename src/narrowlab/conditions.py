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
from .linforms import _codim2_flats, _collision_hyperplanes, _flat_gram_det, _joined

MC_BATCH = 1 << 18   # Monte Carlo samples drawn per batch
EHRHART_MEMO = 4096   # (row, residue class) quasi-polynomial fits kept


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
    box, MC_BATCH at a time.  The seed is split deterministically into
    `workers` seed streams, which run one after another in this process,
    so the result depends only on (seed, workers).  More than
    limits.MAX_MC_SAMPLES samples, or more workers than samples, raise
    ResourceError before any stream is spawned.
    """
    active, A, c = _form_arrays(sys, e, box)
    samples = int(samples)
    if samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    limits.check(samples, limits.MAX_MC_SAMPLES, "Monte Carlo samples")
    workers = max(1, int(workers))
    limits.check(workers, samples, "workers (at most one per sample)")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    d = A.shape[1]
    modulus = model.modulus
    span = _int64_span(A, c, box, modulus)
    lo = np.array([iv[0] for iv in box.intervals], dtype=np.int64)
    hi = np.array([iv[1] for iv in box.intervals], dtype=np.int64)
    if len(set(box.intervals)) == 1:   # scalar bounds draw the same stream, faster
        lo, hi = box.intervals[0]
    At = np.ascontiguousarray(A.T)
    streams = np.random.SeedSequence(seed).spawn(workers)
    total = 0.0
    total_sq = 0.0
    quota, rem = divmod(samples, workers)
    for w, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        left = quota + (1 if w < rem else 0)
        while left > 0:
            m = min(MC_BATCH, left)
            left -= m
            x = rng.integers(lo, hi + 1, size=(m, d))
            n = rng.integers(0, modulus, size=m)
            if active and model.kind != "one":
                phi = x @ At
                if c.any():   # the paper's families have no constants
                    phi += c
                phi += n[:, None]
                # np.take's wrap mode steps one modulus at a time, so
                # values more than a modulus away are reduced first.
                if span >= modulus:
                    phi %= modulus
                looked = np.take(model.values, phi, mode="wrap")
                vals = looked[:, 0].copy()
                for col in range(1, len(active)):   # prod's order, column by column
                    vals *= looked[:, col]
            else:
                vals = np.ones(m)
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
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
    rhs.  For rhs = 0 and t active coordinates the count is an Ehrhart
    quasi-polynomial in S of degree t-1 whose period divides
    p = lcm|coeffs_i| (its polytope's vertices lie on edges of [-1, 1]^t).
    Once S >= t*p + (S mod p) it is evaluated exactly in Python ints from t
    boxcar counts at widths no larger than S, with no upper limit on S.
    Narrower widths and rhs != 0 rows run a strided-boxcar convolution of
    int64 value distributions.  Its partial counts are at most
    (2S+1)^(t-1), so it is exact whenever that bound is below 2^63; larger
    inputs raise ResourceError.
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
    if rhs == 0:
        key = tuple(sorted(abs(v) // g for v in a))
        p = math.lcm(*key)
        c = S % p
        if S >= len(key) * p + c:
            diffs = _ehrhart_differences(key, c)
            j = S // p
            return free * sum(math.comb(j - 1, k) * dk
                              for k, dk in enumerate(diffs))
    return free * _boxcar_count(a, S, rhs)


@functools.lru_cache(maxsize=EHRHART_MEMO)
def _ehrhart_differences(key, c):
    """Forward differences of f(j) = count at width c + j*p, j = 1..t.

    key is the sorted primitive |coefficients| of an rhs = 0 row, whose
    count sign flips and permutations leave unchanged, and p = lcm(key).
    f is a polynomial of degree t-1 in j, so Newton's formula
    f(j) = sum_k C(j-1, k) * diffs[k] gives it at every j >= 1.
    """
    p = math.lcm(*key)
    vals = [_boxcar_count(key, c + j * p, 0) for j in range(1, len(key) + 1)]
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
    coordinates take O(S) memory whatever their size.
    """
    limits.check((2 * S + 1) ** (len(a) - 1), limits.INT64_RANGE,
                 "partial count (2S+1)^(t-1) of a hyperplane count, as an int64,",
                 below=True)
    *head, last = sorted(abs(v) for v in a)
    if abs(rhs) > S * (sum(head) + last):
        return 0
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
    v = rhs - low - last * np.arange(-S, S + 1, dtype=np.int64)
    v = v[(v >= 0) & (v % step == 0)] // step
    return int(pmf[v[v < pmf.shape[0]]].sum())


def _boxcar_convolve(pmf, step, S):
    """Convolve a distribution with the comb {step * x : |x| <= S}."""
    span = step * S
    n = pmf.shape[0]
    out_len = n + 2 * span
    padded = np.zeros(out_len, dtype=np.int64)
    padded[span:span + n] = pmf
    out = np.empty(out_len, dtype=np.int64)
    for r in range(step):
        col = padded[r::step]
        csum = np.concatenate([[0], np.cumsum(col)])
        m = col.shape[0]
        q = np.arange(m)
        hi = np.minimum(q + S + 1, m)
        lo = np.maximum(q - S, 0)
        out[r::step] = csum[hi] - csum[lo]
    return out


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
    """The collision arrangement of a system, tabulated once.

    Holds, in term order (hyperplanes, then codim-2 flats), each collision
    subspace's (codim, partition size, ratio), each hyperplane's row for
    the exact box counts, and each flat's parents and lattice covolume for
    inclusion-exclusion and the density approximation.  Flats come from
    the codim-2 reader as parent lists, and a covolume reads its flat's
    first two parent rows, so no echelon is built.  Subspaces with no
    integer point are left out, and a partition joins the form pairs of
    the hyperplanes containing the subspace, as lindex scores it.
    """

    def __init__(self, sys, max_subspaces=limits.MAX_DEVIATION_SUBSPACES):
        self.t = sys.t
        self.d = sys.d
        # Only hyperplanes with integer points (gcd(a) | rhs) meet the box.
        arrangement = _collision_hyperplanes(sys, max_subspaces)
        self.rows = [row for row in arrangement
                     if row[-1] % math.gcd(*row[:-1]) == 0]
        if not self.rows:
            raise DomainError(
                "no collision hyperplane of the system holds integer points, "
                "so the random model has no deviation to measure"
            )
        pairs = [arrangement[row] for row in self.rows]
        # Only flats with integer points meet the box either.  Every
        # hyperplane through such a flat holds its points, so it is a row
        # here and the flat's parents name all the hyperplanes containing it.
        self.flats = []
        for parents in _codim2_flats(self.rows, max_subspaces):
            gram = _flat_gram_det(*(self.rows[p] for p in parents[:2]))
            if gram is not None:
                self.flats.append((parents, math.sqrt(float(gram))))
        self.entries = []
        for codim, inside in ([(1, (i,)) for i in range(len(self.rows))]
                              + [(2, parents) for parents, _ in self.flats]):
            size = _joined(self.t, (pairs[i] for i in inside))[0]
            self.entries.append((codim, size, Fraction(self.t - size, codim)))
        self.sizes = {size for _, size, _ in self.entries}

    def evaluate(self, alpha, S):
        """Terms' box and exclusive fractions, contributions, and total."""
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        S = int(S)
        if S < 2:
            raise DomainError(f"width S must be >= 2, got {S}")
        width = 2 * S + 1
        box_total = width ** self.d
        frac1 = [count_hyperplane_points(row[:-1], S, rhs=row[-1]) / box_total
                 for row in self.rows]
        frac2 = [1.0 / (covol * width * width) for _, covol in self.flats]
        fracs = frac1 + frac2
        excl = list(fracs)
        for (parents, _), f2 in zip(self.flats, frac2):
            for parent in parents:
                excl[parent] -= f2
        try:
            gains = {size: alpha ** (size - self.t) - 1.0 for size in self.sizes}
        except OverflowError:
            raise NumericError(f"alpha^(|pi| - t) overflows a float at "
                               f"alpha={alpha}, t={self.t}") from None
        contributions = []
        total = 0.0
        for (_, size, _), ex in zip(self.entries, excl):
            contribution = ex * gains[size]
            total += contribution
            contributions.append(contribution)
        return fracs, excl, contributions, total

    def deviation(self, alpha, S):
        fracs, excl, contributions, total = self.evaluate(alpha, S)
        terms = tuple(SubspaceTerm(codim, size, ratio, f, ex, c, codim == 2)
                      for (codim, size, ratio), f, ex, c
                      in zip(self.entries, fracs, excl, contributions))
        dominant = max(terms, key=lambda term: term.contribution)
        return DeviationReport(total=total, terms=terms, dominant=dominant,
                               S=int(S), alpha=float(alpha))


def random_model_deviation(sys, alpha, S,
                           max_subspaces=limits.MAX_DEVIATION_SUBSPACES):
    """Deviation of the Bernoulli random model from 1 at box width S.

    Sums, over the collision subspaces of the system up to codimension 2
    that hold integer points, the exclusive fraction of the box [-S, S]^d
    they occupy times the excess alpha^(|pi| - t) - 1 of the collision
    pattern.  Codimension-1 fractions use exact point counts; codimension-2
    fractions use the lattice density approximation (terms flagged
    approximate).
    """
    if sys.t < 2:
        raise DomainError("deviation needs a system with t >= 2 forms")
    return _DeviationEngine(sys, max_subspaces=max_subspaces).deviation(alpha, S)


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


def width_threshold_fit(sys, alphas, target=1.0,
                        max_subspaces=limits.MAX_DEVIATION_SUBSPACES):
    """Solve deviation(S) = target per alpha and fit log S* vs log(1/alpha).

    The deviation decreases in S; the crossing is bracketed by doubling
    and refined by log-log interpolation.  The fitted slope estimates the
    collision index of the system.
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 3:
        raise DomainError(f"need at least 3 alpha values, got {len(alphas)}")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {a}")
    target = float(target)
    if not (math.isfinite(target) and target > 0):
        raise DomainError(f"target must be positive and finite, got {target}")
    engine = _DeviationEngine(sys, max_subspaces=max_subspaces)

    def log_between(lo, hi, frac):   # frac of the way from lo to hi in log S
        return math.exp(math.log(lo) + frac * (math.log(hi) - math.log(lo)))

    rows = []
    for alpha in alphas:
        dev = functools.cache(lambda S, a=alpha: engine.evaluate(a, S)[-1])
        lo = 2
        if dev(lo) < target:
            s_star = float(lo)
        else:
            hi = 4
            while dev(hi) >= target:
                prev = hi
                hi *= 2
                if hi > 1 << 40:
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
        report = engine.deviation(alpha, max(2, int(round(s_star))))
        rows.append(ThresholdRow(
            alpha=alpha, S_star=s_star,
            dominant_codim=report.dominant.codim,
            dominant_ratio=report.dominant.ratio,
            deviation=report.total,
        ))
    xs = np.log([1.0 / r.alpha for r in rows])
    ys = np.log([r.S_star for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ThresholdFit(slope=slope, rows=tuple(rows))
