"""Empirical linear-forms-condition averages and random-model width thresholds.

The average of a product of weights along a system of forms over a box is
estimated by Monte Carlo sampling, enumerated exactly on small boxes, and
for the Bernoulli random model predicted analytically from the collision
structure of the system.  The deviation of that prediction from 1 as a
function of the box width S locates the width threshold, whose growth
exponent in 1/alpha is the collision index.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericError, ResourceError
from .linforms import (
    _codim2_flats,
    _collision_hyperplanes,
    _hyperplane_echelons,
    _induced_atoms,
    _kernel_lattice,
)

MAX_RANDOM_MODULUS = 1 << 27
MC_BATCH = 1 << 18   # Monte Carlo samples drawn per batch
EXACT_CAP = 10 ** 7   # evaluations allowed in an exact average


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
        model = cls(kind="random", modulus=modulus, alpha=alpha)
        if model.modulus > MAX_RANDOM_MODULUS:
            raise ResourceError(
                f"random model materializes {model.modulus} draws; cap is "
                f"{MAX_RANDOM_MODULUS}"
            )
        draws = np.random.default_rng(seed).random(model.modulus)
        model.values = np.where(draws < alpha, 1.0 / alpha, 0.0)
        return model

    def lookup(self, idx):
        if self.kind == "one":
            return np.ones(np.shape(idx), dtype=np.float64)
        return self.values[idx]


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
    when None), and the box must have the forms' dimension.
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
    A = np.array([forms[i].coeffs for i in active], dtype=np.int64)
    c = np.array([forms[i].constant for i in active], dtype=np.int64)
    return active, A.reshape(len(active), d), c


def lfc_average_mc(model, sys, e, box, samples, seed=0, workers=1):
    """Monte Carlo average of prod nu(n + psi_i(x))^{e_i} over the box.

    Samples (n, x) uniformly with n in Z/N'Z and x an integer point of the
    box, MC_BATCH at a time.  The seed is split deterministically into
    `workers` seed streams, which run one after another in this process,
    so the result depends only on (seed, workers).
    """
    active, A, c = _form_arrays(sys, e, box)
    samples = int(samples)
    if samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    workers = max(1, int(workers))
    d = A.shape[1]
    modulus = model.modulus
    lo = np.array([iv[0] for iv in box.intervals], dtype=np.int64)
    hi = np.array([iv[1] for iv in box.intervals], dtype=np.int64)
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
            phi = (x @ A.T + c + n[:, None]) % modulus
            vals = model.lookup(phi).prod(axis=1)
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
    times the modulus must stay under EXACT_CAP.  For the random model the
    average over the randomness is analytic: each point contributes
    alpha^(distinct - active) through its collision pattern.  The constant
    model is identically 1.
    """
    active, A, c = _form_arrays(sys, e, box)
    npoints = box.point_count
    if len(active) == 0 or model.kind == "one":
        return 1.0
    if model.kind == "table":
        budget = npoints * model.modulus
    else:
        budget = npoints
    if budget > EXACT_CAP:
        raise ResourceError(
            f"exact average needs {budget} evaluations (cap {EXACT_CAP})"
        )
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
    of (2S+1) each.  The active part uses closed forms for up to two
    coordinates and a strided-boxcar convolution of int64 value
    distributions beyond.  Every partial count of that convolution is at
    most (2S+1)^(t-1) for t active coordinates, so counts are exact
    whenever that bound is below 2^63; larger inputs raise ResourceError.
    """
    S = int(S)
    if S < 0:
        raise DomainError(f"S must be >= 0, got {S}")
    a = [int(v) for v in coeffs if v != 0]
    rhs = int(rhs)
    free = (2 * S + 1) ** (len(list(coeffs)) - len(a))
    if not a:
        return free if rhs == 0 else 0
    if len(a) == 1:
        q, r = divmod(rhs, a[0])
        return free if r == 0 and abs(q) <= S else 0
    if len(a) == 2 and rhs == 0:
        g = math.gcd(abs(a[0]), abs(a[1]))
        return free * (2 * (S * g // max(abs(a[0]), abs(a[1]))) + 1)
    if (2 * S + 1) ** (len(a) - 1) >= 1 << 63:
        raise ResourceError(
            f"hyperplane count with {len(a)} active coordinates at S={S} "
            "exceeds the int64 range"
        )
    pmf = np.ones(1, dtype=np.int64)
    offset = 0
    for coef in a:
        pmf, offset = _boxcar_convolve(pmf, offset, coef, S)
    idx = rhs - offset
    if idx < 0 or idx >= pmf.shape[0]:
        return 0
    return free * int(pmf[idx])


def _boxcar_convolve(pmf, offset, coef, S):
    """Convolve a value distribution with the comb {coef * x : |x| <= S}."""
    step = abs(coef)
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
    return out, offset - span


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
    """Closure-lattice data reused across deviation evaluations.

    Enumerates collision subspaces up to codimension 2, their induced
    partitions, the integer data needed for box counts, and the
    containment order used for inclusion-exclusion.
    """

    def __init__(self, sys, max_subspaces=200000):
        self.sys = sys
        self.t = sys.t
        self.d = sys.d
        # Only hyperplanes with integer points (gcd(a) | rhs) meet the box.
        rows = [row for row in _collision_hyperplanes(sys)
                if row[-1] % math.gcd(*row[:-1]) == 0]
        self.hyperplanes = [
            {"row": row, "psize": len(_induced_atoms(sys, ech))}
            for row, ech in zip(rows, _hyperplane_echelons(rows))
        ]
        if not self.hyperplanes:
            raise DomainError(
                "no collision hyperplane of the system holds integer points, "
                "so the random model has no deviation to measure"
            )
        self.codim2 = []
        for flat, parents in _codim2_flats(rows, max_subspaces):
            basis, gdet, covol = _kernel_lattice(
                [rows[p][:-1] for p in parents[:2]], sys.d
            )
            self.codim2.append({
                "psize": len(_induced_atoms(sys, flat)),
                "covol": covol, "parents": parents,
            })

    def deviation(self, alpha, S):
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        S = int(S)
        if S < 2:
            raise DomainError(f"width S must be >= 2, got {S}")
        t = self.t
        width = 2 * S + 1
        frac2 = []
        for elt in self.codim2:
            frac2.append(1.0 / (elt["covol"] * width * width))
        box_total = width ** self.d
        frac1 = []
        for hp in self.hyperplanes:
            cnt = count_hyperplane_points(hp["row"][:-1], S,
                                          rhs=hp["row"][-1])
            frac1.append(cnt / box_total)
        excl1 = list(frac1)
        for elt, f2 in zip(self.codim2, frac2):
            for parent in elt["parents"]:
                excl1[parent] -= f2
        terms = []
        total = 0.0
        for hp, f, ex in zip(self.hyperplanes, frac1, excl1):
            gain = alpha ** (hp["psize"] - t) - 1.0
            contribution = ex * gain
            total += contribution
            terms.append(SubspaceTerm(
                codim=1, partition_size=hp["psize"],
                ratio=Fraction(t - hp["psize"], 1),
                box_fraction=f, exclusive_fraction=ex,
                contribution=contribution, approximate=False,
            ))
        for elt, f2 in zip(self.codim2, frac2):
            gain = alpha ** (elt["psize"] - t) - 1.0
            contribution = f2 * gain
            total += contribution
            terms.append(SubspaceTerm(
                codim=2, partition_size=elt["psize"],
                ratio=Fraction(t - elt["psize"], 2),
                box_fraction=f2, exclusive_fraction=f2,
                contribution=contribution, approximate=True,
            ))
        dominant = max(terms, key=lambda term: term.contribution)
        return DeviationReport(total=total, terms=tuple(terms),
                               dominant=dominant, S=S, alpha=alpha)


def random_model_deviation(sys, alpha, S, max_subspaces=200000):
    """Deviation of the Bernoulli random model from 1 at box width S.

    Sums, over the collision subspaces of the system up to codimension 2,
    the exclusive fraction of the box [-S, S]^d they occupy times the
    excess alpha^(|pi| - t) - 1 of the collision pattern.  Codimension-1
    fractions use exact point counts; codimension-2 fractions use the
    lattice density approximation (terms flagged approximate).
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


def width_threshold_fit(sys, alphas, target=1.0, max_subspaces=200000):
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
    rows = []
    for alpha in alphas:
        cache = {}

        def dev(S):
            if S not in cache:
                cache[S] = engine.deviation(alpha, S)
            return cache[S]

        lo = 2
        if dev(lo).total < target:
            s_star = float(lo)
        else:
            hi = 4
            while dev(hi).total >= target:
                prev = hi
                hi *= 2
                if hi > 1 << 40:
                    raise NumericError(
                        f"deviation never fell below {target} up to S={prev}"
                    )
                if dev(hi).total > dev(prev).total * (1 + 1e-9):
                    raise NumericError(
                        f"deviation increased from S={prev} to S={hi}: "
                        f"{dev(prev).total} -> {dev(hi).total}"
                    )
            lo = hi // 2
            while hi - lo > max(1, lo // 1024):
                f_lo = dev(lo).total
                f_hi = dev(hi).total
                span = math.log(f_lo) - math.log(f_hi)
                if span <= 0:
                    raise NumericError(
                        f"deviation not decreasing on [{lo}, {hi}] "
                        f"at alpha={alpha}"
                    )
                frac = (math.log(f_lo) - math.log(target)) / span
                frac = min(max(frac, 0.1), 0.9)
                mid = int(round(math.exp(
                    math.log(lo) + frac * (math.log(hi) - math.log(lo))
                )))
                mid = min(max(mid, lo + 1), hi - 1)
                if dev(mid).total >= target:
                    lo = mid
                else:
                    hi = mid
            f_lo = dev(lo).total
            f_hi = dev(hi).total
            if f_lo > f_hi:
                span = math.log(f_lo) - math.log(f_hi)
                frac = (math.log(f_lo) - math.log(target)) / span
                s_star = math.exp(
                    math.log(lo) + frac * (math.log(hi) - math.log(lo))
                )
            else:
                s_star = float(lo)
        report = dev(max(2, int(round(s_star))))
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
