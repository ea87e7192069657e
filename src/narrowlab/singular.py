"""Singular series, shift-vector discriminants, and Gallagher-type averages.

The singular series of a shift vector h is the Euler product over primes
of (1 - 1/p)^(-r) (1 - nu_p(h)/p), where r counts distinct entries and
nu_p counts occupied residues mod p.  Products are truncated at a prime
bound P_max with every prime dividing the discriminant handled exactly,
so truncation affects precision only, never vanishing.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conditions import BoxRegion
from .errors import DomainError, ResourceError
from .numtheory import _bootstrap_primes, factorize

DEFAULT_PMAX = 100000
MAX_PMAX = 10 ** 8                # truncation bound: a boolean sieve of 100 MB
EXACT_CAP = 10 ** 7
MAX_DELTA = 10 ** 12              # |Delta(h)| of the E weight, factored by trial division
MAX_BOX_DIM = 64                  # coordinates of a Gallagher box
MAX_SAMPLE_ENTRIES = 10 ** 7      # sampled coordinates: samples times box dimension


@dataclass(frozen=True)
class ShiftVector:
    """Integer shift vector with its distinct-value structure."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(v) for v in self.entries))
        if not self.entries:
            raise DomainError("shift vector must be non-empty")

    @property
    def k(self):
        return len(self.entries)

    @property
    def r(self):
        return len(set(self.entries))


def as_shift(h):
    """Coerce a sequence or ShiftVector to ShiftVector."""
    if isinstance(h, ShiftVector):
        return h
    return ShiftVector(entries=tuple(h))


@dataclass(frozen=True)
class SingularValue:
    """Truncated singular series value with its truncation diagnostics."""

    value: float
    P_max: int
    tail_bound: float


@dataclass(frozen=True)
class ErrorFactor:
    """exp(C * sum of 1/p over primes p dividing the discriminant)."""

    value: float
    prime_inverse_sum: float


@dataclass(frozen=True)
class GallagherReport:
    """Box average of a singular-series-type weight."""

    mean: float
    abs_dev: float
    stderr: float
    n_points: int
    mode: str


def delta(h):
    """Product of pairwise differences over unequal entries; 1 if none."""
    h = as_shift(h)
    out = 1
    for i, j in itertools.combinations(range(h.k), 2):
        if h.entries[i] != h.entries[j]:
            out *= h.entries[i] - h.entries[j]
    return out


@functools.lru_cache(maxsize=64)
def _generic_product(r, k, W_primes, P_max):
    """Product of the generic local factors over primes k < p <= P_max, p not in W."""
    p = _bootstrap_primes(P_max)
    mask = p > k
    for q in W_primes:
        mask &= p != q
    p = p[mask]
    logs = -r * np.log1p(-1.0 / p) + np.log1p(-r / p)
    return float(np.exp(np.sum(logs)))


@functools.lru_cache(maxsize=64)
def _primes_upto(k):
    """The primes up to k, whose local factors are always taken exactly."""
    return frozenset(_bootstrap_primes(k).tolist())


def _local_factor(p, nu, r):
    """(1 - 1/p)^(-r) (1 - nu/p); the generic factor has nu = r, and nu = p gives 0."""
    return (1.0 - 1.0 / p) ** (-r) * (1.0 - nu / p)


def _least_root(n, floor):
    """The least m > floor with m^e = n for an integer e >= 1, given n > floor."""
    e, base = 2, max(floor + 1, 2)
    while base ** e <= n:
        m = 1 << -(-n.bit_length() // e)          # at least the e-th root
        while m ** e > n:
            m = ((e - 1) * m + n // m ** (e - 1)) // e
        if m ** e == n:
            n = m
        else:
            e += 1
    return n


def discriminant_primes(disc, P_max):
    """Prime factors of disc, DomainError when one exceeds P_max.

    Trial division stops past P_max, which no truncated product reads, so
    a huge prime factor costs no more than a small one.  The error names
    the least root of the unfactored part, so a power of disc names the
    same number.
    """
    primes = [p for p, _ in factorize(disc, bound=P_max)]
    if primes and primes[-1] > P_max:
        root = _least_root(primes[-1], P_max)
        # Free of primes up to P_max, a root below (P_max + 1)^2 is prime.
        largest = root if root <= P_max * (P_max + 2) else f"(a factor of {root})"
        raise DomainError(
            f"P_max={P_max} is below the largest prime factor "
            f"{largest} of the discriminant"
        )
    return primes


def singular_series(h, P_max=DEFAULT_PMAX, W=1):
    """Truncated singular series of h, skipping primes dividing W.

    Local factors at primes up to max(k, the largest prime factor of the
    discriminant) are exact; the remaining primes up to P_max use the
    generic occupancy nu_p = r.  The recorded tail bound is the
    multiplicative error exp(r^2 / P_max) - 1 of dropping primes beyond
    P_max.  Primes of W above P_max touch no factor, so W is factored,
    and checked squarefree, only up to P_max.
    """
    h = as_shift(h)
    W = int(W)
    if W < 1:
        raise DomainError(f"W must be >= 1, got {W}")
    P_max = check_p_max(P_max)
    W_factors = [(p, e) for p, e in factorize(W, bound=P_max) if p <= P_max]
    if any(e > 1 for _, e in W_factors):
        raise DomainError(f"W={W} must be squarefree")
    W_primes = [p for p, _ in W_factors]
    r = h.r
    k = h.k
    if P_max < k:
        raise DomainError(f"P_max={P_max} must be at least k={k}")
    delta_primes = discriminant_primes(delta(h), P_max)
    tail = math.exp(r * r / P_max) - 1.0
    small = sorted(_primes_upto(k).union(delta_primes))
    value = _generic_product(r, k, tuple(W_primes), P_max)
    for p in small:
        if p in W_primes:
            continue
        exact = _local_factor(p, len({v % p for v in h.entries}), r)
        if exact == 0.0:
            return SingularValue(value=0.0, P_max=P_max, tail_bound=tail)
        if p > k:
            value /= _local_factor(p, r, r)
        value *= exact
    return SingularValue(value=value, P_max=P_max, tail_bound=tail)


def check_p_max(P_max):
    """P_max as an int; ResourceError past MAX_PMAX, before its primes are sieved."""
    P_max = int(P_max)
    if P_max > MAX_PMAX:
        raise ResourceError(f"P_max={P_max} is past the cap of {MAX_PMAX}")
    return P_max


def error_factor(h, C):
    """exp(C * sum of 1/p over p | Delta(h)), plus the raw inverse sum.

    Delta(h) is factored in full by trial division, which can take about
    sqrt(|Delta(h)|) / 3 steps, so |Delta(h)| past MAX_DELTA raises
    ResourceError before any division.
    """
    h = as_shift(h)
    C = float(C)
    if C <= 0:
        raise DomainError(f"C must be positive, got {C}")
    disc = delta(h)
    if abs(disc) > MAX_DELTA:
        raise ResourceError(f"|Delta(h)| = {abs(disc)} is past the cap of {MAX_DELTA}")
    s = sum(1.0 / p for p, _ in factorize(disc))
    return ErrorFactor(value=math.exp(C * s), prime_inverse_sum=s)


def check_delta_bound(dims):
    """ResourceError when a point of the box of intervals dims could have
    |Delta| past MAX_DELTA: the product over coordinate pairs of their
    largest difference bounds |Delta| at every point."""
    bound = 1
    for (lo_i, hi_i), (lo_j, hi_j) in itertools.combinations(dims, 2):
        bound *= max(hi_i - lo_j, hi_j - lo_i, 1)
        if bound > MAX_DELTA:
            raise ResourceError(
                f"points of the box may have |Delta| past the E weight's "
                f"cap of {MAX_DELTA}"
            )


def check_box_size(t, sample=None):
    """ResourceError for a box of more than MAX_BOX_DIM coordinates, or
    for more than MAX_SAMPLE_ENTRIES drawn coordinates, before either is built."""
    if t > MAX_BOX_DIM:
        raise ResourceError(f"box has {t} coordinates, past the cap of {MAX_BOX_DIM}")
    if sample is not None and sample * t > MAX_SAMPLE_ENTRIES:
        raise ResourceError(
            f"{sample} samples of {t} coordinates draw {sample * t} entries, "
            f"past the cap of {MAX_SAMPLE_ENTRIES}"
        )


def _refine(classes, interval):
    """Split classes (s, bottom, top), x_1 in [bottom, top], by d = x_1 - x_i
    over x_i in interval, drawing only the d that leave x_1 a point."""
    lo, hi = interval
    for s, bottom, top in classes:
        for d in range(bottom - hi, top - lo + 1):
            yield (*s, d), max(bottom, lo + d), min(top, hi + d)


def gallagher_average(weight, box, W=1, P_max=DEFAULT_PMAX, C=1.0,
                      sample=None, seed=0):
    """Average of a weight over the integer points of a box.

    weight "GW" averages the W-tricked singular series, weight "E" the
    discriminant error factor with constant C.  Boxes with at most
    EXACT_CAP points are summed exactly, one weight per class of equal
    x_1 - x_i, as translation, permutation and sign keep both weights;
    larger boxes require a sample count and report a standard error.
    """
    if weight not in ("GW", "E"):
        raise DomainError(f"weight must be 'GW' or 'E', got {weight!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    box = BoxRegion(intervals=box)
    dims, count = box.intervals, box.point_count
    check_box_size(len(dims), sample)
    if weight == "GW":
        check_p_max(P_max)
    else:
        check_delta_bound(dims)

    def g(point):
        if weight == "GW":
            return singular_series(point, P_max=P_max, W=W).value
        return error_factor(point, C).value

    if count <= EXACT_CAP and sample is None:
        classes = functools.reduce(_refine, dims[1:], [((), *dims[0])])
        total = 0.0
        weigh = functools.cache(g)
        for s, bottom, top in classes:
            h = sorted((0, *s))
            total += (top - bottom + 1) * weigh(tuple([v - h[0] for v in h]))
        mean = total / count
        return GallagherReport(mean=mean, abs_dev=abs(mean - 1.0),
                               stderr=0.0, n_points=count, mode="exact")
    if sample is None:
        raise ResourceError(
            f"box has {count} points (cap {EXACT_CAP}); pass sample=... "
            "to switch to uniform sampling"
        )
    sample = int(sample)
    if sample < 2:
        raise DomainError("sample count must be at least 2")
    rng = np.random.default_rng(seed)
    draws = np.column_stack(
        [rng.integers(lo, hi + 1, size=sample) for lo, hi in dims]
    )
    vals = np.array([g(tuple(row)) for row in draws])
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(sample))
    return GallagherReport(mean=mean, abs_dev=abs(mean - 1.0),
                           stderr=stderr, n_points=sample, mode="sample")
