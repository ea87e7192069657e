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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .conditions import BoxRegion
from .errors import DomainError, ResourceError
from .numtheory import _bootstrap_primes, factorize, is_prime

DEFAULT_PMAX = 100000
EXACT_CAP = 10 ** 7


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

    @property
    def multiplicities(self):
        return dict(Counter(self.entries))


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


def occupied_residues(h, p):
    """Number of residue classes mod p occupied by the entries of h."""
    p = int(p)
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    h = as_shift(h)
    return len({v % p for v in h.entries})


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


def _local_factor(p, nu, r):
    """(1 - 1/p)^(-r) (1 - nu/p); the generic factor has nu = r, and nu = p gives 0."""
    return (1.0 - 1.0 / p) ** (-r) * (1.0 - nu / p)


def singular_series(h, P_max=DEFAULT_PMAX, W=1):
    """Truncated singular series of h, skipping primes dividing W.

    Local factors at primes up to max(k, the largest prime factor of the
    discriminant) are exact; the remaining primes up to P_max use the
    generic occupancy nu_p = r.  The recorded tail bound is the
    multiplicative error exp(r^2 / P_max) - 1 of dropping primes beyond
    P_max.
    """
    h = as_shift(h)
    W = int(W)
    if W < 1:
        raise DomainError(f"W must be >= 1, got {W}")
    W_factors = factorize(W)
    if any(e > 1 for _, e in W_factors):
        raise DomainError(f"W={W} must be squarefree")
    W_primes = [p for p, _ in W_factors]
    P_max = int(P_max)
    r = h.r
    k = h.k
    if P_max < k:
        raise DomainError(f"P_max={P_max} must be at least k={k}")
    d = delta(h)
    delta_primes = [p for p, _ in factorize(d)]
    if delta_primes and delta_primes[-1] > P_max:
        raise DomainError(
            f"P_max={P_max} is below the largest prime factor "
            f"{delta_primes[-1]} of the discriminant"
        )
    tail = math.exp(r * r / P_max) - 1.0
    small = sorted(set(delta_primes) | set(_bootstrap_primes(k).tolist()))
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


def error_factor(h, C):
    """exp(C * sum of 1/p over p | Delta(h)), plus the raw inverse sum."""
    h = as_shift(h)
    C = float(C)
    if C <= 0:
        raise DomainError(f"C must be positive, got {C}")
    s = sum(1.0 / p for p, _ in factorize(delta(h)))
    return ErrorFactor(value=math.exp(C * s), prime_inverse_sum=s)


def gallagher_average(weight, box, W=1, P_max=DEFAULT_PMAX, C=1.0,
                      sample=None, seed=0):
    """Average of a weight over the integer points of a box.

    weight "GW" averages the W-tricked singular series, weight "E" the
    discriminant error factor with constant C.  Boxes with at most
    EXACT_CAP points are enumerated exactly (pair boxes are aggregated
    over the difference of the two coordinates, which the weights depend
    on); larger boxes require a sample count and report a standard error.
    """
    if weight not in ("GW", "E"):
        raise DomainError(f"weight must be 'GW' or 'E', got {weight!r}")
    box = BoxRegion(intervals=box)
    dims, count = box.intervals, box.point_count

    def g(point):
        if weight == "GW":
            return singular_series(point, P_max=P_max, W=W).value
        return error_factor(point, C).value

    if count <= EXACT_CAP and sample is None:
        if len(dims) == 2:
            (lo1, hi1), (lo2, hi2) = dims
            total = 0.0
            cache = {}
            for d1 in range(lo1 - hi2, hi1 - lo2 + 1):
                overlap = min(hi1, hi2 + d1) - max(lo1, lo2 + d1) + 1
                if overlap <= 0:
                    continue
                a = abs(d1)
                if a not in cache:
                    cache[a] = g((0, a))
                total += overlap * cache[a]
            mean = total / count
        else:
            total = 0.0
            for point in itertools.product(*(range(lo, hi + 1) for lo, hi in dims)):
                total += g(point)
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
