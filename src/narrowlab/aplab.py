"""Narrow arithmetic progressions in the primes.

Counts k-term progressions with a fixed common difference, compares them
against the singular-series prediction, searches for the narrowest
progressions inside congruence-filtered prime subsets, and evaluates the
restricted-difference counting average Lambda_D used to certify that
narrow progressions exist at a given scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import gauss_panels
from .errors import DomainError
from .numtheory import is_prime, pack_bits
from .singular import DEFAULT_PMAX, as_shift, singular_series

MEDIAN_TARGET = 512


def lambda_D(f_list, D):
    """Mean over n in Z/N'Z and d in [1, D] of prod_j f_j(n + j*d).

    Indices reduce cyclically mod N'.  All arrays must share one length.
    When every f_j takes at most one nonzero value c_j, and it is finite,
    f_j = c_j * 1_{S_j} and the mean is (prod_j c_j) * count / (N' D),
    with count the exact number of cyclic progressions through the S_j.
    Any other input takes the dense sweep.
    """
    fs = [np.asarray(f, dtype=np.float64) for f in f_list]
    if not fs:
        raise DomainError("need at least one array")
    n = fs[0].shape[0]
    for f in fs:
        if f.ndim != 1 or f.shape[0] != n:
            raise DomainError(
                f"arrays must share one length, got {f.shape} vs {n}"
            )
    D = check_difference_cap(D, n)
    scaled = [_scaled_indicator(f) for f in fs]
    if any(s is None for s in scaled):
        return float(lambda_sweep(np.vstack(fs), D))
    count = cyclic_ap_count([support for _, support in scaled], D)
    if count == 0:   # 0.0, not -0.0, when a scale is negative
        return 0.0
    return math.prod(c for c, _ in scaled) * count / (n * D)


def check_difference_cap(D, nprime):
    """D as an int, raising DomainError unless 1 <= D < N'."""
    if not 1 <= int(D) < nprime:
        raise DomainError(f"need 1 <= D < N', got D={D}, N'={nprime}")
    return int(D)


def _scaled_indicator(f):
    """(c, f != 0) when f takes the nonzero value c only and c is finite, else None."""
    support = f != 0.0
    values = f[support]
    c = float(values[0]) if values.shape[0] else 0.0
    if not (math.isfinite(c) and np.all(values == c)):
        return None
    return c, support


def lambda_sweep(fs, D):
    """Mean over d in [1,D] and n of prod_j fs[j, n + j*d mod N]."""
    k, n = fs.shape
    doubled = [np.concatenate([fs[j], fs[j]]) for j in range(k)]
    total = 0.0
    for d in range(1, D + 1):
        v = fs[0].copy()
        for j in range(1, k):
            off = (j * d) % n
            v *= doubled[j][off:off + n]
        total += float(v.sum())
    return total / (n * D)


def cyclic_ap_count(sets, D):
    """Number of (n, d), n in Z/NZ and 1 <= d <= D, with n + j*d mod N in sets[j].

    sets are boolean arrays of one length N.  Each d costs one AND of k
    packed windows and a popcount: sets[0] packed as is, whose zero bits
    past N clear the tails (so whole words are counted), and sets[j]
    packed twice over, read from bit j*d mod N.
    """
    n = sets[0].shape[0]
    first = pack_bits(sets[0])
    doubled = [pack_bits(np.concatenate([s, s])) for s in sets[1:]]
    whole = (n + 63) // 64 * 64
    return sum(
        _and_count(first, [(w, j * d % n) for j, w in enumerate(doubled, 1)],
                   whole)
        for d in range(1, D + 1)
    )


def _and_count(first, windows, nbits):
    """Set bits among the first nbits of first AND each (words, start) window."""
    nwords = (nbits + 63) // 64
    v = first[:nwords]
    for words, start in windows:
        v = v & _window(words, start, nwords)
    spill = int(v[-1]) >> (nbits % 64) if nbits % 64 else 0
    return int(np.bitwise_count(v).sum()) - spill.bit_count()


def _window(words, start, nwords):
    """Bits [start, start + 64*nwords) of pack_bits words, as nwords words."""
    q, r = divmod(start, 64)
    low = words[q:q + nwords]
    if r == 0:
        return low
    return (low >> r) | (words[q + 1:q + nwords + 1] << (64 - r))


def prime_signal(sieve, nprime):
    """The normalized prime indicator log N' on primes in [sqrt(N'), N').

    Its mean is close to 1 by the prime number theorem, which makes
    lambda_D values directly comparable to 1.
    """
    nprime = int(nprime)
    if nprime > sieve.limit:
        raise DomainError(
            f"modulus {nprime} exceeds sieve limit {sieve.limit}"
        )
    if not is_prime(nprime):
        raise DomainError(f"modulus {nprime} must be prime")
    lo = math.isqrt(nprime - 1) + 1
    f = np.zeros(nprime, dtype=np.float64)
    if lo < nprime:   # [sqrt(N'), N') holds no integer for N' = 2
        f[sieve.prime_mask(nprime - 1)] = math.log(nprime)
        f[:lo] = 0.0
    return f


def count_sieve_limit(N, k, d):
    """Sieve limit N + (k-1)d of a count; DomainError unless k, d >= 1."""
    N, k, d = int(N), int(k), int(d)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    return N + (k - 1) * d


def count_aps_with_difference(N, k, d, sieve):
    """Number of primes p <= N with p, p+d, ..., p+(k-1)d all prime."""
    N, k, d = int(N), int(k), int(d)
    top = count_sieve_limit(N, k, d)
    if top > sieve.limit:
        raise DomainError(
            f"need sieve limit >= {top}, have {sieve.limit}"
        )
    return packed_ap_count(sieve.packed_primes(top), N + 1, k, d)


def ap_count(flags, k, d):
    """Count n with flags[n + j*d] set for all j in [0, k), no wraparound."""
    return packed_ap_count(pack_bits(flags), flags.shape[0] - (k - 1) * d, k, d)


def packed_ap_count(words, starts, k, d):
    """Count n < starts with bits n + j*d set in words for all j in [0, k).

    words come from pack_bits of at least starts + (k-1)*d flags.
    """
    if starts <= 0:
        return 0
    return _and_count(words, [(words, j * d) for j in range(1, k)], starts)


@dataclass(frozen=True)
class HLPrediction:
    """Prediction for the number of k-APs of primes up to N with gap d.

    ``value`` integrates the prime density, G * int_2^N dt / (log t)^k,
    which is what matches counts at reachable scales.  ``crude`` is the
    leading-order form G * N / (log N)^k; the two agree asymptotically but
    the crude form lags by tens of percent in the desk range.
    """

    value: float
    crude: float
    singular_value: float
    N: int
    k: int
    d: int


def _log_integral(N, k):
    """int_2^N dt / (log t)^k by Gauss-Legendre on 400 panels in u = log t."""
    u, weights = gauss_panels(math.log(2.0), math.log(float(N)), 400)
    return float(np.sum(weights * np.exp(u) / u ** k))


def hl_prediction(N, k, d, P_max=DEFAULT_PMAX):
    """Singular-series prediction for count_aps_with_difference(N, k, d)."""
    N, k, d = int(N), int(k), int(d)
    if N < 3:   # where predictions start
        raise DomainError(f"N must be >= 3, got {N}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    shifts = as_shift(tuple(i * d for i in range(k)))
    sing = singular_series(shifts, P_max=P_max)
    g = sing.value
    crude = g * N / math.log(N) ** k
    value = g * _log_integral(N, k) if g != 0.0 else 0.0
    return HLPrediction(value=value, crude=crude, singular_value=g,
                        N=N, k=k, d=d)


@dataclass(frozen=True)
class APCountReport:
    """Exact AP count next to its prediction."""

    N: int
    k: int
    d: int
    count: int
    prediction: float
    ratio: float


def ap_count_report(N, k, d, sieve, P_max=DEFAULT_PMAX):
    """Count APs and compare with hl_prediction in one report."""
    count = count_aps_with_difference(N, k, d, sieve)
    pred = hl_prediction(N, k, d, P_max=P_max)
    ratio = count / pred.value if pred.value > 0 else math.inf
    return APCountReport(N=int(N), k=int(k), d=int(d), count=count,
                         prediction=pred.value, ratio=ratio)


@dataclass(frozen=True)
class SubsetRule:
    """Keep primes lying in fixed residue classes modulo m."""

    modulus: int
    classes: tuple

    def __post_init__(self):
        m = int(self.modulus)
        if m < 1:
            raise DomainError(f"modulus must be >= 1, got {m}")
        cls = tuple(sorted({int(c) % m for c in self.classes}))
        if not cls:
            raise DomainError("subset rule needs at least one class")
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "classes", cls)

    @property
    def prime_density(self):
        """Asymptotic density of the kept primes among all primes."""
        m = self.modulus
        units = sum(1 for c in self.classes if math.gcd(c, m) == 1)
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        return units / phi

    def mask(self, upto):
        """Boolean array m, n <= upto, with m[n] true when n mod modulus is kept."""
        keep = np.zeros(self.modulus, dtype=bool)
        keep[list(self.classes)] = True
        size = int(upto) + 1
        return np.tile(keep, -(-size // self.modulus))[:size]


@dataclass(frozen=True)
class NarrownessRow:
    """Narrowest and typical common differences at one scale N."""

    N: int
    min_d: int
    median_d: float
    log_pow_low: float
    log_pow_high: float
    ratio_low: float
    ratio_high: float


@dataclass(frozen=True)
class NarrownessReport:
    """Ladder of narrowness measurements for a prime subset."""

    k: int
    delta: float
    rows: tuple


def narrow_exponent(k):
    """The paper's exponent L_k = (k-1) 2^(k-2): differences up to (log N)^L_k."""
    return (k - 1) * 2 ** (k - 2)


def log_power(N, L):
    """(log N)^L, raising DomainError for N <= 1 or where it overflows."""
    if not N > 1:
        raise DomainError(f"(log N)^{L} needs N > 1, got N={N}")
    try:
        return math.log(N) ** L
    except OverflowError:
        raise DomainError(f"(log {N})^{L} overflows a float") from None


def _narrowness_scales(ladder, k, delta, rule):
    """Reference widths (N, (log N)^L, cap) of the ladder, L = (k-1) 2^(k-2).

    cap = max(2, ceil((log N)^L)).  Raises DomainError for the arguments
    narrowness_report rejects.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    ladder = [int(N) for N in ladder]
    if not ladder:
        raise DomainError("ladder must be non-empty")
    highs = [log_power(N, narrow_exponent(k)) for N in ladder]
    if rule is not None and rule.prime_density < float(delta):
        raise DomainError(
            f"rule density {rule.prime_density:.4f} below requested {delta}"
        )
    return [(N, high, max(2, math.ceil(high)))
            for N, high in zip(ladder, highs)]


def narrowness_sieve_limit(ladder, k, delta=0.0, rule=None):
    """Sieve limit narrowness_report needs; DomainError for what it rejects."""
    k = int(k)
    scales = _narrowness_scales(ladder, k, delta, rule)
    return max(N + (k - 1) * cap for N, _, cap in scales)


def narrowness_report(ladder, k, delta, rule, sieve):
    """Minimal and median common difference of k-APs in a prime subset.

    For each N in the ladder, scans differences d = 1, 2, ... for
    progressions p, p+d, ..., p+(k-1)d with p <= N whose members are all
    primes kept by the rule (all primes when the rule is None).  The scan
    stops once enough progressions are collected for a median or d passes
    the reference width (log N)^L with L = (k-1) 2^(k-2), whichever is
    later than the first hit.  Rows compare min_d against (log N)^(k-1)
    and (log N)^L.
    """
    k = int(k)
    delta = float(delta)
    rows = []
    for N, high, cap in _narrowness_scales(ladder, k, delta, rule):
        top = N + (k - 1) * cap
        if top > sieve.limit:
            raise DomainError(
                f"need sieve limit >= {top} for N={N}, have {sieve.limit}"
            )
        mask = sieve.prime_mask(top)
        if rule is not None:
            mask = mask & rule.mask(top)
        if not mask[: N + 1].any():
            raise DomainError(f"prime subset empty below N={N}")
        words = pack_bits(mask)
        min_d = 0
        diffs = []
        for d in range(1, cap + 1):
            c = packed_ap_count(words, N + 1, k, d)
            if c > 0:
                if min_d == 0:
                    min_d = d
                diffs.extend([d] * c)
                if len(diffs) >= MEDIAN_TARGET:
                    break
        if min_d == 0:
            raise DomainError(
                f"no {k}-AP with d <= {cap} in the subset at N={N}"
            )
        median_d = float(np.median(diffs))
        low = log_power(N, k - 1)
        rows.append(NarrownessRow(
            N=N, min_d=min_d, median_d=median_d,
            log_pow_low=low, log_pow_high=high,
            ratio_low=min_d / low, ratio_high=min_d / high,
        ))
    return NarrownessReport(k=k, delta=delta, rows=tuple(rows))
