"""Narrow arithmetic progressions in the primes.

Counts k-term progressions with a fixed common difference, compares them
against the singular-series prediction, searches for the narrowest
progressions inside congruence-filtered prime subsets, and evaluates the
restricted-difference counting average Lambda_D used to certify that
narrow progressions exist at a given scale.
"""

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import limits
from .cutoff import gauss_panels
from .errors import DomainError
from .numtheory import factorize, is_prime, pack_bits
from .singular import DEFAULT_PMAX, as_shift, discriminant_primes, singular_series

MEDIAN_TARGET = 512
SWEEP_ENTRIES = 1 << 18  # window entries per block of the dense sweep
ROUND_DIFFERENCES = 64   # differences of the narrowness scan's first round
CHUNK_WORDS = 1 << 16   # window words per gather of the support sweep


def lambda_D(f_list, D):
    """Mean over n in Z/N'Z and d in [1, D] of prod_j f_j(n + j*d).

    Indices reduce cyclically mod N'.  All arrays must share one length,
    and there are at most limits.MAX_TERMS of them (ResourceError otherwise).
    When every f_j takes at most one nonzero value c_j, and it is finite,
    f_j = c_j * 1_{S_j} and the mean is (prod_j c_j) * count / (N' D),
    with count the exact number of cyclic progressions through the S_j.
    Any other input takes the dense sweep.
    """
    limits.check(len(f_list), limits.MAX_TERMS, "progression terms")
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
    """D as an int, raising DomainError unless D is an integer, 1 <= D < N'."""
    try:
        D = operator.index(D)
    except TypeError:
        raise DomainError(f"D must be an integer, got {D!r}") from None
    if not 1 <= D < nprime:
        raise DomainError(f"need 1 <= D < N', got D={limits.short(D)}, N'={nprime}")
    return D


def _scaled_indicator(f):
    """(c, f != 0) when f takes the nonzero value c only and c is finite, else None."""
    support = f != 0.0
    values = f[support]
    c = float(values[0]) if values.shape[0] else 0.0
    if not (math.isfinite(c) and np.all(values == c)):
        return None
    return c, support


def lambda_sweep(fs, D):
    """Mean over d in [1,D] and n of prod_j fs[j, n + j*d mod N].

    Term 1 is the pivot: with m = n + d the sum is
    sum_m fs[1, m] * h(m), h(m) = sum_d fs[0, m-d] prod_{j>=2} fs[j, m+(j-1)d].
    fs[0] reversed and tiled to N + D entries has fs[0, m-d], d = 1..D,
    as one forward window, and fs[j] tiled to N + (j-1)*D entries has
    fs[j, m+(j-1)d] as one window read with step j-1.  A block of
    max(1, SWEEP_ENTRIES // D) positions m takes its windows as rows of
    strided views.  Past three windows (k >= 5) the first two are
    multiplied into one array of at most 8 * SWEEP_ENTRIES bytes, about
    the size of L2, until three remain.  Along d, vecdot (a BLAS ddot
    per row) reduces two windows to h and einsum reduces one or three;
    a dot with fs[1] sums the block.  An infinite fs[1, m] stays inside
    the sum over d, where inf * 0 is nan; fs[1] is searched for them once,
    so a block without one is a single dot.
    """
    k, n = fs.shape
    if k == 1:
        return float(fs[0].sum()) / n
    # Row s holds fs[0, n - s - d] at place d - 1, so position m is row n - m.
    back = sliding_window_view(np.resize(fs[0][::-1], n + D), D)
    # Row m, from place j - 1 on with step j - 1, holds fs[j, m + (j-1)d].
    ahead = [sliding_window_view(np.resize(fs[j], n + (j - 1) * D),
                                 (j - 1) * D + 1)[:, j - 1::j - 1]
             for j in range(2, k)]
    spec = ",".join(["md"] * min(k - 1, 3)) + "->m"
    block = max(1, SWEEP_ENTRIES // D)
    infinite = np.isinf(fs[1])
    any_infinite = bool(infinite.any())
    total = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows = [back[n - lo:n - hi:-1]] + [v[lo:hi] for v in ahead]
        ops = rows
        if k > 4:   # fold windows 0..k-4 into one, leaving three operands
            folded = rows[0] * rows[1]
            for r in rows[2:-2]:
                folded *= r
            ops = [folded] + rows[-2:]
        h = np.vecdot(*ops) if k == 3 else np.einsum(spec, *ops)
        pivot = fs[1, lo:hi]
        if not any_infinite:
            total += float(pivot @ h)
            continue
        inf = infinite[lo:hi]
        for i in np.flatnonzero(inf):
            total += float(np.sum(pivot[i] * np.prod([r[i] for r in rows], axis=0)))
        total += float(pivot[~inf] @ h[~inf])
    return total / (n * D)


def cyclic_ap_count(sets, D):
    """Number of (n, d), n in Z/NZ and 1 <= d <= D, with n + j*d mod N in sets[j].

    sets are boolean arrays of one length N.  The count walks the support
    of sets[0]: for a start s, the bits of sets[j] at s + j*d, d = 1..D,
    are one window of whole words (_step_windows).  The windows of a chunk
    of starts are gathered, ANDed over j >= 1 and popcounted, with the
    bits past D masked off.
    """
    starts = np.flatnonzero(sets[0])
    if len(sets) == 1 or starts.shape[0] == 0:
        return starts.shape[0] * D
    nwords = (D + 63) // 64
    tail = np.uint64((1 << (D - 64 * (nwords - 1))) - 1)
    (first, first_at), *rest = [_step_windows(s, j, D, starts)
                                for j, s in enumerate(sets[1:], 1)]
    chunk = max(1, CHUNK_WORDS // nwords)
    total = 0
    for lo in range(0, starts.shape[0], chunk):
        part = slice(lo, lo + chunk)
        v = first[first_at[part]]
        for windows, at in rest:
            v &= windows[at[part]]
        v[:, -1] &= tail
        total += int(np.bitwise_count(v).sum())
    return total


def _step_windows(flags, j, D, starts):
    """(windows, at): windows[at[i]] holds flags[starts[i] + j*d mod N] at bit d-1, d = 1..D.

    With g = gcd(j, N) and m = N/g, Z/NZ splits into g rows: entry z of
    row r is flags[r + j*z mod N], so a step of j is one place along a
    row, and s = r + g*y sits at the z with (j/g)*z = y mod m.  The rows,
    each extended by D wrapped entries, make one table of N + g*D bits,
    and a window starts one place after its start.  The table's 64 copies
    shifted by 0..63 bits, 8*(N + g*D) bytes, let every window be read as
    whole words.
    """
    n = flags.shape[0]
    g = math.gcd(j, n)
    m, step = n // g, j // g
    # r + j*z for z < m stays below step * N, inside step copies of flags.
    rows = np.tile(flags, step).reshape(m, j)[:, :g].T
    words = pack_bits(np.pad(rows, ((0, 0), (0, D)), mode="wrap").ravel())
    width = words.shape[0] - 1
    copies = np.empty((64, width), dtype=np.uint64)
    for shift in range(64):
        copies[shift] = _window(words, shift, width)
    y = starts // g
    z = (y + (-y * pow(m, -1, step)) % step * m) // step
    bit = starts % g * (m + D) + z + 1
    at = bit % 64 * width + bit // 64
    return sliding_window_view(copies.ravel(), (D + 63) // 64), at


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
    lambda_D values directly comparable to 1.  It reads the sieve to N' - 1.
    """
    nprime = int(nprime)
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
    """Number of primes p <= N with p, p+d, ..., p+(k-1)d all prime.

    When a prime q <= k does not divide d, every such progression holds q
    itself, so only the bits of the starts q - j*d, j < q, are read.
    """
    N, k, d = int(N), int(k), int(d)
    top = count_sieve_limit(N, k, d)
    return _prime_ap_count(sieve.packed_primes(top), N + 1, k, d)


def packed_ap_count(words, starts, k, d):
    """Count n < starts with bits n + j*d set in words for all j in [0, k).

    words come from pack_bits of at least starts + (k-1)*d flags.
    """
    if starts <= 0:
        return 0
    return _and_count(words, [(words, j * d) for j in range(1, k)], starts)


def _prime_ap_count(words, starts, k, d):
    """packed_ap_count(words, starts, k, d) for words whose set bits are primes.

    When a prime q <= k does not divide d (_missed_prime), the terms
    n, n+d, ..., n+(q-1)d fill every residue mod q, so one of them is a
    multiple of q, and a prime one is q itself.  Then only the starts
    n = q - j*d, j < q, can count, and just their bits are read; the
    general sweep runs otherwise.
    """
    q = _missed_prime(k, d)
    if q is None:
        return packed_ap_count(words, starts, k, d)
    return sum(all(_bit(words, n + i * d) for i in range(k))
               for n in (q - j * d for j in range(q)) if 0 <= n < starts)


def _bit(words, i):
    """Bit i of pack_bits words."""
    return int(words[i >> 6]) >> (i & 63) & 1


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


@functools.lru_cache(maxsize=64)
def _log_integral(N, k):
    """int_2^N dt / (log t)^k by Gauss-Legendre on 400 panels in u = log t."""
    u, weights = gauss_panels(math.log(2.0), math.log(float(N)), 400)
    return float(np.sum(weights * np.exp(u) / u ** k))


def _missed_prime(k, d):
    """The least prime q <= k that does not divide d, or None.

    The shifts (0, d, ..., (k-1)d) then fill every residue mod q, so
    their singular series is exactly 0, and every k-AP of primes with
    difference d holds q.  Each prime passed divides d, so at most
    log2(d) + 1 primes are tried.
    """
    q = 2
    while q <= k and d % q == 0:
        q = next(p for p in itertools.count(q + 1) if is_prime(p))
    return q if q <= k else None


def hl_prediction(N, k, d, P_max=DEFAULT_PMAX):
    """Singular-series prediction for count_aps_with_difference(N, k, d).

    It is exactly 0, and no shift is built, when a prime p <= k does not
    divide d.
    """
    N, k, d, P_max = int(N), int(k), int(d), int(P_max)
    if N < 3:   # where predictions start
        raise DomainError(f"N must be >= 3, got {N}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if P_max < k:   # before the k shifts are built
        raise DomainError(f"P_max={P_max} must be at least k={k}")
    if _missed_prime(k, d) is not None:
        # The discriminant's primes are d's and those below k <= P_max,
        # so this raises where singular_series would.
        discriminant_primes(d, P_max)
        return HLPrediction(value=0.0, crude=0.0, singular_value=0.0,
                            N=N, k=k, d=d)
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
        # A modulus past the factor sieve's range keeps <= 1 integer per class.
        limits.check(m, limits.SIEVE_RANGE, "rule modulus", below=True)
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
        phi = math.prod((p - 1) * p ** (e - 1) for p, e in factorize(m))
        return units / phi

    def mask(self, upto):
        """Boolean array m, n <= upto, with m[n] true when n mod modulus is kept.

        The keep pattern is at most as long as the range and is tiled.
        """
        size = int(upto) + 1
        if size < 1:
            raise DomainError(f"mask bound must be >= 0, got {upto}")
        keep = np.zeros(min(self.modulus, max(size, 1)), dtype=bool)
        keep[[c for c in self.classes if c < size]] = True
        return np.tile(keep, -(-size // keep.shape[0]))[:size]


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
        raise DomainError(f"(log {N})^L overflows a float at L of about "
                          f"10^{int(math.log10(abs(L)))}") from None


def narrow_width(N, k):
    """The reference width (log N)^L_k, L_k = narrow_exponent(k).

    L_k has k - 2 + bitlength(k - 1) bits, so a k whose L_k is past the
    float range is rejected with DomainError before L_k is built.
    """
    if k - 2 + (k - 1).bit_length() > sys.float_info.max_exp:
        raise DomainError(f"L_k = (k-1) 2^(k-2) overflows a float at k={k}")
    return log_power(N, narrow_exponent(k))


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
    highs = [narrow_width(N, k) for N in ladder]
    if rule is not None and rule.prime_density < float(delta):
        raise DomainError(
            f"rule density {rule.prime_density:.4f} below requested {delta}"
        )
    return [(N, high, max(2, math.ceil(high)))
            for N, high in zip(ladder, highs)]


def narrowness_sieve_limit(ladder, k, delta=0.0, rule=None):
    """Sieve limit that covers every round of narrowness_report, an upper
    bound on what it reads; DomainError for what it rejects."""
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
    and (log N)^L.  For a d that a prime q <= k does not divide, every
    such progression holds q, so only the progressions through q are read.

    The scan runs in rounds: the first reads d <= ROUND_DIFFERENCES, each
    later one doubles that bound up to the cap, and a round to D reads the
    sieve to N + (k-1) D; past the first round, D ends below twice the d
    where the scan stops.
    """
    k = int(k)
    delta = float(delta)
    rows = []
    for N, high, cap in _narrowness_scales(ladder, k, delta, rule):
        diffs, D = [], 0
        while D < cap and len(diffs) < MEDIAN_TARGET:
            lo, D = D + 1, min(cap, max(ROUND_DIFFERENCES, 2 * D))
            top = N + (k - 1) * D
            mask = sieve.prime_mask(top)
            if rule is not None:
                mask = mask & rule.mask(top)
            if lo == 1 and not mask[: N + 1].any():
                raise DomainError(f"prime subset empty below N={N}")
            words = pack_bits(mask)
            for d in range(lo, D + 1):
                diffs += [d] * _prime_ap_count(words, N + 1, k, d)
                if len(diffs) >= MEDIAN_TARGET:
                    break
        if not diffs:
            raise DomainError(
                f"no {k}-AP with d <= {cap} in the subset at N={N}"
            )
        min_d = diffs[0]
        median_d = float(np.median(diffs))
        low = log_power(N, k - 1)
        rows.append(NarrownessRow(
            N=N, min_d=min_d, median_d=median_d,
            log_pow_low=low, log_pow_high=high,
            ratio_low=min_d / low, ratio_high=min_d / high,
        ))
    return NarrownessReport(k=k, delta=delta, rows=tuple(rows))
