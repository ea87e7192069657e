"""Smoothly truncated divisor-sum weights and the prime majorant on Z/N'Z.

The weight of an integer m is log R times the cutoff-smoothed Moebius sum
over the divisors of m up to R.  Squaring and normalizing the weight along
the progression W n + b yields a nonnegative function on Z/N'Z that
dominates the (rescaled) primes in that progression.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .cutoff import chi_value
from .errors import DomainError, FormatError
from .numtheory import (
    SEGMENT_SIZE,
    WTrickContext,
    factorize,
    moebius,
    primorial_walk,
    read_table,
    write_table,
)
from .singular import DEFAULT_PMAX, singular_series

MAJORANT_MAGIC = b"NAPMV1"
MAJORANT_HEAD = "<3Qd"   # N', W, b, R
SEGMENT_VALUES = SEGMENT_SIZE // 2   # float64 entries in the sieve's 2 MB segment


@dataclass
class MajorantTable:
    """Tabulated majorant nu and its underlying weights over Z/N'Z."""

    context: WTrickContext
    R: float
    cutoff: object
    values: np.ndarray
    lambda_values: np.ndarray

    @property
    def nprime(self):
        return self.context.modulus


@dataclass(frozen=True)
class PairCorrelation:
    """Empirical shifted pair average against its singular-series prediction."""

    empirical: float
    predicted: float
    ratio: float


def default_R(context, t0):
    """Truncation (W N')^(1/(4 t0)), the proof-scale default for t0 forms."""
    if t0 < 1:
        raise DomainError(f"t0 must be >= 1, got {t0}")
    return float(context.W * context.modulus) ** (1.0 / (4.0 * t0))


def lambda_chi_R(m, R, cutoff, sieve):
    """log R times the cutoff-smoothed Moebius sum over divisors of m."""
    m = sieve.check_range(m)
    R = float(R)
    if R <= 1.0:
        raise DomainError(f"R must exceed 1, got {R}")
    log_r = math.log(R)
    primes = [p for p, _ in factorize(m, sieve)]
    total = 0.0
    for bits in range(1 << len(primes)):
        d = 1
        sign = 1
        for i, p in enumerate(primes):
            if bits >> i & 1:
                d *= p
                sign = -sign
        if d <= R:
            total += sign * chi_value(cutoff, math.log(d) / log_r)
    return log_r * total


def _checked_R(context, R):
    """R as a float, DomainError unless 1 < R <= sqrt(W N' + b)."""
    top = context.W * context.modulus + context.b
    R = float(R)
    if not 1.0 < R <= math.sqrt(top):
        raise DomainError(
            f"R={R} outside (1, sqrt(W N' + b)] = (1, {math.sqrt(top):.1f}]"
        )
    return R


def build_majorant(context, R, cutoff, sieve):
    """Tabulate the majorant over Z/N'Z by a segmented divisor sieve.

    Each squarefree d <= R coprime to W contributes its weight to the
    residues n with d | W n + b, located by one modular inverse per d.
    The weights are collected first; then each segment of SEGMENT_VALUES
    entries, sized to stay in L2 cache, gets every weight in increasing
    d order and is scaled and squared into values before the next one,
    so every entry sees the same float operations as one whole-array
    pass per d.  The sieve must reach R, as the weights factor d <= R.
    """
    nprime = context.modulus
    W = context.W
    b = context.b
    R = _checked_R(context, R)
    sieve.check_range(int(R))
    log_r = math.log(R)
    terms = []
    for d in range(1, int(R) + 1):
        if math.gcd(d, W) != 1:
            continue
        mu = moebius(d, sieve)
        if mu == 0:
            continue
        weight = mu * chi_value(cutoff, math.log(d) / log_r)
        if weight == 0.0:
            continue
        n0 = (-b * pow(W, -1, d)) % d if d > 1 else 0
        terms.append((d, n0, weight))
    scale = context.phi_W / (W * log_r)
    lam = np.zeros(nprime, dtype=np.float64)
    values = np.empty(nprime, dtype=np.float64)
    for lo in range(0, nprime, SEGMENT_VALUES):
        part = lam[lo:lo + SEGMENT_VALUES]
        for d, n0, weight in terms:
            hits = part[(n0 - lo) % d::d]
            hits += weight   # in place: no write-back through __setitem__
        part *= log_r
        out = values[lo:lo + SEGMENT_VALUES]
        np.multiply(part, scale, out=out)
        out *= part
    return MajorantTable(context=context, R=R, cutoff=cutoff,
                         values=values, lambda_values=lam)


def minorization_floor(table):
    """The guaranteed lower bound phi(W) log R / (4 W) at large primes."""
    ctx = table.context
    return ctx.phi_W * math.log(table.R) / (4.0 * ctx.W)


def check_minorization(table, sieve):
    """Count majorant values below the floor at primes W n + b > R; 0 expected.

    Primality is read from the factor table through the progression
    W n + b alone, so no mask of the whole sieve range is built; the
    sieve must reach its last entry, W (N' - 1) + b.
    """
    ctx = table.context
    last = ctx.W * (ctx.modulus - 1) + ctx.b
    primes = sieve.prime_mask(last, start=ctx.b, step=ctx.W)
    # W n + b > R exactly when W n + b > floor(R)
    first = max(0, (math.floor(table.R) - ctx.b) // ctx.W + 1)
    dips = table.values[first:] < minorization_floor(table)
    dips &= primes[first:]
    return int(np.count_nonzero(dips))


def majorant_pair_correlation(table, h, P_max=DEFAULT_PMAX):
    """Empirical cyclic pair average E_n nu(n) nu(n+h) and its prediction.

    The prediction is the W-tricked singular series of the pair (0, h).
    Passing a bare array instead of a table runs the same empirical
    average against the constant prediction 1, which validates the
    harness on degenerate input.
    """
    plain = isinstance(table, np.ndarray)
    values = np.asarray(table, dtype=np.float64) if plain else table.values
    nprime = values.shape[0]
    h = int(h)
    if h % nprime == 0:
        raise DomainError(f"shift h={h} is 0 mod N'={nprime}")
    s = h % nprime   # sum_n v[n] v[n + s], the wrapped tail as its own dot
    empirical = float((values[:nprime - s] @ values[s:]
                       + values[nprime - s:] @ values[:s]) / nprime)
    if plain:
        predicted = 1.0
    else:
        predicted = singular_series((0, h), P_max=P_max, W=table.context.W).value
    ratio = empirical / predicted if predicted > 0 else math.inf
    return PairCorrelation(empirical=empirical, predicted=predicted, ratio=ratio)


# -------------------------------------------------------------- table files

def save_majorant(table, path):
    """Write the NAPMV1 binary format: magic, N', W, b, R, then both arrays."""
    head = (table.nprime, table.context.W, table.context.b, table.R)
    write_table(path, MAJORANT_MAGIC, MAJORANT_HEAD, head,
                (table.values, table.lambda_values), "<f8")


def load_majorant(path, cutoff=None):
    """Load a NAPMV1 majorant file, validating magic, lengths, and header.

    The header must be one build_majorant could have written: N' prime,
    W a primorial, gcd(b, W) = 1 and 1 < R <= sqrt(W N' + b); anything
    else raises FormatError before the payload is mapped.  Both arrays
    map the file copy-on-write, as read_table says.  The format does not
    record the cutoff kind; pass the cutoff used at build time if later
    computations need it.
    """
    (ctx, R), payload = read_table(
        path, MAJORANT_MAGIC, MAJORANT_HEAD, "<f8", _parse_head)
    return MajorantTable(context=ctx, R=R, cutoff=cutoff,
                         values=payload[:ctx.modulus],
                         lambda_values=payload[ctx.modulus:])


def _parse_head(nprime, W, b, R):
    """The context and R of a NAPMV1 header, and its payload's item count."""
    w, walked = 1, 1
    for p, primorial_p in primorial_walk(limits.W_FIELD_PRIME - 1):   # all below 2^64
        if walked >= W:
            break
        w, walked = p, primorial_p
    if walked != W:
        raise FormatError(f"majorant W={W} is not a primorial")
    try:
        ctx = WTrickContext(w=w, W=W, b=b, modulus=nprime)
        R = _checked_R(ctx, R)
    except DomainError as exc:
        raise FormatError(f"majorant header: {exc}") from None
    return (ctx, R), 2 * nprime
