"""Smoothly truncated divisor-sum weights and the prime majorant on Z/N'Z.

The weight of an integer m is log R times the cutoff-smoothed Moebius sum
over the divisors of m up to R.  Squaring and normalizing the weight along
the progression W n + b yields a nonnegative function on Z/N'Z that
dominates the (rescaled) primes in that progression.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import chi_value
from .errors import DomainError, FormatError
from .numtheory import (
    WTrickContext,
    _bootstrap_primes,
    factorize,
    is_prime,
    moebius,
    payload_bytes,
    replace_on_success,
)
from .singular import DEFAULT_PMAX, singular_series

MAJORANT_MAGIC = b"NAPMV1"


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


def build_majorant(context, R, cutoff, sieve):
    """Tabulate the majorant over Z/N'Z by a divisor sieve.

    Each squarefree d <= R coprime to W contributes its weight to the
    residues n with d | W n + b, located by one modular inverse per d.
    """
    nprime = context.modulus
    W = context.W
    b = context.b
    top = W * nprime + b
    R = float(R)
    if not 1.0 < R <= math.sqrt(top):
        raise DomainError(
            f"R={R} outside (1, sqrt(W N' + b)] = (1, {math.sqrt(top):.1f}]"
        )
    if sieve.limit < top:
        raise DomainError(
            f"sieve limit {sieve.limit} does not cover W N' + b = {top}"
        )
    log_r = math.log(R)
    lam = np.zeros(nprime, dtype=np.float64)
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
        lam[n0::d] += weight
    lam *= log_r
    values = (context.phi_W / (W * log_r)) * lam * lam
    return MajorantTable(context=context, R=R, cutoff=cutoff,
                         values=values, lambda_values=lam)


def minorization_floor(table):
    """The guaranteed lower bound phi(W) log R / (4 W) at large primes."""
    ctx = table.context
    return ctx.phi_W * math.log(table.R) / (4.0 * ctx.W)


def check_minorization(table, sieve):
    """Count majorant values below the floor at primes W n + b > R; 0 expected."""
    ctx = table.context
    nprime = ctx.modulus
    top = ctx.W * nprime + ctx.b
    if sieve.limit < top:
        raise DomainError(
            f"sieve limit {sieve.limit} does not cover W N' + b = {top}"
        )
    primes = sieve.prime_mask(top)[ctx.b::ctx.W][:nprime]
    # W n + b > R exactly when W n + b > floor(R)
    first = max(0, (math.floor(table.R) - ctx.b) // ctx.W + 1)
    dips = table.values[first:] < minorization_floor(table)
    return int(np.count_nonzero(primes[first:] & dips))


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
    empirical = float(values @ np.roll(values, -h) / nprime)
    if plain:
        predicted = 1.0
    else:
        predicted = singular_series((0, h), P_max=P_max, W=table.context.W).value
    ratio = empirical / predicted if predicted > 0 else math.inf
    return PairCorrelation(empirical=empirical, predicted=predicted, ratio=ratio)


# -------------------------------------------------------------- table files

def save_majorant(table, path):
    """Write the NAPMV1 binary format: magic, N', W, b, R, then both arrays."""
    with replace_on_success(path) as fh:
        fh.write(MAJORANT_MAGIC)
        fh.write(int(table.nprime).to_bytes(8, "little"))
        fh.write(int(table.context.W).to_bytes(8, "little"))
        fh.write(int(table.context.b).to_bytes(8, "little"))
        fh.write(np.float64(table.R).tobytes())
        np.ascontiguousarray(table.values, dtype="<f8").tofile(fh)
        np.ascontiguousarray(table.lambda_values, dtype="<f8").tofile(fh)


def load_majorant(path, cutoff=None):
    """Load a NAPMV1 majorant file, validating magic, lengths, and header.

    The format does not record the cutoff kind; pass the cutoff used at
    build time if later computations need it.
    """
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != MAJORANT_MAGIC:
            raise FormatError(
                f"bad majorant magic {magic!r}, expected {MAJORANT_MAGIC.decode()}"
            )
        head = fh.read(32)
        if len(head) != 32:
            raise FormatError("truncated majorant header")
        nprime = int.from_bytes(head[0:8], "little")
        W = int.from_bytes(head[8:16], "little")
        b = int.from_bytes(head[16:24], "little")
        R = float(np.frombuffer(head[24:32], dtype="<f8")[0])
        size = payload_bytes(fh)
        expected = 16 * nprime
        if size != expected:
            raise FormatError(
                f"majorant payload has {size} bytes, expected {expected}"
            )
        payload = np.fromfile(fh, dtype="<f8", count=2 * nprime)
    if not is_prime(nprime):
        raise FormatError(f"majorant modulus {nprime} is not prime")
    w, primorial_w = 1, 1
    for p in _bootstrap_primes(53):   # the primorial of 53 exceeds 2^64
        if primorial_w >= W:
            break
        w, primorial_w = int(p), primorial_w * int(p)
    if primorial_w != W:
        raise FormatError(f"majorant W={W} is not a primorial")
    ctx = WTrickContext(w=w, W=W, b=b, modulus=nprime)
    return MajorantTable(context=ctx, R=R, cutoff=cutoff,
                         values=payload[:nprime], lambda_values=payload[nprime:])
