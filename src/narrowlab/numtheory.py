"""Integer arithmetic foundations: sieves, multiplicative functions, W-trick contexts."""

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, ResourceError

SIEVE_MAGIC = b"NAPSV1"
SEGMENT_SIZE = 1 << 26   # entries per sieve segment

# Witness set proving primality for every n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin primality test for n < 3.3e24."""
    n = int(n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FactorSieve:
    """Smallest-prime-factor table for 2 <= n <= limit.

    spf[n] is the smallest prime factor of n, so spf[p] = p exactly when
    p is prime.  Entries 0 and 1 are sentinels (0 and 1 respectively).
    The table is immutable after construction and safe to share.
    """

    def __init__(self, limit, spf):
        self.limit = int(limit)
        self.spf = spf
        self._packed = (0, None)

    def __repr__(self):
        return f"FactorSieve(limit={self.limit})"

    def check_range(self, n):
        n = int(n)
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside sieve range [1, {self.limit}]")
        return n

    def _check_upto(self, upto):
        upto = int(upto)
        if not 2 <= upto <= self.limit:
            raise DomainError(f"upto={upto} outside sieve range [2, {self.limit}]")
        return upto

    def prime_mask(self, upto=None):
        """Boolean array m with m[n] true exactly when n is prime, n <= upto.

        A composite n <= upto has a prime factor <= r = isqrt(upto), so
        past r the primes are the entries with spf > r; on [0, r] the
        entries are compared with their indices.
        """
        upto = self._check_upto(self.limit if upto is None else upto)
        r = math.isqrt(upto)
        mask = self.spf[:upto + 1] > r
        mask[:r + 1] = self.spf[:r + 1] == np.arange(r + 1)
        mask[:2] = False
        return mask

    def primes(self, upto=None):
        """Array of primes up to the given bound (default: the sieve limit)."""
        return np.nonzero(self.prime_mask(upto))[0]

    def packed_primes(self, upto):
        """Read-only pack_bits words of the prime mask, covering at least [0, upto].

        The words are memoised.  A call past the memo rebuilds it up to
        max(upto, twice the old cover), capped at the sieve limit, so
        calls with a slowly rising bound rebuild it O(log) times and never
        past min(limit, 2 * upto).
        """
        upto = self._check_upto(upto)
        cover, words = self._packed
        if upto > cover:
            cover = min(self.limit, max(upto, 2 * cover))
            words = pack_bits(self.prime_mask(cover))
            words.flags.writeable = False
            self._packed = (cover, words)
        return words


def pack_bits(flags):
    """A boolean array as little-endian uint64 words, plus one spare zero word.

    Bit i of word q is flags[64*q + i].  Bits past the end of flags are
    zero, and the spare word lets a window shifted by up to 63 bits read
    one word beyond the last.
    """
    nwords = (flags.shape[0] + 63) // 64 + 1
    buf = np.zeros(8 * nwords, dtype=np.uint8)
    packed = np.packbits(flags, bitorder="little")
    buf[:packed.shape[0]] = packed
    return buf.view("<u8")


def build_factor_sieve(limit):
    """Build a FactorSieve via segmented smallest-prime-factor marking.

    Segments of at most SEGMENT_SIZE entries are filled in turn, so the
    working set beyond the table itself stays bounded.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit >= 1 << 32:
        raise ResourceError(
            f"sieve limit {limit} exceeds the uint32 factor table range"
        )
    try:
        spf = np.zeros(limit + 1, dtype=np.uint32)
    except MemoryError:
        raise ResourceError(
            f"cannot allocate sieve of {limit + 1} entries "
            f"(~{4 * (limit + 1)} bytes required)"
        ) from None
    root = math.isqrt(limit)
    base_primes = _bootstrap_primes(root)
    lo = 2
    while lo <= limit:
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        spf_segment(spf[lo:hi], lo, base_primes)
        lo = hi
    unmarked = np.nonzero(spf == 0)[0]
    spf[unmarked] = unmarked
    spf[0] = 0
    if limit >= 1:
        spf[1] = 1
    return FactorSieve(limit, spf)


def spf_segment(spf_seg, lo, base_primes):
    """Mark smallest prime factors of [lo, lo+len) into a zeroed segment.

    Entries that remain 0 afterwards are primes (or below 2) relative to
    the base prime list, which must contain every prime up to
    sqrt(lo + len - 1).
    """
    hi = lo + spf_seg.shape[0]
    for p in base_primes:
        p = int(p)
        start = p * p
        if start < lo:
            start = ((lo + p - 1) // p) * p
        if start >= hi:
            continue
        view = spf_seg[start - lo::p]
        view[view == 0] = p


def _bootstrap_primes(upto):
    """Primes up to upto via a plain boolean sieve (small bound)."""
    if upto < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(upto + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(upto) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def factorize(n, sieve=None):
    """Sorted list of (prime, exponent) pairs with product |n|; empty for |n| = 1.

    With a sieve, n must lie in its range and the smallest-prime-factor
    table is walked.  Without one, |n| is factored by trial division.
    """
    out = []
    if sieve is not None:
        n = sieve.check_range(n)
        while n > 1:
            p = int(sieve.spf[n])
            n, e = _divide_out(n, p)
            out.append((p, e))
        return out
    n = abs(int(n))
    if n == 0:
        raise DomainError("cannot factorize 0")
    for p in _trial_divisors():
        if p * p > n:
            break
        if n % p == 0:
            n, e = _divide_out(n, p)
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def _trial_divisors():
    """2, 3 and the numbers 6j +- 1 from 5 on, which include every prime."""
    yield 2
    yield 3
    f = 5
    while True:
        yield f
        yield f + 2
        f += 6


def _divide_out(n, p):
    """n with every factor p removed, and the number of factors removed."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def moebius(n, sieve):
    """Moebius function mu(n)."""
    factors = factorize(n, sieve)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def euler_phi(n, sieve):
    """Euler totient phi(n)."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n, sieve))


def omega(q, sieve):
    """Number of distinct prime factors of q; omega(1) = 0."""
    return len(factorize(q, sieve))


@dataclass(frozen=True)
class WTrickContext:
    """Primorial modulus data: W = prod of primes <= w, residue b coprime to W,
    and a prime modulus N' defining the cyclic group Z/N'Z."""

    w: int
    W: int
    b: int
    modulus: int

    @property
    def phi_W(self):
        return math.prod(p - 1 for p in _bootstrap_primes(self.w).tolist())


def primorial(w):
    """Product of the primes up to w."""
    return math.prod(_bootstrap_primes(int(w)).tolist())


def primorial_context(w, b, modulus):
    """Validated WTrickContext with b reduced mod W and modulus checked prime."""
    w = int(w)
    b = int(b)
    modulus = int(modulus)
    if w < 1:
        raise DomainError(f"w must be >= 1, got {w}")
    W = primorial(w)
    b %= W
    for p in _bootstrap_primes(w):
        if b % int(p) == 0:
            raise DomainError(
                f"residue b={b} shares the prime factor {int(p)} with W={W}"
            )
    if not is_prime(modulus):
        raise DomainError(f"modulus {modulus} is not prime")
    return WTrickContext(w=w, W=W, b=b, modulus=modulus)


# ------------------------------------------------------------------ file IO

@contextlib.contextmanager
def replace_on_success(path):
    """Binary file handle whose contents land at path only if the block succeeds.

    Writes go to a temporary file in the same directory, which is moved
    onto path with os.replace, so a concurrent reader of path sees either
    the old file or the complete new one, never a partial write.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def payload_bytes(fh):
    """Bytes left in an open file after its current position."""
    return os.fstat(fh.fileno()).st_size - fh.tell()


def save_sieve(sieve, path):
    """Write the NAPSV1 binary sieve format: magic, u64 LE limit, u32 spf."""
    with replace_on_success(path) as fh:
        fh.write(SIEVE_MAGIC)
        fh.write(int(sieve.limit).to_bytes(8, "little"))
        np.ascontiguousarray(sieve.spf, dtype="<u4").tofile(fh)


def load_sieve(path):
    """Load a NAPSV1 sieve file, validating magic and length."""
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != SIEVE_MAGIC:
            raise FormatError(
                f"bad sieve magic {magic!r}, expected {SIEVE_MAGIC.decode()}"
            )
        raw_limit = fh.read(8)
        if len(raw_limit) != 8:
            raise FormatError("truncated sieve header")
        limit = int.from_bytes(raw_limit, "little")
        size = payload_bytes(fh)
        expected = 4 * (limit + 1)
        if size != expected:
            raise FormatError(
                f"sieve payload has {size} bytes, expected {expected}"
            )
        spf = np.fromfile(fh, dtype="<u4", count=limit + 1)
    return FactorSieve(limit, spf)
