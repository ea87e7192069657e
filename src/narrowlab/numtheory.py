"""Integer arithmetic foundations: sieves, multiplicative functions, W-trick contexts."""

import contextlib
import functools
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import DomainError, FormatError, ResourceError

SIEVE_MAGIC = b"NAPSV1"
SIEVE_HEAD = "<Q"        # limit
SEGMENT_SIZE = 1 << 19   # entries per sieve segment: 2 MB of uint32, sized for L2
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
WHEEL = 30030            # the product of WHEEL_PRIMES, the wheel pattern's period

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

    def prime_mask(self, upto=None, start=0, step=1):
        """Boolean array m with m[i] true exactly when start + i step is prime.

        The entries cover the progression start, start + step, ... up to
        upto, read through a strided view of the table, so the default
        m[n] says whether n <= upto is prime.  A composite n <= upto has a
        prime factor <= r = isqrt(upto), so past r the primes are the
        entries with spf > r; at or below r the entries are compared with
        their indices, and entries below 2 are false.
        """
        upto = self._check_upto(self.limit if upto is None else upto)
        start = int(start)
        step = int(step)
        if start < 0 or step < 1:
            raise DomainError(
                f"progression start={start}, step={step} needs start >= 0, step >= 1"
            )
        r = math.isqrt(upto)
        view = self.spf[start:upto + 1:step]
        mask = view > r
        small = max(0, (r - start) // step + 1)
        mask[:small] = view[:small] == start + step * np.arange(small)
        mask[:max(0, (1 - start) // step + 1)] = False
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

    Segments of SEGMENT_SIZE entries, sized to stay in L2 cache, are
    filled in turn by spf_segment, which writes every entry's final value;
    no entry is read back or fixed up afterwards.  Its ramp is sized to
    min(SEGMENT_SIZE, limit + 1) entries and its wheel pattern to at most
    one period more, so a small sieve builds only what it uses.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    limits.check(limit, limits.SIEVE_RANGE, "sieve limit", below=True)
    try:
        spf = np.empty(limit + 1, dtype=np.uint32)
    except MemoryError:
        raise ResourceError(
            f"cannot allocate sieve of {limit + 1} entries "
            f"(~{4 * (limit + 1)} bytes required)"
        ) from None
    ramp = np.arange(min(SEGMENT_SIZE, limit + 1), dtype=np.uint32)
    # A segment at lo reads wheel[lo % WHEEL:lo % WHEEL + len], which ends at or
    # before both limit + 1 and SEGMENT_SIZE + WHEEL - 1.
    wheel = wheel_pattern(min(limit + 1, SEGMENT_SIZE + WHEEL - 1))
    base_primes = _bootstrap_primes(math.isqrt(limit))
    for lo in range(0, limit + 1, SEGMENT_SIZE):
        spf_segment(spf[lo:lo + SEGMENT_SIZE], lo, base_primes, ramp, wheel)
    return FactorSieve(limit, spf)


@functools.cache
def _wheel_period():
    """One period of the wheel pattern, read-only."""
    period = np.full(WHEEL, np.iinfo(np.uint32).max, dtype=np.uint32)
    for p in reversed(WHEEL_PRIMES):
        period[::p] = p
    period.flags.writeable = False
    return period


def wheel_pattern(length):
    """Least prime among WHEEL_PRIMES dividing each n in [0, length), or
    2^32 - 1 for n with none; the pattern has period WHEEL."""
    return np.resize(_wheel_period(), length)


def spf_segment(spf_seg, lo, base_primes, ramp, wheel):
    """Write the smallest prime factor of each n in [lo, lo + len) into spf_seg.

    ramp holds 0, 1, ..., at least len - 1, and wheel is wheel_pattern(m)
    for some m >= lo % WHEEL + len; base_primes must contain every prime
    up to sqrt(lo + len - 1).  The segment starts as the identity, so primes
    (and 0 and 1) already hold their final value.  Each odd base prime p
    above the wheel's primes then stores p at its odd multiples from
    max(p^2, lo) on, largest p first, so a smaller prime overwrites a
    larger one.  Last, one minimum against the wheel applies the primes
    2 to 13: where one divides n, the least such is n's smallest prime
    factor and below both n and every prime stored.
    """
    n = spf_seg.shape[0]
    hi = lo + n
    np.add(ramp[:n], lo, out=spf_seg)
    p = np.asarray(base_primes, dtype=np.int64)
    p = p[(p > WHEEL_PRIMES[-1]) & (p * p < hi)]
    start = np.maximum(p * p, -(-lo // p) * p)
    start += p * (start % 2 == 0)
    for q, s in zip(p[::-1].tolist(), start[::-1].tolist()):
        spf_seg[s - lo::2 * q] = q
    offset = lo % WHEEL
    np.minimum(spf_seg, wheel[offset:offset + n], out=spf_seg)


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


def factorize(n, sieve=None, bound=None):
    """Sorted list of (prime, exponent) pairs with product |n|; empty for |n| = 1.

    With a sieve, n must lie in its range and the smallest-prime-factor
    table is walked.  Without one, |n| is factored by trial division,
    which stops past bound when one is given: the part of |n| free of
    primes up to bound is then left as one last (cofactor, 1) pair above
    bound, and every other pair is exact.
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
    bound = n if bound is None else bound
    for p in _trial_divisors():
        if p * p > n or p > bound:
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


@dataclass(frozen=True)
class WTrickContext:
    """Primorial modulus data: W = prod of primes <= w, residue b coprime to W,
    and a prime modulus N' defining the cyclic group Z/N'Z."""

    w: int
    W: int
    b: int
    modulus: int

    def __post_init__(self):
        shared = math.gcd(self.b, self.W)
        if shared != 1:
            raise DomainError(
                f"residue b={self.b} shares the factor {shared} with W={self.W}"
            )
        if not is_prime(self.modulus):
            raise DomainError(f"modulus {limits.short(self.modulus)} is not prime")

    @property
    def phi_W(self):
        return math.prod(p - 1 for p, _ in primorial_walk(self.w))


def primorial_walk(w):
    """Pairs (p, primorial(p)) for the primes p <= min(w, W_FIELD_PRIME);
    ResourceError once a primorial reaches limits.W_RANGE = 2^64, the
    NAPMV1 W field."""
    W, last = 1, 1
    for p in _bootstrap_primes(min(int(w), limits.W_FIELD_PRIME)).tolist():
        if W * p >= limits.W_RANGE:
            raise ResourceError(
                f"W = primorial({w}) does not fit the 64-bit W field of a "
                f"majorant table; the largest is primorial({last})"
            )
        W, last = W * p, p
        yield p, W


def primorial(w):
    """Product of the primes up to w; ResourceError past 2^64."""
    return math.prod(p for p, _ in primorial_walk(w))


def primorial_context(w, b, modulus):
    """Validated WTrickContext with b reduced mod W and modulus checked prime."""
    w = int(w)
    if w < 1:
        raise DomainError(f"w must be >= 1, got {w}")
    W = primorial(w)
    return WTrickContext(w=w, W=W, b=int(b) % W, modulus=int(modulus))


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


def write_table(path, magic, head_format, head, arrays, dtype):
    """Write magic, head packed by the struct head_format, then arrays as dtype."""
    with replace_on_success(path) as fh:
        fh.write(magic + struct.pack(head_format, *head))
        for array in arrays:
            np.ascontiguousarray(array, dtype=dtype).tofile(fh)


def read_table(path, magic, head_format, dtype, parse):
    """What parse(*head) makes of a write_table file's header, and its payload.

    parse returns that meaning and the payload's item count, or raises
    FormatError for a header it rejects.  It, a wrong magic, a short
    header or another payload length raise before anything is mapped.
    The payload is a view of the file mapped copy-on-write: nothing is
    copied at load, pages are read in as they are first touched, and a
    write to the array stays private to it.  Writers replace a file and
    never overwrite it in place, so a later save leaves a loaded array as
    it was.
    """
    name, head_bytes = magic.decode(), struct.calcsize(head_format)
    with open(path, "rb") as fh:
        found = fh.read(len(magic))
        if found != magic:
            raise FormatError(f"bad magic {found!r}, expected {name}")
        raw = fh.read(head_bytes)
        if len(raw) != head_bytes:
            raise FormatError(f"truncated {name} header")
        meaning, count = parse(*struct.unpack(head_format, raw))
        want = count * np.dtype(dtype).itemsize
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != want:
            raise FormatError(f"{name} payload has {have} bytes, expected {want}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        return meaning, np.frombuffer(mapped, dtype=dtype, count=count, offset=fh.tell())


def save_sieve(sieve, path):
    """Write the NAPSV1 binary sieve format: magic, u64 LE limit, u32 spf."""
    write_table(path, SIEVE_MAGIC, SIEVE_HEAD, (sieve.limit,), (sieve.spf,), "<u4")


def load_sieve(path):
    """Load a NAPSV1 sieve file, validating magic and length; the table maps
    the file copy-on-write, as read_table says."""
    limit, spf = read_table(path, SIEVE_MAGIC, SIEVE_HEAD, "<u4", lambda n: (n, n + 1))
    return FactorSieve(limit, spf)
