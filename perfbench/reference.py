"""Reference computations that the benchmark checks narrowlab against.

Nothing here imports narrowlab.  Each function takes a plain, slow and
obviously correct route to its answer: a boolean Eratosthenes sieve,
trial division, subset sums over divisors, exhaustive enumeration of set
partitions, and integer arithmetic wherever a count must be exact.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

COSINE_NORM = 2.0 * math.sqrt(2.0) / math.pi
SEGMENT = 1 << 22           # numbers per segment of prime_count's sieve
EULER_PRIMES = 100000       # Euler products run over the primes up to this
SERIES_ROWS = 16            # differences per block in progression_series
SIMPSON_STEPS = 200000      # intervals of log_integral's Simpson rule


# ------------------------------------------------------------------ primes

def prime_flags(lo, hi, base=None):
    """Boolean array whose entry i is true exactly when lo + i is prime.

    Covers lo <= n < hi by crossing out multiples of the primes up to
    sqrt(hi - 1); pass those primes as ``base`` to avoid recomputing them.
    """
    if base is None:
        base = small_primes(math.isqrt(max(hi - 1, 0)))
    flags = np.ones(max(hi - lo, 0), dtype=bool)
    flags[:max(0, min(2, hi) - lo)] = False
    for p in base.tolist():
        start = max(p * p, -(-lo // p) * p)
        if start < hi:
            flags[start - lo::p] = False
    return flags


def small_primes(upto):
    """All primes p <= upto as an int64 array."""
    flags = np.ones(upto + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(upto) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def prime_count(limit):
    """Number of primes p <= limit, sieved in segments of bounded size."""
    base = small_primes(math.isqrt(limit))
    total = 0
    for lo in range(0, limit + 1, SEGMENT):
        total += int(np.count_nonzero(
            prime_flags(lo, min(lo + SEGMENT, limit + 1), base)))
    return total


def smallest_factors(ns):
    """Smallest prime factor of each n >= 2 by trial division (vectorised)."""
    ns = np.asarray(ns, dtype=np.int64)
    out = ns.copy()
    for p in small_primes(math.isqrt(int(ns.max()))):
        hit = (ns % p == 0) & (out == ns) & (ns != p)
        out[hit] = p
    return out


def prime_divisors(m):
    """Distinct prime factors of m >= 1 by trial division."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------- majorant

def cosine_cutoff(x):
    """The normalised cosine cutoff (2 sqrt 2 / pi) cos(pi x / 2) on |x| < 1."""
    return COSINE_NORM * math.cos(math.pi * x / 2.0) if abs(x) < 1.0 else 0.0


def majorant_value(n, W, b, R):
    """The majorant at residue n, from the divisors of W n + b directly.

    lambda = log R * sum over squarefree d | W n + b with d <= R of
    mu(d) chi(log d / log R); the majorant is phi(W) lambda^2 / (W log R).
    """
    log_r = math.log(R)
    primes = prime_divisors(W * n + b)
    lam = 0.0
    for size in range(len(primes) + 1):
        for subset in itertools.combinations(primes, size):
            d = math.prod(subset)
            if d <= R:
                lam += (-1) ** size * cosine_cutoff(math.log(d) / log_r)
    lam *= log_r
    phi_w = math.prod(p - 1 for p in prime_divisors(W)) if W > 1 else 1
    return phi_w / (W * log_r) * lam * lam


# ---------------------------------------------------------- singular series

def singular_series(h, W=1):
    """Euler product over primes p <= EULER_PRIMES, p not dividing W, of
    (1 - 1/p)^(-r) (1 - nu_p(h) / p), with nu_p the residues h occupies."""
    h = [int(v) for v in h]
    r = len(set(h))
    total = 0.0
    for p in small_primes(EULER_PRIMES):
        p = int(p)
        if W % p == 0:
            continue
        nu = len({v % p for v in h})
        if nu == p:
            return 0.0
        total += -r * math.log1p(-1.0 / p) + math.log1p(-nu / p)
    return math.exp(total)


def progression_series(ds, k, W=1):
    """singular_series((0, d, 2d, ..., (k-1) d), W) for every d in ds.

    At a prime p the entries occupy one residue when p | d and min(p, k)
    residues otherwise; r = 1 for d = 0 and k otherwise.  Rows are handled
    a few at a time to keep the working set small.
    """
    ds = np.abs(np.asarray(ds, dtype=np.int64))
    p = small_primes(EULER_PRIMES)
    p = p[W % p != 0]
    pf = p.astype(np.float64)
    gen = -np.log1p(-1.0 / pf)
    out = np.empty(ds.size)
    for lo in range(0, ds.size, SERIES_ROWS):
        d = ds[lo:lo + SERIES_ROWS, None]
        nu = np.where(d % p[None, :] == 0, 1.0, np.minimum(pf, k)[None, :])
        r = np.where(d == 0, 1.0, float(k))
        with np.errstate(divide="ignore"):
            logs = r * gen[None, :] + np.log1p(-nu / pf[None, :])
        out[lo:lo + SERIES_ROWS] = np.exp(logs.sum(axis=1))
    return out


def log_integral(N, k):
    """Integral of dt / (log t)^k over [2, N] by Simpson's rule in u = log t."""
    u = np.linspace(math.log(2.0), math.log(N), SIMPSON_STEPS + 1)
    f = np.exp(u) / u ** k
    h = (u[-1] - u[0]) / SIMPSON_STEPS
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


# ------------------------------------------------------------ progressions

def ap_count(flags, N, k, d):
    """Number of p <= N with p, p + d, ..., p + (k-1) d all flagged."""
    ps = np.flatnonzero(flags[:N + 1])
    ok = np.ones(ps.size, dtype=bool)
    for j in range(1, k):
        ok &= flags[ps + j * d]
    return int(np.count_nonzero(ok))


def cyclic_progressions(flags, D, k):
    """Number of pairs (n, d), 1 <= d <= D, with n + j d mod N flagged for
    every j < k, where N = len(flags).

    For each flagged n, d runs over the differences to the other flagged
    residues, so the work grows with the square of the flagged count.
    """
    N = flags.size
    pts = np.flatnonzero(flags)
    total = 0
    for p in pts.tolist():
        d = (pts - p) % N
        d = d[(d >= 1) & (d <= D)]
        ok = np.ones(d.size, dtype=bool)
        for j in range(2, k):
            ok &= flags[(p + j * d) % N]
        total += int(np.count_nonzero(ok))
    return total


def cyclic_sweep(fs, D):
    """Mean over n in Z/N and d in [1, D] of prod_j fs[j][n + j d mod N].

    Shifts are read as slices of each array written out twice; each d adds
    one dot product.
    """
    fs = [np.asarray(f, dtype=np.float64) for f in fs]
    N = fs[0].size
    twice = [np.concatenate([f, f]) for f in fs]
    total = 0.0
    for d in range(1, D + 1):
        rest = np.ones(N)
        for j in range(1, len(fs)):
            off = j * d % N
            rest *= twice[j][off:off + N]
        total += float(np.dot(fs[0], rest))
    return total / (N * D)


# ------------------------------------------------------- linear algebra

def rank(rows):
    """Exact rank over Q of integer or Fraction rows (fraction-free elimination)."""
    mat = []
    for row in rows:
        if all(isinstance(v, int) for v in row):
            mat.append(list(row))
        else:
            den = math.lcm(*(Fraction(v).denominator for v in row))
            mat.append([int(Fraction(v) * den) for v in row])
    r = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][col]:
                a, b = mat[r][col], mat[i][col]
                row = [a * x - b * y for x, y in zip(mat[i], mat[r])]
                g = math.gcd(*row)
                mat[i] = [v // g for v in row] if g > 1 else row
        r += 1
    return r


def set_partitions(t):
    """Every partition of {0, ..., t-1}, as lists of blocks (restricted growth)."""
    labels = [0] * t

    def rec(i, blocks):
        if i == t:
            parts = [[] for _ in range(blocks)]
            for idx, lab in enumerate(labels):
                parts[lab].append(idx)
            yield parts
            return
        for lab in range(blocks + 1):
            labels[i] = lab
            yield from rec(i + 1, max(blocks, lab + 1))

    return rec(1, 1)


def partition_codim(forms, blocks):
    """Codimension of {x : forms agree within each block}; None when empty.

    forms are (coeffs, constant) pairs; the constraints are a . x = rhs for
    a = coeffs_i - coeffs_anchor and rhs = constant_anchor - constant_i.
    """
    hom, aug = [], []
    for block in blocks:
        ca, ka = forms[block[0]]
        for i in block[1:]:
            ci, ki = forms[i]
            a = [x - y for x, y in zip(ci, ca)]
            hom.append(a)
            aug.append(a + [ka - ki])
    if not hom:
        return 0
    r = rank(hom)
    return r if r == rank(aug) else None


def collision_index(forms):
    """max over partitions pi with |pi| < t of (t - |pi|) / codim(pi)."""
    t = len(forms)
    best = Fraction(0)
    for blocks in set_partitions(t):
        if len(blocks) == t:
            continue
        c = partition_codim(forms, blocks)
        if c:
            best = max(best, Fraction(t - len(blocks), c))
    return best


def distinct_on_subspace(forms, rows):
    """Number of distinct functions the forms restrict to on a subspace.

    rows are (a_1, ..., a_d, rhs) constraints a . x = rhs; forms i and j agree
    on the subspace exactly when their difference, written as the functional
    (coeffs, constant), lies in the span of the functionals (a, -rhs).
    """
    funcs = [list(r[:-1]) + [-r[-1]] for r in rows]
    base = rank(funcs)
    reps = []
    for ci, ki in forms:
        if not any(rank(funcs + [[x - y for x, y in zip(ci, cj)] + [ki - kj]]) == base
                   for cj, kj in reps):
            reps.append((ci, ki))
    return len(reps)


def collision_hyperplanes(forms):
    """Primitive pairwise differences a (first nonzero entry positive) with
    their right-hand sides, one per distinct hyperplane a . x = rhs."""
    out = {}
    for (ci, ki), (cj, kj) in itertools.combinations(forms, 2):
        a = [x - y for x, y in zip(ci, cj)]
        rhs = kj - ki
        if not any(a):
            continue
        g = math.gcd(*a)
        if rhs % g:
            continue
        a = [v // g for v in a]
        rhs //= g
        if next(v for v in a if v) < 0:
            a = [-v for v in a]
            rhs = -rhs
        out[(tuple(a), rhs)] = None
    return list(out)


# ------------------------------------------------------- hyperplane counts

def hyperplane_count(coeffs, S, rhs=0):
    """Exact number of x in [-S, S]^d with coeffs . x = rhs, as a Python int.

    The distribution of the partial sums over all but the last active
    coordinate is built in integers, each entry a count of points; switching
    to Python integers once those counts could pass 2^62 keeps every step
    exact.  The last coordinate is summed in Python integers.
    """
    n = 2 * S + 1
    a = [int(c) for c in coeffs if c]
    free = n ** (len(coeffs) - len(a))
    if not a:
        return free if rhs == 0 else 0
    dtype = object if n ** (len(a) - 1) >= 1 << 62 else np.int64
    counts = np.ones(1, dtype=dtype)
    offset = 0
    for c in a[:-1]:
        # grown[v] = sum of counts[v - step * m] over 0 <= m <= 2S, computed
        # per residue class mod step from running sums along that class.
        step = abs(c)
        grown = np.zeros(counts.size + 2 * S * step, dtype=dtype)
        for r in range(step):
            col = counts[r::step]
            run = np.concatenate([np.zeros(1, dtype=dtype), np.cumsum(col)])
            q = np.arange(grown[r::step].size)
            hi = np.minimum(q, col.size - 1) + 1
            lo = np.minimum(np.maximum(q - 2 * S, 0), hi)
            grown[r::step] = run[hi] - run[lo]
        counts = grown
        offset -= step * S
    xs = np.arange(-S, S + 1, dtype=np.int64)
    pos = rhs - a[-1] * xs - offset
    pos = pos[(pos >= 0) & (pos < counts.size)]
    return free * sum(int(v) for v in counts[pos].tolist())


# ---------------------------------------------------------- random model

def linear_forms_average(values, forms, S):
    """Exact mean over n in Z/N and x in [-S, S]^d of prod_i values[n + psi_i(x)].

    Only the differences psi_i(x) - psi_0(x) matter after averaging over n,
    so each distinct difference pattern is evaluated once.
    """
    values = np.asarray(values, dtype=np.float64)
    N = values.size
    d = len(forms[0][0])
    seen = {}
    total = 0.0
    npoints = 0
    for x in itertools.product(range(-S, S + 1), repeat=d):
        shifts = [sum(c * v for c, v in zip(coeffs, x)) + k for coeffs, k in forms]
        key = tuple(sorted((s - shifts[0]) % N for s in shifts))
        if key not in seen:
            prod = np.ones(N)
            for s in key:
                prod *= np.roll(values, -s)
            seen[key] = float(prod.mean())
        total += seen[key]
        npoints += 1
    return total / npoints
