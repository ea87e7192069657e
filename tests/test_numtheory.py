import math

import numpy as np
import pytest

from narrowlab import numtheory as nt
from narrowlab.errors import DomainError, FormatError, ResourceError


def test_spf_small_table():
    sieve = nt.build_factor_sieve(10)
    assert sieve.spf.tolist() == [0, 1, 2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_spf_matches_trial_division():
    sieve = nt.build_factor_sieve(5000)
    for n in range(2, 5001):
        p = next(q for q in range(2, n + 1) if n % q == 0)
        assert int(sieve.spf[n]) == p


def test_segmented_matches_unsegmented():
    whole = nt.build_factor_sieve(100000)
    pieces = nt.build_factor_sieve(100000, segment_size=1 << 10)
    assert np.array_equal(whole.spf, pieces.spf)


def test_prime_count_at_million(sieve_2m):
    assert int(np.count_nonzero(sieve_2m.prime_mask(10 ** 6))) == 78498


def test_is_prime_agrees_with_sieve(sieve_2m):
    mask = sieve_2m.prime_mask(20000)
    for n in range(20000):
        assert nt.is_prime(n) == bool(mask[n])


def test_is_prime_large_values():
    assert nt.is_prime(2 ** 61 - 1)
    assert not nt.is_prime(2 ** 61 + 1)
    assert nt.is_prime(10 ** 6 + 3)
    assert not nt.is_prime(10 ** 6 + 1)


def test_factorize_moebius_phi(sieve_2m):
    assert nt.factorize(1, sieve_2m) == []
    assert nt.factorize(360, sieve_2m) == [(2, 3), (3, 2), (5, 1)]
    assert nt.moebius(1, sieve_2m) == 1
    assert nt.moebius(6, sieve_2m) == 1
    assert nt.moebius(30, sieve_2m) == -1
    assert nt.moebius(12, sieve_2m) == 0
    assert nt.euler_phi(1, sieve_2m) == 1
    assert nt.euler_phi(10, sieve_2m) == 4
    assert nt.euler_phi(360, sieve_2m) == 96
    assert nt.omega(30, sieve_2m) == 3


def test_factorize_trial_division_matches_sieve(sieve_2m):
    rng = np.random.default_rng(2026)
    sample = [1, 2, 3, 4, 25, 49, 1409 ** 2, 2 * 10 ** 6]
    sample += rng.integers(1, 2 * 10 ** 6 + 1, size=3000).tolist()
    for n in sample:
        factors = nt.factorize(n)
        assert factors == nt.factorize(n, sieve_2m)
        assert math.prod(p ** e for p, e in factors) == n


def test_factorize_without_sieve_signs_and_zero():
    assert nt.factorize(-360) == nt.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert nt.factorize(-1) == nt.factorize(1) == []
    assert nt.factorize(10007 * 10009) == [(10007, 1), (10009, 1)]
    assert nt.factorize(-(10 ** 7 + 19) * 49) == [(7, 2), (10 ** 7 + 19, 1)]
    with pytest.raises(DomainError):
        nt.factorize(0)


def _index_compare_mask(sieve, upto):
    mask = sieve.spf[:upto + 1] == np.arange(upto + 1)
    mask[:2] = False
    return mask


def test_prime_mask_matches_index_compare(sieve_2m):
    r = math.isqrt(sieve_2m.limit)
    for upto in (2, 3, 4, r * r - 1, r * r, r * r + 1,
                 1409 ** 2 - 1, 1409 ** 2, 1409 ** 2 + 1, sieve_2m.limit):
        assert np.array_equal(sieve_2m.prime_mask(upto),
                              _index_compare_mask(sieve_2m, upto))
    small = nt.build_factor_sieve(101 ** 2)
    for upto in range(2, small.limit + 1):
        assert np.array_equal(small.prime_mask(upto),
                              _index_compare_mask(small, upto))
    mask = small.prime_mask()
    assert [small.is_prime(n) for n in range(1, small.limit + 1)] == mask[1:].tolist()


def test_sieve_range_checks(sieve_2m):
    with pytest.raises(DomainError):
        sieve_2m.check_range(2 * 10 ** 6 + 1)
    with pytest.raises(DomainError):
        sieve_2m.check_range(0)
    with pytest.raises(DomainError):
        nt.build_factor_sieve(1)
    with pytest.raises(ResourceError):
        nt.build_factor_sieve(1 << 33)


def test_primorial_values():
    assert nt.primorial(1) == 1
    assert nt.primorial(2) == 2
    assert nt.primorial(3) == 6
    assert nt.primorial(5) == 30
    assert nt.primorial(7) == 210


def test_primorial_context():
    ctx = nt.primorial_context(3, 1, 10 ** 5 + 3)
    assert (ctx.w, ctx.W, ctx.b, ctx.modulus) == (3, 6, 1, 10 ** 5 + 3)
    assert ctx.phi_W == 2
    reduced = nt.primorial_context(3, 7, 10 ** 5 + 3)
    assert reduced.b == 1


def test_primorial_context_rejects_shared_factor():
    with pytest.raises(DomainError, match="3"):
        nt.primorial_context(3, 3, 10 ** 5 + 3)


def test_primorial_context_rejects_composite_modulus():
    with pytest.raises(DomainError):
        nt.primorial_context(3, 1, 10 ** 6)


def test_sieve_roundtrip(tmp_path):
    sieve = nt.build_factor_sieve(12345)
    path = tmp_path / "sieve.bin"
    nt.save_sieve(sieve, str(path))
    loaded = nt.load_sieve(str(path))
    assert loaded.limit == sieve.limit
    assert np.array_equal(loaded.spf, sieve.spf)


def test_failed_sieve_write_leaves_nothing_behind(tmp_path):
    broken = nt.FactorSieve(10, np.array(["x"] * 11, dtype=object))
    path = tmp_path / "sieve.bin"
    with pytest.raises(ValueError):
        nt.save_sieve(broken, str(path))
    assert list(tmp_path.iterdir()) == []
    nt.save_sieve(nt.build_factor_sieve(100), str(path))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        nt.save_sieve(broken, str(path))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPEV1" + b"\x00" * 32)
    with pytest.raises(FormatError, match="NAPSV1"):
        nt.load_sieve(str(path))


def test_load_rejects_truncation(tmp_path):
    sieve = nt.build_factor_sieve(5000)
    path = tmp_path / "trunc.bin"
    nt.save_sieve(sieve, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        nt.load_sieve(str(path))
    path.write_bytes(data[:10])
    with pytest.raises(FormatError):
        nt.load_sieve(str(path))


def test_prime_mask_prefix(sieve_2m):
    mask = sieve_2m.prime_mask(30)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert np.nonzero(mask)[0].tolist() == primes
    assert sieve_2m.primes(30).tolist() == primes


def test_packed_primes_are_the_prime_mask_read_only():
    sieve = nt.build_factor_sieve(5000)
    words = sieve.packed_primes(1000)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little").astype(bool)
    cover = sieve._packed[0]
    assert 1000 <= cover <= 2000
    assert np.array_equal(bits[:cover + 1], sieve.prime_mask(cover))
    assert not bits[cover + 1:].any()
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0
    for bad in (1, 5001):
        with pytest.raises(DomainError):
            sieve.packed_primes(bad)


def test_packed_primes_memo_grows_geometrically():
    sieve = nt.build_factor_sieve(40000)
    builds = []
    prime_mask = sieve.prime_mask

    def counting_mask(upto=None):
        builds.append((upto, top))
        return prime_mask(upto)

    sieve.prime_mask = counting_mask
    for top in range(100, 40001, 37):
        sieve.packed_primes(top)
        assert sieve._packed[0] >= top
    for cover, top in builds:
        assert top <= cover <= min(sieve.limit, 2 * top)
    assert len(builds) <= math.log2(40000 / 100) + 2
