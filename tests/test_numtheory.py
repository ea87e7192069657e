import hashlib
import math
import time

import numpy as np
import pytest

from narrowlab import numtheory as nt
from narrowlab.errors import DomainError, FormatError, ResourceError


def test_spf_small_table():
    sieve = nt.build_factor_sieve(10)
    assert sieve.spf.tolist() == [0, 1, 2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_spf_matches_trial_division(spf_table):
    sieve = nt.build_factor_sieve(5000)
    assert np.array_equal(sieve.spf, spf_table[:5001])


def test_segmented_matches_unsegmented(monkeypatch):
    whole = nt.build_factor_sieve(100000)
    monkeypatch.setattr(nt, "SEGMENT_SIZE", 1 << 10)
    pieces = nt.build_factor_sieve(100000)
    assert np.array_equal(whole.spf, pieces.spf)


@pytest.mark.parametrize("segment", [7, 999, 1000])
def test_segment_sizes_match_trial_division(monkeypatch, spf_table, segment):
    # Odd segment sizes flip the parity of each segment's start, which
    # moves the even store and every odd prime's first odd multiple.
    want = spf_table[:10 ** 5 + 1].tolist()
    monkeypatch.setattr(nt, "SEGMENT_SIZE", segment)
    for limit in range(2, 201):
        assert nt.build_factor_sieve(limit).spf.tolist() == want[:limit + 1], limit
    assert nt.build_factor_sieve(10 ** 5).spf.tolist() == want


def test_spf_at_every_small_limit_matches_trial_division(spf_table):
    want = spf_table[:65].tolist()
    for limit in range(2, 65):
        assert nt.build_factor_sieve(limit).spf.tolist() == want[:limit + 1], limit


@pytest.mark.parametrize("segment", [None, 1 << 10, 40001, 30029])
def test_spf_at_wheel_period_edges_matches_trial_division(monkeypatch, spf_table, segment):
    # Limits one below, at and one past each multiple of the wheel's
    # period, at the default segment size and at sizes that put segment
    # edges off the period: 2^10, an odd size past it and one below it.
    want = spf_table[:3 * nt.WHEEL + 2].tolist()
    if segment is not None:
        monkeypatch.setattr(nt, "SEGMENT_SIZE", segment)
    for j in (1, 2, 3):
        for limit in (j * nt.WHEEL - 1, j * nt.WHEEL, j * nt.WHEEL + 1):
            assert nt.build_factor_sieve(limit).spf.tolist() == want[:limit + 1], limit


def test_wheel_pattern_is_the_least_small_prime():
    ramp, pattern = nt._period_tables()
    assert pattern.shape == (2 * nt.WHEEL,) and ramp.tolist() == list(range(nt.WHEEL))
    assert not (ramp.flags.writeable or pattern.flags.writeable)
    assert math.prod(nt.WHEEL_PRIMES) == nt.WHEEL
    for n in range(pattern.shape[0]):
        least = next((p for p in nt.WHEEL_PRIMES if n % p == 0), 2 ** 32 - 1)
        assert int(pattern[n]) == least, n


def test_factor_table_bytes_are_pinned():
    # Digest of the table as built before the cache-sized kernel; any
    # later kernel must reproduce every byte.
    spf = nt.build_factor_sieve(10 ** 6 + 600).spf
    digest = hashlib.blake2b(np.ascontiguousarray(spf, dtype="<u4").tobytes(),
                             digest_size=16).hexdigest()
    assert digest == "f89df997f1c5e974dba1e38bdf240d90"


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


def test_factorize_moebius(sieve_2m):
    assert nt.factorize(1, sieve_2m) == []
    assert nt.factorize(360, sieve_2m) == [(2, 3), (3, 2), (5, 1)]
    assert nt.moebius(1, sieve_2m) == 1
    assert nt.moebius(6, sieve_2m) == 1
    assert nt.moebius(30, sieve_2m) == -1
    assert nt.moebius(12, sieve_2m) == 0


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


def test_factorize_bound_leaves_one_cofactor_above_it():
    q = 10 ** 9 + 7
    rng = np.random.default_rng(24)
    cases = [(int(n), nt.factorize(int(n))) for n in rng.integers(1, 10 ** 8, size=300)]
    cases += [(2 * q ** 3, [(2, 1), (q, 3)]), (q ** 2, [(q, 2)]),
              (2 ** 61 - 1, [(2 ** 61 - 1, 1)]), (101 ** 2, [(101, 2)]),
              (-97 * 101, [(97, 1), (101, 1)])]
    for n, full in cases:
        for bound in (1, 2, 5, 97, 100, int(rng.integers(1, 10 ** 4)), 10 ** 5):
            got = nt.factorize(n, bound=bound)
            small = [(p, e) for p, e in full if p <= bound]
            rest = math.prod(p ** e for p, e in full if p > bound)
            assert got == small + ([(rest, 1)] if rest > 1 else []), (n, bound)


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
    assert [nt.is_prime(n) for n in range(1, small.limit + 1)] == mask[1:].tolist()


def test_progression_prime_mask_is_a_slice_of_the_full_mask(sieve_2m):
    small = nt.build_factor_sieve(101 ** 2)
    for sieve in (small, sieve_2m):
        r = math.isqrt(sieve.limit)
        cases = [(0, 1, None), (1, 6, None), (5, 6, None), (0, 2, None),
                 (1, 2, 50), (2, 1, 10), (r, 7, 100), (r + 1, 30, 1000),
                 (r - 1, r, None), (sieve.limit, 3, None)]
        for start, step, count in cases:
            for upto in (sieve.limit, r * r - 1, 2, 3, start):
                if upto < 2:
                    continue
                want = sieve.prime_mask(upto)[start::step][:count]
                got = sieve.prime_mask(upto, start=start, step=step)[:count]
                assert np.array_equal(got, want), (start, step, count, upto)
    for start, step in ((-1, 1), (0, 0), (3, -6)):
        with pytest.raises(DomainError):
            small.prime_mask(100, start=start, step=step)


def test_primorial_context_stops_past_the_table_field():
    assert nt.primorial_context(47, 1, 10007).W == nt.primorial(47) < 2 ** 64
    for w in (53, 2 ** 31, 2 ** 63):
        with pytest.raises(ResourceError, match="primorial\\(47\\)"):
            nt.primorial_context(w, 1, 10007)


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


def test_primorial_walk_is_the_one_capped_walk():
    walk = list(nt.primorial_walk(13))
    assert walk == [(2, 2), (3, 6), (5, 30), (7, 210), (11, 2310), (13, 30030)]
    assert list(nt.primorial_walk(1)) == list(nt.primorial_walk(-5)) == []
    assert nt.primorial(47) < 2 ** 64 <= nt.primorial(47) * 53
    for w in (53, 2 ** 31, 2 ** 63):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="primorial\\(47\\)"):
            nt.primorial(w)
        assert time.perf_counter() - start < 0.1
    ctx = nt.primorial_context(47, 1, 10007)
    assert ctx.phi_W == math.prod(p - 1 for p, _ in nt.primorial_walk(47))


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


def test_sieve_file_bytes_are_pinned(tmp_path):
    # Digest of the NAPSV1 file as written before the shared table frame.
    path = tmp_path / "sieve.bin"
    nt.save_sieve(nt.build_factor_sieve(60050), str(path))
    digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    assert digest == "d22e28ce14764738a8073a72df218b5b"


def test_table_frame_roundtrip_and_checks(tmp_path):
    path = tmp_path / "t.bin"
    arrays = (np.arange(3, dtype=np.uint32), np.array([7], dtype=np.uint32))
    nt.write_table(str(path), b"TESTV1", "<Qd", (4, 0.5), arrays, "<u4")
    assert path.stat().st_size == 6 + 16 + 16
    head, payload = nt.read_table(str(path), b"TESTV1", "<Qd", "<u4",
                                  lambda n, x: ((n, x), n))
    assert head == (4, 0.5) and payload.tolist() == [0, 1, 2, 7]
    with pytest.raises(FormatError, match="payload has 16 bytes, expected 20"):
        nt.read_table(str(path), b"TESTV1", "<Qd", "<u4", lambda n, _: (n, n + 1))
    with pytest.raises(FormatError, match="OTHER"):
        nt.read_table(str(path), b"OTHERV", "<Qd", "<u4", lambda n, _: (n, n))
    with pytest.raises(FormatError, match="truncated"):
        nt.read_table(str(path), b"TESTV1", "<Q64s", "<u4", lambda n, _: (n, n))


def test_loaded_sieve_is_the_saved_bytes(tmp_path):
    sieve = nt.build_factor_sieve(60050)
    path = tmp_path / "sieve.bin"
    nt.save_sieve(sieve, str(path))
    loaded = nt.load_sieve(str(path))
    assert loaded.spf.dtype == np.dtype("<u4") and loaded.spf.shape == sieve.spf.shape
    assert loaded.spf.tobytes() == sieve.spf.tobytes()
    assert path.read_bytes()[14:] == sieve.spf.tobytes()


def test_loaded_sieve_is_private_to_its_caller(tmp_path):
    path = tmp_path / "sieve.bin"
    nt.save_sieve(nt.build_factor_sieve(5000), str(path))
    before = path.read_bytes()
    first, second = nt.load_sieve(str(path)), nt.load_sieve(str(path))
    assert first.spf.flags.writeable
    first.spf[:] = 7
    assert path.read_bytes() == before
    assert second.spf.tobytes() == before[14:]
    assert nt.load_sieve(str(path)).spf.tobytes() == before[14:]


def test_loaded_sieve_outlives_its_file(tmp_path):
    # Writers replace the file, so a load keeps the bytes it mapped.
    path = tmp_path / "sieve.bin"
    nt.save_sieve(nt.build_factor_sieve(5000), str(path))
    want = path.read_bytes()[14:]
    loaded = nt.load_sieve(str(path))
    nt.save_sieve(nt.build_factor_sieve(5000 + 7), str(path))
    assert nt.load_sieve(str(path)).limit == 5007
    assert loaded.limit == 5000 and loaded.spf.tobytes() == want
    path.unlink()
    assert loaded.spf.tobytes() == want
    assert loaded.primes(100).tolist()[:5] == [2, 3, 5, 7, 11]


def test_rejected_sieve_files_are_never_mapped(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mapped a rejected file")

    path = tmp_path / "sieve.bin"
    nt.save_sieve(nt.build_factor_sieve(5000), str(path))
    data = path.read_bytes()
    monkeypatch.setattr(nt.mmap, "mmap", refuse)
    for bad in (data[:len(data) // 2], data[:10], data + b"\x00",
                b"NOPEV1" + data[6:], data[:6] + (2 ** 64 - 1).to_bytes(8, "little")):
        path.write_bytes(bad)
        with pytest.raises(FormatError):
            nt.load_sieve(str(path))


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
