import hashlib
import math

import numpy as np
import pytest

import oracles
from narrowlab import cutoff as co
from narrowlab import majorant as mj
from narrowlab import numtheory as nt
from narrowlab import singular as sg
from narrowlab.errors import DomainError, FormatError

NPRIME = 10007


@pytest.fixture(scope="module")
def chi():
    return co.make_cutoff("cosine")


@pytest.fixture(scope="module")
def ctx():
    return nt.primorial_context(3, 1, NPRIME)


@pytest.fixture(scope="module")
def table(ctx, chi, sieve_2m):
    R = (ctx.W * ctx.modulus) ** 0.45
    return mj.build_majorant(ctx, R, chi, sieve_2m)


def _divisors(n):
    out = [1]
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out = [a * d ** i for a in out for i in range(e + 1)]
        d += 1
    if n > 1:
        out = [a * n ** i for a in out for i in range(2)]
    return out


def test_default_R():
    ctx = nt.primorial_context(3, 1, NPRIME)
    assert mj.default_R(ctx, 2) == pytest.approx(
        (ctx.W * NPRIME) ** (1.0 / 8.0), rel=1e-15
    )
    with pytest.raises(DomainError):
        mj.default_R(ctx, 0)


def test_lambda_closed_cases(chi, sieve_2m):
    log_r = math.log(10.0)
    chi0 = co.chi_value(chi, 0.0)
    assert mj.lambda_chi_R(1, 10.0, chi, sieve_2m) == pytest.approx(
        log_r * chi0, rel=1e-15
    )
    assert mj.lambda_chi_R(101, 10.0, chi, sieve_2m) == pytest.approx(
        log_r * chi0, rel=1e-15
    )
    want = log_r * (chi0 - co.chi_value(chi, math.log(2.0) / log_r))
    assert mj.lambda_chi_R(4, 10.0, chi, sieve_2m) == pytest.approx(want, rel=1e-14)
    with pytest.raises(DomainError):
        mj.lambda_chi_R(4, 1.0, chi, sieve_2m)


def test_lambda_matches_divisor_sum_oracle(chi, sieve_2m):
    rng = np.random.default_rng(4)
    R = 30.0
    log_r = math.log(R)
    for m in rng.integers(1, 10 ** 6, size=1000):
        m = int(m)
        want = 0.0
        for d in _divisors(m):
            mu = nt.moebius(d, sieve_2m)
            if mu == 0 or d > R:
                continue
            want += mu * co.chi_value(chi, math.log(d) / log_r)
        want *= log_r
        got = mj.lambda_chi_R(m, R, chi, sieve_2m)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want)), m


def test_table_matches_pointwise_weights(table, ctx, chi, sieve_2m):
    rng = np.random.default_rng(0)
    log_r = math.log(table.R)
    for n in rng.integers(0, NPRIME, size=12):
        m = ctx.W * int(n) + ctx.b
        lam = mj.lambda_chi_R(m, table.R, chi, sieve_2m)
        want = ctx.phi_W / (ctx.W * log_r) * lam * lam
        assert table.values[int(n)] == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert table.lambda_values[int(n)] == pytest.approx(lam, rel=1e-9, abs=1e-12)


# blake2b digests (16 bytes) of values and lambda_values for w = 3, b = 1,
# the cosine cutoff and R = (W N')^0.45, from the whole-array divisor sieve
# that added each weight to every d-th entry of the table in turn.
PINNED_DIGESTS = {
    10007: ("16f25cbf24b6ef3988250e8ba657fa11",
            "3dc57e8d7e12e186773d3d8dca22d64d"),
    10 ** 5 + 3: ("56997280a3297881c481f172465046a9",
                  "e55667a38ec36c271eb670d4dbad1187"),
}


def _table_digests(nprime, chi, sieve):
    ctx = nt.primorial_context(3, 1, nprime)
    table = mj.build_majorant(ctx, (ctx.W * nprime) ** 0.45, chi, sieve)
    return tuple(hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()
                 for a in (table.values, table.lambda_values))


@pytest.mark.parametrize("nprime", sorted(PINNED_DIGESTS))
def test_segmented_table_is_bit_identical_at_every_segment_size(
        monkeypatch, chi, sieve_2m, nprime):
    assert _table_digests(nprime, chi, sieve_2m) == PINNED_DIGESTS[nprime]
    for segment in (7, 1000, nprime - 1, nprime, nprime + 1):
        monkeypatch.setattr(mj, "SEGMENT_VALUES", segment)
        assert (_table_digests(nprime, chi, sieve_2m)
                == PINNED_DIGESTS[nprime]), segment


def test_prime_arguments_get_full_weight(table, ctx):
    chi0 = co.chi_value(table.cutoff, 0.0)
    log_r = math.log(table.R)
    hits = 0
    for n in range(NPRIME):
        m = ctx.W * n + ctx.b
        if m > table.R and nt.is_prime(m):
            assert table.lambda_values[n] == pytest.approx(chi0 * log_r, rel=1e-12)
            hits += 1
            if hits >= 5:
                break
    assert hits == 5


def test_nonnegative_and_reasonable_mean(table):
    assert float(table.values.min()) >= 0.0
    assert 0.3 < float(table.values.mean()) < 1.5


def test_minorization_floor_and_check(table, ctx, sieve_2m):
    floor = mj.minorization_floor(table)
    assert floor == pytest.approx(
        ctx.phi_W * math.log(table.R) / (4.0 * ctx.W), rel=1e-15
    )
    assert mj.check_minorization(table, sieve_2m) == 0


def test_check_minorization_detects_fake_dip(table, ctx, sieve_2m):
    lowered = mj.MajorantTable(
        context=table.context,
        R=table.R,
        cutoff=table.cutoff,
        values=table.values.copy(),
        lambda_values=table.lambda_values.copy(),
    )
    target = None
    for n in range(NPRIME):
        m = ctx.W * n + ctx.b
        if m > table.R and nt.is_prime(m):
            target = n
            break
    lowered.values[target] = 0.5 * mj.minorization_floor(table)
    assert mj.check_minorization(lowered, sieve_2m) == 1


def _spf_gather_dips(table, sieve):
    """Floor dips at primes W n + b > R, read from the factor table directly."""
    ctx = table.context
    m = ctx.W * np.arange(ctx.modulus, dtype=np.int64) + ctx.b
    prime = (sieve.spf[m].astype(np.int64) == m) & (m >= 2)
    floor = mj.minorization_floor(table)
    return int(np.count_nonzero(prime & (m > table.R) & (table.values < floor)))


def test_check_minorization_matches_spf_gather(table, ctx, sieve_2m):
    rng = np.random.default_rng(7)
    lowered = mj.MajorantTable(
        context=ctx, R=table.R, cutoff=table.cutoff,
        values=table.values.copy(), lambda_values=table.lambda_values,
    )
    lowered.values[rng.integers(0, NPRIME, size=400)] = 0.0
    lowered.values[:int(table.R) // ctx.W + 2] = 0.0
    got = mj.check_minorization(lowered, sieve_2m)
    assert got == _spf_gather_dips(lowered, sieve_2m) > 0
    for b in (1, 5):
        edge_ctx = nt.primorial_context(3, b, NPRIME)
        for n in (3, 4, 10):
            m = edge_ctx.W * n + edge_ctx.b
            for R in (m - 0.5, float(m), m + 0.5):
                zeros = mj.MajorantTable(
                    context=edge_ctx, R=R, cutoff=None,
                    values=np.zeros(NPRIME), lambda_values=np.zeros(NPRIME),
                )
                assert (mj.check_minorization(zeros, sieve_2m)
                        == _spf_gather_dips(zeros, sieve_2m))


def test_build_domain_errors(ctx, chi, sieve_2m):
    top = ctx.W * ctx.modulus + ctx.b
    with pytest.raises(DomainError):
        mj.build_majorant(ctx, 2.0 * math.sqrt(top), chi, sieve_2m)
    with pytest.raises(DomainError):
        mj.build_majorant(ctx, 1.0, chi, sieve_2m)
    # The weights factor d <= R and no further: a sieve to 50 serves R = 50.
    full = mj.build_majorant(ctx, 50.0, chi, sieve_2m)
    edge = mj.build_majorant(ctx, 50.0, chi, nt.build_factor_sieve(50))
    assert edge.values.tobytes() == full.values.tobytes()
    assert edge.lambda_values.tobytes() == full.lambda_values.tobytes()
    with pytest.raises(DomainError, match="need sieve limit >= 50, have 49$"):
        mj.build_majorant(ctx, 50.0, chi, nt.build_factor_sieve(49))


def test_sieve_reach_of_build_and_floor_check(table, ctx, chi):
    # The build reads the sieve to int(R), the floor check to W (N'-1) + b.
    short = mj.build_majorant(ctx, table.R, chi, nt.build_factor_sieve(int(table.R)))
    assert short.values.tobytes() == table.values.tobytes()
    assert short.lambda_values.tobytes() == table.lambda_values.tobytes()
    last = ctx.W * (NPRIME - 1) + ctx.b
    assert mj.check_minorization(table, nt.build_factor_sieve(last)) == 0
    with pytest.raises(DomainError, match=f"need sieve limit >= {last}, have {last - 1}$"):
        mj.check_minorization(table, nt.build_factor_sieve(last - 1))


def test_pair_correlation_plain_array():
    ones = np.ones(101)
    pc = mj.majorant_pair_correlation(ones, 7)
    assert pc.empirical == 1.0 and pc.predicted == 1.0 and pc.ratio == 1.0
    with pytest.raises(DomainError):
        mj.majorant_pair_correlation(ones, 0)
    with pytest.raises(DomainError):
        mj.majorant_pair_correlation(ones, 202)


def test_pair_correlation_matches_the_rolled_copy(table):
    v = table.values
    for h in (1, 6, NPRIME - 1, NPRIME + 6, -6, 2 ** 40):
        want = float(v @ np.roll(v, -h) / NPRIME)
        got = mj.majorant_pair_correlation(table, h).empirical
        assert abs(got - want) <= 1e-14 * abs(want), h
        plain = mj.majorant_pair_correlation(v, h).empirical
        assert plain == got


def test_pair_correlation_prediction_is_singular_series(table):
    pc = mj.majorant_pair_correlation(table, 6, P_max=10 ** 4)
    want = sg.singular_series((0, 6), P_max=10 ** 4, W=table.context.W).value
    assert pc.predicted == pytest.approx(want, rel=1e-12)
    assert pc.ratio == pytest.approx(pc.empirical / pc.predicted, rel=1e-12)
    assert 0.3 < pc.ratio < 2.0


def test_save_load_roundtrip(table, chi, tmp_path):
    path = tmp_path / "majorant.bin"
    mj.save_majorant(table, str(path))
    back = mj.load_majorant(str(path), cutoff=chi)
    assert np.array_equal(back.values, table.values)
    assert np.array_equal(back.lambda_values, table.lambda_values)
    assert back.context.W == table.context.W
    assert back.context.b == table.context.b
    assert back.context.w == 3
    assert back.R == table.R
    assert back.cutoff is chi
    bare = mj.load_majorant(str(path))
    assert bare.cutoff is None


def test_loaded_majorant_is_the_saved_bytes_and_private(table, tmp_path):
    path = tmp_path / "majorant.bin"
    mj.save_majorant(table, str(path))
    before = path.read_bytes()
    back = mj.load_majorant(str(path))
    assert back.values.tobytes() == table.values.tobytes()
    assert back.lambda_values.tobytes() == table.lambda_values.tobytes()
    assert back.values.flags.writeable and back.lambda_values.flags.writeable
    back.values[:] = -1.0
    back.lambda_values[0] = math.nan
    assert path.read_bytes() == before
    assert mj.load_majorant(str(path)).values.tobytes() == table.values.tobytes()


def test_loaded_majorant_outlives_its_file(table, ctx, chi, sieve_2m, tmp_path):
    path = tmp_path / "majorant.bin"
    mj.save_majorant(table, str(path))
    back = mj.load_majorant(str(path))
    other = mj.build_majorant(ctx, 50.0, chi, sieve_2m)
    mj.save_majorant(other, str(path))
    assert mj.load_majorant(str(path)).R == 50.0
    path.unlink()
    assert back.R == table.R
    assert back.values.tobytes() == table.values.tobytes()
    assert back.lambda_values.tobytes() == table.lambda_values.tobytes()


def test_rejected_majorant_files_are_never_mapped(table, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mapped a rejected file")

    path = tmp_path / "m.bin"
    mj.save_majorant(table, str(path))
    blob = path.read_bytes()
    monkeypatch.setattr(nt.mmap, "mmap", refuse)
    bad = [blob[:20], blob[:-8], b"NOPEV1" + blob[6:],
           oracles.with_majorant_header(blob, W=10),
           *oracles.hostile_majorant_headers(blob).values()]
    for data in bad:
        path.write_bytes(data)
        with pytest.raises(FormatError):
            mj.load_majorant(str(path))


def test_majorant_file_bytes_are_pinned(table, tmp_path):
    # Digest of the NAPMV1 file for N' = 10,007, w = 3, b = 1, the cosine
    # cutoff and R = (W N')^0.45, as written before the shared table frame.
    path = tmp_path / "m.bin"
    mj.save_majorant(table, str(path))
    digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    assert digest == "e51f4a059e2116349f045edd8f4cc681"


def test_load_rejects_headers_no_build_writes(table, tmp_path):
    path = tmp_path / "m.bin"
    mj.save_majorant(table, str(path))
    blob = path.read_bytes()
    for bad in oracles.hostile_majorant_headers(blob).values():
        path.write_bytes(bad)
        with pytest.raises(FormatError, match="majorant header"):
            mj.load_majorant(str(path))
    # Coprimality is the rule, not a reduced b: b = 7 with W = 6 loads.
    top = table.context.W * NPRIME + 7
    for b, R in ((7, table.R), (1, math.sqrt(top - 6)),
                 (5, math.nextafter(1.0, 2.0))):
        path.write_bytes(oracles.with_majorant_header(blob, b=b, R=R))
        back = mj.load_majorant(str(path))
        assert (back.context.b, back.R) == (b, R)


def test_failed_majorant_write_leaves_nothing_behind(table, tmp_path):
    broken = mj.MajorantTable(
        context=table.context, R=table.R, cutoff=table.cutoff,
        values=table.values, lambda_values=np.array(["x"], dtype=object),
    )
    path = tmp_path / "m.bin"
    with pytest.raises(ValueError):
        mj.save_majorant(broken, str(path))
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPEV1" + b"\x00" * 64)
    with pytest.raises(FormatError, match="NAPMV1"):
        mj.load_majorant(str(path))


def test_load_rejects_truncation(table, tmp_path):
    path = tmp_path / "m.bin"
    mj.save_majorant(table, str(path))
    blob = path.read_bytes()
    head = tmp_path / "head.bin"
    head.write_bytes(blob[:20])
    with pytest.raises(FormatError):
        mj.load_majorant(str(head))
    cut = tmp_path / "cut.bin"
    cut.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        mj.load_majorant(str(cut))


def test_load_rejects_bad_header_fields(table, tmp_path):
    path = tmp_path / "m.bin"
    mj.save_majorant(table, str(path))
    blob = bytearray(path.read_bytes())
    comp = bytearray(blob)
    comp[6:14] = (10008).to_bytes(8, "little")
    bad1 = tmp_path / "composite.bin"
    bad1.write_bytes(bytes(comp) + b"\x00" * 16)
    with pytest.raises(FormatError):
        mj.load_majorant(str(bad1))
    wbad = bytearray(blob)
    wbad[14:22] = (10).to_bytes(8, "little")
    bad2 = tmp_path / "notprimorial.bin"
    bad2.write_bytes(bytes(wbad))
    with pytest.raises(FormatError):
        mj.load_majorant(str(bad2))


def test_load_rejects_hostile_primorial_header(tmp_path):
    def header(W):
        return (b"NAPMV1" + (5).to_bytes(8, "little") + W.to_bytes(8, "little")
                + (1).to_bytes(8, "little") + np.float64(2.0).tobytes()
                + b"\x00" * 80)

    path = tmp_path / "hostile.bin"
    for W in (2 * (10 ** 7 + 19), 2 ** 61 - 1, 2 ** 64 - 1, 0, 4, 2 * 5):
        path.write_bytes(header(W))
        with pytest.raises(FormatError, match="primorial"):
            mj.load_majorant(str(path))
    for w in (1, 2, 47):
        path.write_bytes(header(nt.primorial(w)))
        assert mj.load_majorant(str(path)).context.w == w
