import math

import numpy as np
import pytest

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


def test_prime_arguments_get_full_weight(table, ctx, sieve_2m):
    chi0 = co.chi_value(table.cutoff, 0.0)
    log_r = math.log(table.R)
    hits = 0
    for n in range(NPRIME):
        m = ctx.W * n + ctx.b
        if m > table.R and sieve_2m.is_prime(m):
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
        if m > table.R and sieve_2m.is_prime(m):
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
    small = nt.build_factor_sieve(1000)
    with pytest.raises(DomainError):
        mj.build_majorant(ctx, 50.0, chi, small)


def test_pair_correlation_plain_array():
    ones = np.ones(101)
    pc = mj.majorant_pair_correlation(ones, 7)
    assert pc.empirical == 1.0 and pc.predicted == 1.0 and pc.ratio == 1.0
    with pytest.raises(DomainError):
        mj.majorant_pair_correlation(ones, 0)
    with pytest.raises(DomainError):
        mj.majorant_pair_correlation(ones, 202)


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
