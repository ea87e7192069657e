import math
import time
import tracemalloc

import numpy as np
import pytest

from narrowlab import cutoff as co
from narrowlab.errors import DomainError, ResourceError, UnsupportedError


def test_cosine_norm_constant_closed_form():
    spec = co.make_cutoff("cosine")
    assert spec.kind == "cosine"
    assert abs(spec.norm_constant - 2 * math.sqrt(2) / math.pi) < 1e-15


def test_bump_norm_constant_frozen():
    spec = co.make_cutoff("bump")
    assert spec.norm_constant == 2.2097435943384465
    assert abs(co.chi_value(spec, 0.0) - 0.812919238617402) < 1e-12


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        co.make_cutoff("gaussian")


def test_support_and_symmetry():
    for kind in co.KINDS:
        spec = co.make_cutoff(kind)
        assert co.chi_value(spec, 1.0) == 0.0
        assert co.chi_value(spec, -1.0) == 0.0
        assert co.chi_value(spec, 1.7) == 0.0
        x = np.linspace(-0.9, 0.9, 19)
        vals = co.chi_value(spec, x)
        assert np.allclose(vals, vals[::-1], atol=1e-14)
        assert co.chi_value(spec, 0.0) > 0.5


def test_normalization_residual():
    for kind in co.KINDS:
        assert co.norm_residual(co.make_cutoff(kind)) < 1e-9


def test_chi_deriv_matches_finite_difference():
    h = 1e-6
    for kind in co.KINDS:
        spec = co.make_cutoff(kind)
        for x in (-0.7, -0.2, 0.3, 0.8):
            fd = (co.chi_value(spec, x + h) - co.chi_value(spec, x - h)) / (2 * h)
            assert abs(co.chi_deriv(spec, x) - fd) < 1e-6


def test_fourier_psi_inverts_chi():
    """ psi is the Fourier weight with e^x chi(x) = int psi(t) e^{-ixt} dt."""
    for kind in co.KINDS:
        spec = co.make_cutoff(kind)
        ts, ws = co.gauss_panels(-400.0, 400.0, 800)
        psi = co.fourier_psi(spec, ts)
        for x in (0.0, 0.4, -0.6):
            val = float(np.real(np.sum(ws * psi * np.exp(-1j * x * ts))))
            want = math.exp(x) * float(co.chi_value(spec, x))
            assert abs(val - want) < 2e-3


def test_first_factor_vanishes():
    for kind in co.KINDS:
        assert abs(co.sieve_factor(co.make_cutoff(kind), 1)) < 5e-3


def test_second_factor_is_one():
    for kind in co.KINDS:
        assert abs(co.sieve_factor(co.make_cutoff(kind), 2) - 1.0) < 1e-3


# (value, imag_residual, tail_estimate) of sieve_factor_report at the default T.
_PINNED_FACTORS = {
    ("cosine", 1): (0.003973044518251335, 1.1102230246251565e-16, 0.0065577631521365615),
    ("cosine", 2): (0.9999938219882621, 2.7755575615628914e-17, 0.003169761937346194),
    ("bump", 1): (-0.0026277374624011675, 1.1102230246251565e-16, 0.031371636649011936),
    ("bump", 2): (0.9999190826868255, 0.0, 0.0030208672049670815),
}


def test_first_and_second_factors_pinned_exactly():
    for (kind, m), want in _PINNED_FACTORS.items():
        rep = co.sieve_factor_report(co.make_cutoff(kind), m)
        assert (rep.value, rep.imag_residual, rep.tail_estimate) == want, (kind, m)


def _pair_sum(spec, T):
    """The m = 2 quadrature sum as one expression over n x n arrays."""
    t, w = co.gauss_panels(-T, T, co._panel_count(spec, 2, T), nodes=10)
    a = w * co.fourier_psi(spec, t) * (1.0 + 1j * t)
    return complex(np.sum(a[:, None] * a[None, :] / (2.0 + 1j * (t[:, None] + t[None, :]))))


def test_second_factor_blocks_match_the_whole_array_sum():
    # n = 240 at T = 37.5 is no multiple of the 64-row block.
    for kind in co.KINDS:
        spec = co.make_cutoff(kind)
        for T in (co.DEFAULT_T[kind], co.DEFAULT_T[kind] / 2, 37.5):
            assert co._factor_integral(spec, 2, T) == _pair_sum(spec, T), (kind, T)


def test_second_factor_peaks_at_its_one_term_array():
    # n = 1,280 at the default T: the terms take 16 n^2 bytes (26 MB), and
    # the whole-array expression peaked at twice that.
    spec = co.make_cutoff("cosine")
    n = 10 * co._panel_count(spec, 2, co.DEFAULT_T["cosine"])
    tracemalloc.start()
    try:
        co._factor_integral(spec, 2, co.DEFAULT_T["cosine"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * n * n


def _triple_sum(spec, T):
    """The explicit triple quadrature sum behind the m = 3 factor.

    sum over i, j, l of a_i a_j a_l (3 + i(t_i + t_j + t_l)) divided by
    (2 + i(t_i + t_j)) (2 + i(t_i + t_l)) (2 + i(t_j + t_l)), with
    a = w psi(t) (1 + i t), added with math.fsum.
    """
    npanels = max(4, math.ceil(2.0 * T * co.DEFAULT_NODES_PER_UNIT / 10.0))
    t, w = co.gauss_panels(-T, T, npanels, nodes=10)
    a = w * co.fourier_psi(spec, t) * (1.0 + 1j * t)
    ti, tj, tl = t[:, None, None], t[None, :, None], t[None, None, :]
    terms = (a[:, None, None] * a[None, :, None] * a[None, None, :]
             * (3.0 + 1j * (ti + tj + tl))
             / ((2.0 + 1j * (ti + tj)) * (2.0 + 1j * (ti + tl)) * (2.0 + 1j * (tj + tl))))
    return complex(math.fsum(terms.real.ravel()), math.fsum(terms.imag.ravel()))


def test_triple_integral_matches_explicit_sum():
    for kind in co.KINDS:
        spec = co.make_cutoff(kind)
        for T in (6.0, 12.0):
            got = co._factor_integral(spec, 3, T)
            want = _triple_sum(spec, T)
            assert abs(got - want) < 1e-14, (kind, T, got, want)


def _c3_real_space(spec):
    """Independent real-space oracle for the triple factor.

    Expanding the oscillatory t-integrals into derivatives of chi turns
    the triple factor into 3 * iiint_{a,b,c >= 0} chi''(a+b) chi'(a+c)
    chi'(b+c) da db dc.  For the cosine kind every piece integrates in
    closed form.  Writing kappa for the derivative scale c0 * pi / 2,
    the inner c-integral of chi'(a+c) chi'(b+c) equals

        (kappa^2 / 2) * (M cos(pi (a-b) / 2)
                         - (sin(pi |a-b| / 2) - sin(pi (a+b) / 2)) / pi)

    with M = 1 - max(a, b).  Integrating that against the smooth part of
    chi'' over a+b <= 1 gives -3 kappa^3 / (8 pi), and the boundary term
    from the derivative jump kappa at the support edge (chi'' carries a
    delta of that weight at x = 1) gives kappa^3 / (2 pi).  With
    kappa = sqrt(2) the total is 3 sqrt(2) / (4 pi).  The bump kind is
    smooth through the edge, so finite differences plus tensor
    Gauss-Legendre suffice.
    """
    if spec.kind == "cosine":
        return 3.0 * math.sqrt(2.0) / (4.0 * math.pi)
    h = 1e-4

    def d1(x):
        return (co.chi_value(spec, x + h) - co.chi_value(spec, x - h)) / (2 * h)

    def d2s(x):
        return (
            co.chi_value(spec, x + h)
            - 2 * co.chi_value(spec, x)
            + co.chi_value(spec, x - h)
        ) / (h * h)

    nodes, weights = np.polynomial.legendre.leggauss(60)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    a = u[:, None, None]
    b = u[None, :, None]
    c = u[None, None, :]
    w3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
    return 3.0 * float((d2s(a + b) * d1(a + c) * d1(b + c) * w3).sum())


def test_third_factor_against_real_space_oracle():
    for kind in co.KINDS:
        spec = co.make_cutoff(kind)
        osc = co.sieve_factor(spec, 3)
        real = _c3_real_space(spec)
        assert abs(osc - real) < 5e-3, (kind, osc, real)


def test_report_fields():
    rep = co.sieve_factor_report(co.make_cutoff("cosine"), 2)
    assert rep.m == 2
    assert rep.T == co.DEFAULT_T["cosine"]
    assert rep.imag_residual < 1e-6
    assert rep.tail_estimate < 0.05
    with pytest.raises(UnsupportedError):
        co.sieve_factor_report(co.make_cutoff("cosine"), 4)


def test_bad_truncation_rejected():
    with pytest.raises(DomainError):
        co.sieve_factor_report(co.make_cutoff("cosine"), 2, T=-3.0)
    for T in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            co.sieve_factor_report(co.make_cutoff("cosine"), 1, T=T)


def test_quadrature_cap_admits_the_defaults_and_stops_wide_T():
    for kind in co.KINDS:
        spec = co.make_cutoff(kind)
        for m in (1, 2, 3):
            T = co.DEFAULT_T[kind] if m <= 2 else co.DEFAULT_T_TRIPLE
            assert 10 * co._panel_count(spec, m, T) <= 1280
    cosine = co.make_cutoff("cosine")
    assert 10 * co._panel_count(cosine, 1, 2000.0) == 12800
    for kind, m, T in (("cosine", 2, 2000.0), ("cosine", 3, 400.0),
                       ("bump", 1, 2000.0), ("cosine", 1, 2.0 ** 31)):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="quadrature nodes"):
            co.sieve_factor_report(co.make_cutoff(kind), m, T=T)
        assert time.perf_counter() - start < 0.5, (kind, m, T)


def test_legendre_rule_is_solved_once_and_read_only():
    x, w = co._legendre_rule(10)
    assert co._legendre_rule(10)[0] is x
    want_x, want_w = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
