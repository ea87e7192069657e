import math

import numpy as np
import pytest

from narrowlab import cutoff as co
from narrowlab.errors import DomainError, UnsupportedError


def test_cosine_norm_constant_closed_form():
    spec = co.make_cutoff("cosine")
    assert spec.kind == "cosine"
    assert abs(spec.norm_constant - 2 * math.sqrt(2) / math.pi) < 1e-15


def test_bump_norm_constant_frozen():
    spec = co.make_cutoff("bump")
    assert abs(spec.norm_constant - 2.2097435943384465) < 1e-12
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


def test_factor_vector_multiplicities():
    spec = co.make_cutoff("cosine")
    distinct = co.sieve_factor_vector(spec, (0, 2))
    assert abs(distinct) < 1e-4
    paired = co.sieve_factor_vector(spec, (0, 0, 2, 2))
    assert abs(paired - 1.0) < 2e-3
    doubled = co.sieve_factor_vector(spec, (5, 5))
    assert abs(doubled - co.sieve_factor(spec, 2)) < 1e-9
    with pytest.raises(UnsupportedError):
        co.sieve_factor_vector(spec, (0, 0, 0, 0))


def test_report_fields():
    rep = co.sieve_factor_report(co.make_cutoff("cosine"), 2)
    assert rep.m == 2
    assert rep.T == co.DEFAULT_T["cosine"]
    assert rep.imag_residual < 1e-6
    assert rep.tail_estimate < 0.05


def test_bad_truncation_rejected():
    with pytest.raises(DomainError):
        co.sieve_factor_report(co.make_cutoff("cosine"), 2, T=-3.0)
    for T in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            co.sieve_factor_report(co.make_cutoff("cosine"), 1, T=T)
