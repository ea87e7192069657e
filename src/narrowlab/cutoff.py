"""Smooth truncation cutoffs, their Fourier companions, and sieve factors.

A cutoff chi is supported on [-1, 1], has chi(0) >= 1/2, and is scaled so
that the integral of chi'(t)^2 over t >= 0 equals 1.  That scaling makes
the order-2 sieve factor equal to 1, which is the calibration the rest of
the package relies on.
"""

import cmath
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UnsupportedError

KINDS = ("cosine", "bump")

DEFAULT_T = {"cosine": 200.0, "bump": 50.0}
DEFAULT_T_TRIPLE = 80.0
DEFAULT_NODES_PER_UNIT = 3.2


@dataclass(frozen=True)
class CutoffSpec:
    """A normalized cutoff: kind, scale factor, and support interval."""

    kind: str
    norm_constant: float
    support: tuple = (-1.0, 1.0)


@dataclass(frozen=True)
class SieveFactorResult:
    """Sieve factor value with its numerical diagnostics."""

    value: float
    imag_residual: float
    tail_estimate: float
    T: float
    m: int


def gauss_panels(a, b, npanels, nodes=10):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, npanels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


_BUMP_NORM = None


def _bump_norm():
    global _BUMP_NORM
    if _BUMP_NORM is None:
        xs, ws = gauss_panels(0.0, 1.0, 80, nodes=12)
        j = float(np.sum(ws * chi_deriv(CutoffSpec("bump", 1.0), xs) ** 2))
        _BUMP_NORM = 1.0 / math.sqrt(j)
    return _BUMP_NORM


def make_cutoff(kind):
    """Normalized CutoffSpec for the given kind ("cosine" or "bump")."""
    if kind == "cosine":
        return CutoffSpec(kind="cosine", norm_constant=2.0 * math.sqrt(2.0) / math.pi)
    if kind == "bump":
        return CutoffSpec(kind="bump", norm_constant=_bump_norm())
    raise DomainError(f"unknown cutoff kind {kind!r}, expected one of {KINDS}")


def chi_value(spec, x):
    """chi(x); exactly 0 outside the open support interval."""
    arr = np.asarray(x, dtype=float)
    inside = np.abs(arr) < 1.0
    safe = np.where(inside, arr, 0.0)
    if spec.kind == "cosine":
        val = spec.norm_constant * np.cos(math.pi * safe / 2.0)
    elif spec.kind == "bump":
        val = spec.norm_constant * np.exp(-1.0 / (1.0 - safe * safe))
    else:
        raise DomainError(f"unknown cutoff kind {spec.kind!r}")
    out = np.where(inside, val, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def chi_deriv(spec, x):
    """chi'(x); 0 outside the open support interval."""
    arr = np.asarray(x, dtype=float)
    inside = np.abs(arr) < 1.0
    safe = np.where(inside, arr, 0.0)
    if spec.kind == "cosine":
        val = -spec.norm_constant * (math.pi / 2.0) * np.sin(math.pi * safe / 2.0)
    elif spec.kind == "bump":
        g = np.exp(-1.0 / (1.0 - safe * safe))
        val = spec.norm_constant * g * (-2.0 * safe) / (1.0 - safe * safe) ** 2
    else:
        raise DomainError(f"unknown cutoff kind {spec.kind!r}")
    out = np.where(inside, val, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def norm_residual(spec):
    """Absolute deviation of the half-line integral of chi'^2 from 1."""
    xs, ws = gauss_panels(0.0, 1.0, 80, nodes=12)
    val = float(np.sum(ws * chi_deriv(spec, xs) ** 2))
    return abs(val - 1.0)


def _psi_array(spec, t):
    """psi on an array of frequencies, where e^x chi(x) = int psi(t) e^{-ixt} dt."""
    t = np.asarray(t, dtype=float)
    if spec.kind == "cosine":
        s = 1.0 + 1j * t
        return (spec.norm_constant / 2.0) * np.cosh(s) / (s * s + math.pi ** 2 / 4.0)
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    npanels = max(8, int(math.ceil((tmax + 8.0) / 3.0)))
    xs, ws = gauss_panels(-1.0, 1.0, npanels, nodes=10)
    base = ws * np.exp(xs) * chi_value(spec, xs)
    phase = np.exp(1j * np.outer(t, xs))
    return phase @ base.astype(complex) / (2.0 * math.pi)


def fourier_psi(spec, t):
    """psi(t), complex; arrays map elementwise and psi(-t) = conj(psi(t))."""
    if np.ndim(t) != 0:
        return _psi_array(spec, t)
    if spec.kind == "cosine":
        s = complex(1.0, float(t))
        return (spec.norm_constant / 2.0) * cmath.cosh(s) / (s * s + math.pi ** 2 / 4.0)
    return complex(_psi_array(spec, np.array([float(t)]))[0])


def _factor_grid(spec, T, nodes_per_unit):
    npanels = max(4, int(math.ceil(2.0 * T * nodes_per_unit / 10.0)))
    t, w = gauss_panels(-T, T, npanels, nodes=10)
    psi = _psi_array(spec, t)
    return t, w, psi


def _factor_integral(spec, m, T, nodes_per_unit):
    t, w, psi = _factor_grid(spec, T, nodes_per_unit)
    a = w * psi * (1.0 + 1j * t)
    if m == 1:
        return complex(np.sum(a))
    if m == 2:
        denom = 2.0 + 1j * (t[:, None] + t[None, :])
        return complex(np.sum(a[:, None] * a[None, :] / denom))
    pair = 2.0 + 1j * (t[:, None] + t[None, :])
    total = 0.0 + 0.0j
    for i in range(t.size):
        di = 2.0 + 1j * (t[i] + t)
        block = (a / di)[:, None] * (a / di)[None, :]
        num = 3.0 + 1j * (t[i] + t[:, None] + t[None, :])
        total += a[i] * np.sum(block * num / pair)
    return total


def sieve_factor_report(spec, m, T=None, nodes_per_unit=DEFAULT_NODES_PER_UNIT,
                        extrapolate=None, imag_tol=1e-5):
    """Sieve factor c_{chi,m} with truncation diagnostics.

    The m-fold oscillatory integral is truncated to [-T, T]^m.  For the
    cosine kind at m <= 2 the tail shrinks like 1/T with a stable sign,
    so a Richardson step 2 I(T) - I(T/2) removes the leading tail term.
    At m = 3 the tail oscillates in sign as T grows, which makes the
    Richardson step unreliable, so the raw value at a larger default T
    is used instead; the bump kind decays fast enough that the raw value
    is always used.  The difference of the two truncations is reported
    as an empirical tail estimate either way.
    """
    if m not in (1, 2, 3):
        raise UnsupportedError(f"sieve factor implemented for m in {{1,2,3}}, got {m}")
    if T is None:
        T = DEFAULT_T[spec.kind] if m <= 2 else DEFAULT_T_TRIPLE
    T = float(T)
    if T <= 0:
        raise DomainError(f"truncation T must be positive, got {T}")
    if extrapolate is None:
        extrapolate = spec.kind == "cosine" and m <= 2
    full = _factor_integral(spec, m, T, nodes_per_unit)
    half = _factor_integral(spec, m, T / 2.0, nodes_per_unit)
    combined = 2.0 * full - half if extrapolate else full
    tail = abs(full.real - half.real)
    residual = abs(combined.imag)
    if residual > imag_tol * max(1.0, abs(combined.real)):
        raise NumericError(
            f"imaginary residual {residual:.3e} exceeds tolerance for m={m}"
        )
    return SieveFactorResult(value=float(combined.real), imag_residual=residual,
                             tail_estimate=tail, T=T, m=m)


def sieve_factor(spec, m, T=None, nodes_per_unit=DEFAULT_NODES_PER_UNIT):
    """Sieve factor c_{chi,m} for m in {1, 2, 3}."""
    return sieve_factor_report(spec, m, T=T, nodes_per_unit=nodes_per_unit).value


_vector_cache = {}


def sieve_factor_vector(spec, h, T=None, nodes_per_unit=DEFAULT_NODES_PER_UNIT):
    """Product of c_{chi,m(v)} over the distinct values v of the shift vector h.

    m(v) is the multiplicity of v among the entries.  Multiplicities above
    3 are outside the numerical scope.
    """
    entries = tuple(getattr(h, "entries", h))
    if not entries:
        raise DomainError("shift vector must be non-empty")
    mult = Counter(entries)
    out = 1.0
    for v, m in sorted(mult.items()):
        if m > 3:
            raise UnsupportedError(
                f"multiplicity {m} of shift {v} exceeds the supported maximum 3"
            )
        key = (spec.kind, m, T, nodes_per_unit)
        if key not in _vector_cache:
            _vector_cache[key] = sieve_factor(spec, m, T=T, nodes_per_unit=nodes_per_unit)
        out *= _vector_cache[key]
    return out
