"""Smooth truncation cutoffs, their Fourier companions, and sieve factors.

A cutoff chi is supported on [-1, 1], has chi(0) >= 1/2, and is scaled so
that the integral of chi'(t)^2 over t >= 0 equals 1.  That scaling makes
the order-2 sieve factor equal to 1, which is the calibration the rest of
the package relies on.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import DomainError, NumericError, UnsupportedError

KINDS = ("cosine", "bump")

DEFAULT_T = {"cosine": 200.0, "bump": 50.0}
DEFAULT_T_TRIPLE = 80.0
DEFAULT_NODES_PER_UNIT = 3.2
IMAG_TOL = 1e-5


@dataclass(frozen=True)
class CutoffSpec:
    """A normalized cutoff, supported on [-1, 1]: kind and scale factor."""

    kind: str
    norm_constant: float


@dataclass(frozen=True)
class SieveFactorResult:
    """Sieve factor value with its numerical diagnostics."""

    value: float
    imag_residual: float
    tail_estimate: float
    T: float
    m: int


@functools.cache
def _legendre_rule(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per node count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panels(a, b, npanels, nodes=10):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _legendre_rule(nodes)
    edges = np.linspace(a, b, npanels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    xs = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


def _deriv_energy(spec):
    """Integral of chi'(t)^2 over [0, 1]."""
    xs, ws = gauss_panels(0.0, 1.0, 80, nodes=12)
    return float(np.sum(ws * chi_deriv(spec, xs) ** 2))


def make_cutoff(kind):
    """Normalized CutoffSpec for the given kind ("cosine" or "bump")."""
    if kind == "cosine":
        return CutoffSpec(kind="cosine", norm_constant=2.0 * math.sqrt(2.0) / math.pi)
    if kind == "bump":
        unit = CutoffSpec(kind="bump", norm_constant=1.0)
        return CutoffSpec(kind="bump", norm_constant=1.0 / math.sqrt(_deriv_energy(unit)))
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
    return abs(_deriv_energy(spec) - 1.0)


def fourier_psi(spec, t):
    """psi(t), complex, where e^x chi(x) = int psi(t) e^{-ixt} dt.

    Arrays map elementwise, a scalar gives a complex, and psi(-t) = conj(psi(t)).
    """
    arr = np.asarray(t, dtype=float)
    if spec.kind == "cosine":
        s = 1.0 + 1j * arr
        psi = (spec.norm_constant / 2.0) * np.cosh(s) / (s * s + math.pi ** 2 / 4.0)
    else:
        tmax = float(np.max(np.abs(arr))) if arr.size else 0.0
        npanels = max(8, int(math.ceil((tmax + 8.0) / 3.0)))
        xs, ws = gauss_panels(-1.0, 1.0, npanels, nodes=10)
        base = ws * np.exp(xs) * chi_value(spec, xs)
        psi = np.exp(1j * np.multiply.outer(arr, xs)) @ base.astype(complex) / (2.0 * math.pi)
    return complex(psi) if psi.ndim == 0 else psi


def _panel_count(spec, m, T):
    """Gauss-Legendre panels of 10 nodes on [-T, T], capped before any allocation.

    The largest array has n entries for the cosine kind at m = 1, where
    psi is elementwise, and is counted as n^2 otherwise: the pair kernel
    at m >= 2 is n x n, and the bump kind's Fourier matrix about n x n/2.
    Past limits.MAX_QUADRATURE_ENTRIES this raises ResourceError.
    """
    panels = 2.0 * T * DEFAULT_NODES_PER_UNIT / 10.0   # inf once 2T overflows
    npanels = max(4, math.ceil(panels)) if panels < math.inf else panels
    n = 10 * npanels
    entries = n if m == 1 and spec.kind == "cosine" else n * n
    limits.check(entries, limits.MAX_QUADRATURE_ENTRIES,
                 f"array entries of the quadrature nodes at m={m}, T={T}:")
    return npanels


def _factor_integral(spec, m, T):
    """The m-fold oscillatory integral on [-T, T]^m, by Gauss-Legendre panels.

    With a_j = w_j psi(t_j) (1 + i t_j) and P_jl = 1 / (2 + i (t_j + t_l)),
    m = 2 is sum a_j a_l P_jl.  For m = 3 the identity
    (3 + i (t_i + t_j + t_l)) P_jl = 1 + (1 + i t_i) P_jl splits
    sum a_i a_j a_l P_ij P_il (3 + i (t_i + t_j + t_l)) P_jl into the row
    sums of V and of (V P) * V, where V_ij = a_j P_ij.
    """
    npanels = _panel_count(spec, m, T)
    t, w = gauss_panels(-T, T, npanels, nodes=10)
    a = w * fourier_psi(spec, t) * (1.0 + 1j * t)
    if m == 1:
        return complex(np.sum(a))
    pair = 2.0 + 1j * (t[:, None] + t[None, :])
    if m == 2:
        return complex(np.sum(a[:, None] * a[None, :] / pair))
    P = 1.0 / pair
    V = a[None, :] * P
    return complex(np.sum(a * (V.sum(1) ** 2 + (1.0 + 1j * t) * ((V @ P) * V).sum(1))))


def factor_truncation(spec, m, T=None):
    """The truncation T of sieve_factor_report(spec, m, T), checked before any work.

    Raises UnsupportedError for m outside {1, 2, 3}, DomainError for a T
    that is not positive and finite, and ResourceError when the
    quadrature at T, which needs more entries than at T/2, would pass
    limits.MAX_QUADRATURE_ENTRIES.
    """
    if m not in (1, 2, 3):
        raise UnsupportedError(f"sieve factor implemented for m in {{1,2,3}}, got {m}")
    if T is None:
        T = DEFAULT_T[spec.kind] if m <= 2 else DEFAULT_T_TRIPLE
    T = float(T)
    if not (math.isfinite(T) and T > 0):
        raise DomainError(f"truncation T must be positive and finite, got {T}")
    _panel_count(spec, m, T)
    return T


def sieve_factor_report(spec, m, T=None):
    """Sieve factor c_{chi,m} with truncation diagnostics.

    The m-fold oscillatory integral is truncated to [-T, T]^m.  For the
    cosine kind at m <= 2 the tail shrinks like 1/T with a stable sign,
    so a Richardson step 2 I(T) - I(T/2) removes the leading tail term.
    At m = 3 the tail oscillates in sign as T grows, which makes the
    Richardson step unreliable, so the raw value at a larger default T
    is used instead; the bump kind decays fast enough that the raw value
    is always used.  The difference of the two truncations is reported
    as an empirical tail estimate either way.  An imaginary part above
    IMAG_TOL relative to the value raises NumericError.
    """
    T = factor_truncation(spec, m, T)
    extrapolate = spec.kind == "cosine" and m <= 2
    full = _factor_integral(spec, m, T)
    half = _factor_integral(spec, m, T / 2.0)
    combined = 2.0 * full - half if extrapolate else full
    tail = abs(full.real - half.real)
    residual = abs(combined.imag)
    if residual > IMAG_TOL * max(1.0, abs(combined.real)):
        raise NumericError(
            f"imaginary residual {residual:.3e} exceeds tolerance for m={m}"
        )
    return SieveFactorResult(value=float(combined.real), imag_residual=residual,
                             tail_estimate=tail, T=T, m=m)


def sieve_factor(spec, m, T=None):
    """Sieve factor c_{chi,m} for m in {1, 2, 3}."""
    return sieve_factor_report(spec, m, T=T).value
