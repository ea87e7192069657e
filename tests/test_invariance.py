"""Metamorphic tests: the collision index and the random-model deviation stay
put under maps of the forms and of the coordinates, on the benchmark's
systems.  They need no oracle."""

import numpy as np
import pytest

from narrowlab import conditions as cd
from narrowlab import linforms as lf
from narrowlab.errors import DomainError


def _mapped(sys, coeffs, constant):
    """The forms x -> coeffs(f) . x + constant(f), in the order of sys."""
    return lf.LinearSystem(d=sys.d, forms=tuple(
        lf.LinearForm(coeffs=coeffs(f), constant=constant(f)) for f in sys.forms))


def _permuted(rng, sys):
    return lf.LinearSystem(d=sys.d, forms=tuple(sys.forms[i] for i in rng.permutation(sys.t)))


def _negated(sys):
    return _mapped(sys, lambda f: [-a for a in f.coeffs], lambda f: -f.constant)


def _unimodular(rng, d):
    """A product of 3d elementary moves x_i += +-x_j, an element of GL_d(Z)."""
    M = np.eye(d, dtype=np.int64)
    for _ in range(3 * d):
        i, j = rng.choice(d, size=2, replace=False)
        M[i] += rng.choice((-1, 1)) * M[j]
    return M.tolist()


def _images(rng, sys):
    """The system under each map that keeps lindex's value and codim, by name."""
    d = sys.d
    M = _unimodular(rng, d)
    v = rng.integers(-3, 4, size=d).tolist()
    return {
        "form permutation": _permuted(rng, sys),
        "x -> Mx + v": _mapped(
            sys, lambda f: [sum(a * M[i][k] for i, a in enumerate(f.coeffs)) for k in range(d)],
            lambda f: sum(a * x for a, x in zip(f.coeffs, v)) + f.constant),
        "negation": _negated(sys),
        "constants + 5": _mapped(sys, lambda f: f.coeffs, lambda f: f.constant + 5),
        # A rational map keeps the rational index only: once lindex counts
        # integer points (ROADMAP item 1), x -> 2x moves into the integer
        # brute-force differential.
        "x -> 2x": _mapped(sys, lambda f: [2 * a for a in f.coeffs], lambda f: f.constant),
    }


def test_lindex_is_invariant_under_form_and_coordinate_maps(benchmark_systems):
    rng = np.random.default_rng(2)
    for i, sys in enumerate(benchmark_systems):
        res = lf.lindex(sys)
        for name, image in _images(rng, sys).items():
            got = lf.lindex(image)
            assert (got.value, got.codim) == (res.value, res.codim), (i, name)


def _deviation(sys):
    try:
        return cd.random_model_deviation(sys, 0.3, 11).total
    except DomainError:   # no collision hyperplane holds integer points
        return None


def test_deviation_is_invariant_under_the_box_symmetries(benchmark_systems):
    # Signed coordinate permutations map the box [-S, S]^d to itself, and
    # negating every form keeps every collision row, so the total is the
    # same float.  A form permutation reorders the terms, and their sum
    # moves by rounding only.
    rng = np.random.default_rng(3)
    checked = 0
    for i, sys in enumerate(benchmark_systems):
        want = _deviation(sys)
        perm, signs = rng.permutation(sys.d).tolist(), rng.choice((-1, 1), size=sys.d).tolist()
        signed = _mapped(sys, lambda f: [s * f.coeffs[p] for p, s in zip(perm, signs)],
                         lambda f: f.constant)
        assert _deviation(signed) == want and _deviation(_negated(sys)) == want, i
        got = _deviation(_permuted(rng, sys))
        if want is None:
            assert got is None, i
            continue
        assert got == pytest.approx(want, rel=1e-14, abs=0), i
        checked += 1
    assert checked > 100
