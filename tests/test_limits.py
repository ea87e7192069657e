import ast
import pathlib
import re

import numpy as np
import pytest

import oracles
from narrowlab import conditions as cd
from narrowlab import limits
from narrowlab import linforms as lf
from narrowlab.errors import ResourceError

SRC = pathlib.Path(limits.__file__).parent


def test_short_cuts_only_integers_past_20_digits():
    assert limits.short(10 ** 20 - 1) == "99999999999999999999"
    assert limits.short(10 ** 20) == "1.000e+20"
    assert limits.short(-2 * 10 ** 308) == "-2.000e+308"
    assert limits.short(10 ** 5000) == "1.000e+5000"   # past str()'s digit limit
    assert limits.short(1e308) == "1e+308"
    assert limits.short(float("inf")) == "inf"


def test_check_passes_at_the_cap_and_below_it():
    assert limits.check(16, 16, "terms") == 16
    with pytest.raises(ResourceError, match="^terms 17 is past the cap of 16$"):
        limits.check(17, 16, "terms")
    assert limits.check(2 ** 32 - 1, 2 ** 32, "limit", below=True) == 2 ** 32 - 1
    with pytest.raises(ResourceError, match="^limit 4294967296 must be below 4294967296$"):
        limits.check(2 ** 32, 2 ** 32, "limit", below=True)
    with pytest.raises(ResourceError, match="^P_max 1.000e\\+308 is past"):
        limits.check(10 ** 308, limits.MAX_PMAX, "P_max")


def test_every_cap_is_defined_in_limits_only():
    names = {name for name in vars(limits) if name.isupper()}
    pattern = re.compile(rf"^({'|'.join(sorted(names))})\s*=", re.M)
    for path in SRC.glob("*.py"):
        if path.name != "limits.py":
            assert not pattern.search(path.read_text()), path.name


def _defaults_reading_limits(source):
    """Line numbers of the function defaults in source that read a cap,
    and of the functions that take max_subspaces."""
    caps = {name for name in vars(limits) if name.isupper()}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        if "max_subspaces" in {a.arg for a in args.posonlyargs + args.args
                               + args.kwonlyargs}:
            lines.append(node.lineno)
        for default in args.defaults + [d for d in args.kw_defaults if d]:
            for sub in ast.walk(default):
                if (isinstance(sub, ast.Name) and sub.id in caps
                        or isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "limits"):
                    lines.append(sub.lineno)
    return sorted(lines)


def test_no_default_reads_a_cap():
    # A cap bound into a default when its module is imported would not see
    # a patched limits, and a keyword would make it a second knob.
    assert _defaults_reading_limits(
        "def f(x, cap=limits.MAX_SUBSPACES):\n"
        "    g = lambda *, c=MAX_TERMS: c\n"
        "def h(sys, max_subspaces=None): pass\n") == [1, 2, 3]
    for path in SRC.glob("*.py"):
        assert _defaults_reading_limits(path.read_text()) == [], path.name


def test_patched_subspace_caps_reach_every_walk(monkeypatch):
    # first(3) has 37 hyperplanes; each walk reads its own cap when it runs.
    sys = lf.first_family(3)
    walks = [lambda: lf.lindex(sys), lambda: lf.min_distinct_on_codim(sys, 1)]
    engines = [lambda: cd.random_model_deviation(sys, 0.5, 100),
               lambda: cd.width_threshold_fit(sys, (0.2, 0.1, 0.05))]
    for cap, stopped, running in (("MAX_SUBSPACES", walks, engines),
                                  ("MAX_DEVIATION_SUBSPACES", engines, walks)):
        with monkeypatch.context() as patch:
            patch.setattr(limits, cap, 10)
            for call in stopped:
                with pytest.raises(ResourceError, match="^collision hyperplanes "
                                   "11 is past the cap of 10$"):
                    call()
            for call in running:
                call()


def test_closure_walk_cap_counts_explored_subspaces(monkeypatch):
    # 15 hyperplanes and 65 codim-2 flats, then the walk goes deeper: the
    # 5 form differences have rank 4, so the nullity bound leaves codim 3
    # open.
    sys = oracles.random_system(np.random.default_rng(5), 3, 6)
    assert lf.lindex(sys).subspaces_explored == 166
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 166)
    assert lf.lindex(sys).subspaces_explored == 166
    monkeypatch.setattr(limits, "MAX_SUBSPACES", 165)
    with pytest.raises(ResourceError, match="^closure lattice: subspaces "
                       "explored 166 is past the cap of 165$"):
        lf.lindex(sys)
