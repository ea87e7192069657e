"""Argv fuzz of the command line: one hostile number in a valid run.

Each example takes a small valid command line of one of the 12
subcommands and gives one numeric option a hostile value: -1, 0, each
cap of narrowlab.limits that the option meets plus one, 2^31, 2^63,
1e308, nan or inf.  The run, in process, must exit 0, 1 or 2 with no
traceback.  After exit 1 or 2 it must have printed an error: line of at
most 300 characters and left no file in its --out directory.

numtheory.build_factor_sieve is wrapped to fail any example that asks
for a sieve limit above 10^7 that the sieve itself would accept.  Nothing
caps a valid sieve below limits.SIEVE_RANGE = 2^32: `lambda-d --N
2147483647 --D 5` would build an 8 GB factor table and a 16 GB signal.
So 2^31 is not drawn for the options that set a sieve limit directly
(sieve-build --limit, apsearch --N and --ladder).  A limit at or past
SIEVE_RANGE is refused before any allocation and passes through, and
small sieves are fine: some refusals come after one (apsearch --mode
narrowness --ladder 2 finds no 3-AP).

It needs hypothesis and is skipped without it.
"""

import contextlib
import io
import pathlib
import tempfile
import time
from unittest import mock

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    # Collect the test and skip it, so that running this file alone
    # exits 0 rather than with pytest's "no tests collected" code.
    st = mock.MagicMock()
    given = settings = lambda *_, **__: pytest.mark.skip(reason="needs hypothesis")

from narrowlab import cli, limits
from narrowlab import numtheory as nt

HOSTILE = ("-1", "0", str(2 ** 31), str(2 ** 63), "1e308", "nan", "inf")
SIEVE_LIMITS = {("sieve-build", "limit"), ("apsearch", "N"), ("apsearch", "ladder")}

# Small valid runs ({out} is the run's own directory), each with the
# numeric options fuzzed and the names of the limits caps they meet.
BASES = (
    ("sieve-build --limit 1000 --out {out}/s.bin", {"limit": ("SIEVE_RANGE",)}),
    ("lindex --family first --k 2 --out {out}/r.json",
     {"k": ("MAX_FAMILY_FORMS",)}),
    ("forms-dump --family third --k 3 --out {out}/f.txt",
     {"k": ("MAX_FAMILY_FORMS",), "j": ()}),
    ("singular --h 0,2 --out {out}/r.json",
     {"h": (), "w": ("W_FIELD_PRIME",), "P-max": ("MAX_PMAX",)}),
    ("gallagher --hi 20 --out {out}/r.json",
     {"w": ("W_FIELD_PRIME",), "lo": (), "hi": ("EXACT_CAP",),
      "t": ("MAX_BOX_DIM",), "P-max": ("MAX_PMAX",),
      "samples": ("MAX_SAMPLE_ENTRIES",), "seed": (), "C": ()}),
    ("gallagher --weight E --hi 20 --out {out}/r.json",
     {"hi": ("MAX_DELTA",), "C": (), "samples": ("MAX_SAMPLE_ENTRIES",)}),
    ("cutoff-check --m 1 --out {out}/r.json",
     {"m": (), "T": ("MAX_QUADRATURE_ENTRIES",)}),
    ("majorant --N 10007 --out {out}/w.bin",
     {"N": ("SIEVE_RANGE",), "w": ("W_FIELD_PRIME",), "b": (), "R-exp": ()}),
    ("correlate --table {table} --h 2 --out {out}/r.csv",
     {"h": (), "P-max": ("MAX_PMAX",)}),
    ("lfc --family first --k 2 --samples 1000 --out {out}/r.json",
     {"k": ("MAX_FAMILY_FORMS",), "N": (), "S": ("INT64_RANGE",),
      "samples": ("MAX_MC_SAMPLES",), "seed": (), "workers": ()}),
    ("lfc --family first --k 2 --model random --N 101 --samples 1000 "
     "--out {out}/r.json",
     {"alpha": (), "model-seed": (), "N": ("MAX_RANDOM_MODULUS",)}),
    ("threshold --family first --k 2 --out {out}/r.csv",
     {"k": ("MAX_FAMILY_FORMS",), "alphas": (), "target": ()}),
    ("lambda-d --N 1009 --D 5 --out {out}/r.json",
     {"N": ("SIEVE_RANGE",), "k": ("MAX_TERMS",), "D": ()}),
    ("apsearch --mode count --N 1000 --out {out}/r.csv",
     {"N": ("SIEVE_RANGE",), "k": ("MAX_TERMS",), "d": ("SIEVE_RANGE",),
      "P-max": ("MAX_PMAX",)}),
    ("apsearch --mode narrowness --ladder 1000 --rule-mod 4 --rule-classes 1 "
     "--out {out}/r.csv",
     {"ladder": ("SIEVE_RANGE",), "k": ("MAX_TERMS",), "delta": (),
      "rule-mod": ("SIEVE_RANGE",)}),
)


def _values(command, option, caps):
    values = HOSTILE + tuple(str(getattr(limits, cap) + 1) for cap in caps)
    if (command, option) in SIEVE_LIMITS:
        values = tuple(v for v in values if v != str(2 ** 31))
    return values


CASES = tuple((base, option, value)
              for base, options in BASES
              for option, caps in options.items()
              for value in _values(base.split()[0], option, caps))


def _with_option(argv, option, value):
    """argv with --option set to value, replacing or appending it."""
    flag = f"--{option}"
    if flag in argv:
        i = argv.index(flag)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + [flag, value]


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "w.bin"
    assert cli.main(["majorant", "--N", "10007", "--out", str(path)]) == 0
    return path


def test_cases_cover_every_subcommand():
    assert {base.split()[0] for base, _, _ in CASES} == set(cli._SPECS)


@given(case=st.sampled_from(CASES))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_hostile_option_values(table, case):
    base, option, value = case
    build = nt.build_factor_sieve

    def guarded(limit):
        assert not 10 ** 7 < limit < limits.SIEVE_RANGE, f"sieve of {limit}"
        return build(limit)

    with tempfile.TemporaryDirectory() as out:
        argv = _with_option(base.format(out=out, table=table).split(),
                            option, value)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with (mock.patch.object(nt, "build_factor_sieve", guarded),
              contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        err = stderr.getvalue()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert elapsed < 5.0, argv
        if code:
            lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
            assert lines and all(len(ln) <= 300 for ln in lines), (argv, err)
            assert list(pathlib.Path(out).iterdir()) == [], argv
