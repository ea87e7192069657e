import json
import math
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from narrowlab import __version__, cli
from narrowlab import linforms as lf
from narrowlab import numtheory as nt
from narrowlab import singular as sg
from test_majorant import _hostile_headers


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_sieve(monkeypatch):
    """Fail the test if the run builds or loads a factor sieve."""
    def forbidden(*args):
        raise AssertionError("a rejected run reached the sieve")
    monkeypatch.setattr(nt, "build_factor_sieve", forbidden)
    monkeypatch.setattr(nt, "load_sieve", forbidden)


def test_version_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "narrowlab" in out


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "lindex", "--bogus", "3")
    assert code == 2


def test_wall_time_is_last_stdout_line(capsys):
    code, out, _ = run(capsys, "lindex", "--family", "first", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("wall time:")
    assert "L = 1" in lines[0]


def test_sieve_build_and_reload(capsys, tmp_path):
    out = tmp_path / "sieve.bin"
    code, text, _ = run(capsys, "sieve-build", "--limit", "10000",
                        "--out", str(out))
    assert code == 0
    assert "1229 primes" in text
    sieve = nt.load_sieve(str(out))
    assert sieve.limit == 10000


def test_lindex_json_and_file_input(capsys, tmp_path):
    forms_path = tmp_path / "forms.txt"
    code, _, _ = run(capsys, "forms-dump", "--family", "first", "--k", "3",
                     "--out", str(forms_path))
    assert code == 0
    out_path = tmp_path / "lindex.json"
    code, text, _ = run(capsys, "lindex", "--file", str(forms_path),
                        "--out", str(out_path))
    assert code == 0
    assert "L = 4" in text
    payload = json.loads(out_path.read_text())
    assert payload["result"]["L"] == "4/1"
    assert payload["meta"]["command"] == "lindex"
    atoms = payload["result"]["witness_atoms"]
    pi = lf.FormPartition(atoms=tuple(tuple(a) for a in atoms))
    assert lf.codim_of_partition(lf.first_family(3), pi) == payload["result"]["codim"]


def test_forms_dump_stdout_roundtrips(capsys):
    code, out, _ = run(capsys, "forms-dump", "--family", "second", "--k", "2")
    assert code == 0
    body = out.rsplit("wall time:", 1)[0]
    assert lf.parse_system(body) == lf.second_family(2)


def test_singular_json_values(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, text, _ = run(capsys, "singular", "--h", "0,2",
                        "--P-max", "1e5", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    want = sg.singular_series((0, 2), P_max=10 ** 5).value
    assert payload["result"]["value"] == pytest.approx(want, rel=1e-15)
    assert payload["result"]["W"] == 1
    code2, text2, _ = run(capsys, "singular", "--h", "0,6",
                          "--P-max", "1e5")
    assert code2 == 0
    assert f"{2 * want:.6f}"[:6] in text2


def test_json_reports_are_byte_identical(capsys, tmp_path):
    out = tmp_path / "g.json"
    assert run(capsys, "singular", "--h", "0,2", "--out", str(out))[0] == 0
    first = out.read_bytes()
    assert run(capsys, "singular", "--h", "0,2", "--out", str(out))[0] == 0
    assert out.read_bytes() == first


def test_config_file_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nh=0,2\nP-max=1e5\n")
    out1 = tmp_path / "a.json"
    code, _, _ = run(capsys, "singular", "--config", str(cfg),
                     "--out", str(out1))
    assert code == 0
    assert json.loads(out1.read_text())["meta"]["config"]["h"] == "0,2"
    out2 = tmp_path / "b.json"
    code, _, _ = run(capsys, "singular", "--config", str(cfg),
                     "--h", "0,6", "--out", str(out2))
    assert code == 0
    payload = json.loads(out2.read_text())
    assert payload["meta"]["config"]["h"] == "0,6"
    want = sg.singular_series((0, 6), P_max=10 ** 5).value
    assert payload["result"]["value"] == pytest.approx(want, rel=1e-15)


def test_non_integer_flag_value_is_usage_error(capsys):
    code, _, err = run(capsys, "singular", "--h", "0,notanumber")
    assert code == 2
    assert "invalid value" in err
    assert "--h" in err


def test_non_finite_count_is_usage_error(capsys):
    for value in ("1e400", "inf", "-inf"):
        code, _, err = run(capsys, "sieve-build", f"--limit={value}")
        assert code == 2
        assert "invalid value" in err and "--limit" in err


def test_overflowing_reference_width_is_usage_error(capsys):
    for argv in (("lambda-d", "--N", "10007", "--k", "40"),
                 ("apsearch", "--mode", "narrowness", "--ladder", "1e5",
                  "--k", "40")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err and "overflows" in err


@pytest.mark.parametrize("k", ["20000", "2147483648"])
def test_huge_k_reference_width_is_usage_error(capsys, no_sieve, k):
    for argv in (("lambda-d", "--N", "1009", "--k", k),
                 ("apsearch", "--mode", "narrowness", "--ladder", "1000",
                  "--k", k)):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert err.startswith("error:") and len(err) < 100


def test_negative_seeds_are_usage_errors(capsys):
    for argv in (("--seed", "-1"), ("--model", "random", "--model-seed", "-1")):
        code, _, err = run(capsys, "lfc", "--family", "first", "--k", "2", *argv)
        assert code == 2
        assert "error:" in err and "seed must be >= 0" in err


def test_gallagher_negative_seed_is_usage_error(capsys):
    for argv in (("--samples", "100", "--seed", "-1"), ("--seed", "-1")):
        code, _, err = run(capsys, "gallagher", *argv)
        assert code == 2
        assert "error:" in err and "seed must be >= 0" in err


def test_lambda_d_overflow_message_is_short(capsys, no_sieve):
    code, _, err = run(capsys, "lambda-d", "--N", "1009", "--k", "1016")
    assert code == 2
    assert err.startswith("error:") and len(err) < 80


def test_lfc_coefficient_past_int64_is_a_resource_error(capsys, tmp_path):
    forms = tmp_path / "forms.txt"
    forms.write_text(f"0; {2 ** 63} 1\n1; 1 2\n")
    code, _, err = run(capsys, "lfc", "--file", str(forms))
    assert code == 1
    assert err.startswith("error:") and "int64" in err


def test_lfc_width_past_int64_is_a_resource_error(capsys):
    code, _, err = run(capsys, "lfc", "--family", "first", "--k", "2",
                       "--S", str(2 ** 63))
    assert code == 1
    assert "error:" in err and "int64" in err


def test_reference_width_below_two_is_usage_error(capsys):
    for argv in (("apsearch", "--mode", "narrowness", "--ladder", "0"),
                 ("apsearch", "--mode", "narrowness", "--ladder", "1e5,-3"),
                 ("lambda-d", "--N", "0", "--k", "3")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err and "needs N > 1" in err


def test_non_finite_truncation_is_usage_error(capsys):
    for value in ("inf", "nan"):
        code, _, err = run(capsys, "cutoff-check", "--T", value, "--m", "1")
        assert code == 2
        assert "error:" in err and "finite" in err


def test_non_numeric_config_value_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("P-max=soon\n")
    code, _, err = run(capsys, "singular", "--config", str(cfg))
    assert code == 2
    assert "invalid value" in err


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("hh=0,2\n")
    code, _, err = run(capsys, "singular", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_config_rejects_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    code, _, err = run(capsys, "singular", "--config", str(cfg))
    assert code == 2


def test_missing_required_option(capsys):
    code, _, err = run(capsys, "majorant", "--out", "x.bin")
    assert code == 2
    assert "--N" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "lambda-d", "--N", "10008", "--D", "10")
    assert code == 2
    assert "error:" in err and "prime" in err
    code, _, err = run(capsys, "gallagher", "--t", "0")
    assert code == 2
    assert "error: box needs at least one coordinate" in err
    # L_4 = 12, and ceil((log 10007)^12) is far above N' = 10007.
    code, _, err = run(capsys, "lambda-d", "--N", "10007", "--k", "4")
    assert code == 2
    assert ("error: default D = ceil((log N')^12) = 372995928559 is not "
            "below N' = 10007; pass --D") in err


def test_lambda_d_smallest_modulus_is_zero(capsys, tmp_path):
    out = tmp_path / "lam.json"
    code, _, _ = run(capsys, "lambda-d", "--N", "2", "--k", "3",
                     "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["result"]["value"] == 0.0


def test_lambda_d_term_cap_exits_1_before_the_sieve(capsys, no_sieve,
                                                   tmp_path):
    out = tmp_path / "lam.json"
    code, _, err = run(capsys, "lambda-d", "--N", "1009", "--k", "2147483648",
                       "--D", "5", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "cap of 16" in err
    assert not out.exists()


def test_lambda_d_composite_modulus_builds_no_sieve(capsys, no_sieve):
    code, _, err = run(capsys, "lambda-d", "--N", "10", "--k", "3")
    assert code == 2
    assert "error:" in err and "must be prime" in err


@pytest.mark.parametrize("target", ["nan", "inf", "0", "-1"])
def test_threshold_bad_target_is_usage_error(capsys, target):
    code, _, err = run(capsys, "threshold", "--family", "second", "--k", "2",
                       f"--target={target}")
    assert code == 2
    assert "error:" in err and "target" in err


def test_resource_error_exit_code(capsys):
    code, _, err = run(capsys, "gallagher", "--weight", "E",
                       "--hi", "2000", "--t", "3")
    assert code == 1
    assert "sample" in err


@pytest.mark.parametrize("w", ["53", "2147483648"])
def test_majorant_w_past_the_table_field_exits_1_before_the_sieve(
        capsys, no_sieve, tmp_path, w):
    out = tmp_path / "w.bin"
    start = time.perf_counter()
    code, _, err = run(capsys, "majorant", "--N", "10007", "--w", w,
                       "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:") and "primorial(47)" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "singular --h 0,2 --w 2147483648",
    "gallagher --w 2147483648",
    "cutoff-check --T 2147483648 --m 1",
    "apsearch --mode narrowness --rule-mod 4294967296 --rule-classes 1",
    "gallagher --t 2147483648",
    "gallagher --samples 2147483648",
    "gallagher --weight E --lo 1 --hi 1000000000000000000 --t 2 --samples 100",
    "singular --h 0,2 --P-max 2147483648",
    "gallagher --P-max 2147483648",
    "apsearch --mode count --P-max 2147483648",
    "lfc --family first --k 2 --samples 2147483648",
    "lfc --family first --k 2 --workers 2147483648",
])
def test_size_caps_exit_1_before_any_work(capsys, no_sieve, tmp_path, argv):
    out = tmp_path / "report.out"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv.split(), "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "sieve-build --limit 2147483648",
    "apsearch --mode count --N 2147483648",
    "lambda-d --N 2147483647 --D 5",
])
def test_sieve_cap_exits_1_before_the_table(capsys, tmp_path, argv):
    # Each asks for a valid sieve past limits.MAX_SIEVE_LIMIT, 8 GB of
    # uint32; it is refused before the table is allocated.
    out = tmp_path / "report.out"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv.split(), "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert code == 1
    assert err.startswith("error: sieve limit") and "past the cap of 1000000000" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "lindex --family first --k 13",     # 53,248 forms
    "threshold --family first --k 5",   # 2,057 hyperplanes, 1,825,922 flats
])
def test_subspace_caps_exit_1_naming_the_cap(capsys, tmp_path, argv):
    out = tmp_path / "report.out"
    code, _, err = run(capsys, *argv.split(), "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "past the cap of" in err
    assert "max_subspaces" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, forms", [
    # A row with coefficients 1, 10^8, 10^8 + 1 needs 400,000,006 entries
    # at S = 2, the fit's first width.
    ("threshold", "0; 0 0 0\n0; 1 100000000 100000001\n"),
    # 1,024 forms times 10^5 samples in one batch.
    ("lfc --family first --k 8 --model random --alpha 0.5", None),
])
def test_array_cap_exits_1_before_the_array(capsys, tmp_path, argv, forms):
    argv = argv.split()
    if forms is not None:
        path = tmp_path / "wide.forms"
        path.write_text(forms)
        argv += ["--file", str(path)]
    out = tmp_path / "report.out"
    np.random.default_rng()   # numpy imports its random module on first use
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv, "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert code == 1
    assert err.startswith("error:") and "past the cap of 67108864" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, want", [
    ("majorant --N 10007 --R-exp 2147483648", 2),
    ("cutoff-check --m 1 --T 1e308", 1),
    ("gallagher --weight E --C 1e300 --hi 20", 1),
    ("gallagher --weight E --C inf --hi 20", 2),
    ("gallagher --weight E --C nan --hi 20", 2),
    ("threshold --family second --k 2 --alphas 1e-320,0.1,0.2", 1),
])
def test_float_overflows_end_in_an_error_line(capsys, tmp_path, argv, want):
    # Each of these once ended in an OverflowError traceback or, for a
    # non-finite C, printed mean = nan with exit 0.
    code, _, err = run(capsys, *argv.split(), "--out", str(tmp_path / "r.out"))
    assert code == want
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "lambda-d --N 1e308 --D 5",
    "lambda-d --N 1009 --D 1e308",
    "majorant --N 1e308",
    "singular --h 0,2 --P-max 1e308",
])
def test_huge_counts_are_shortened_in_error_lines(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv.split(), "--out", str(tmp_path / "r.out"))
    assert code in (1, 2)
    assert err.startswith("error:") and "1.000e+308" in err and len(err) < 100


def test_cutoff_check_caps_every_order_before_the_first_factor(capsys, tmp_path):
    out = tmp_path / "cut.json"
    start = time.perf_counter()
    code, text, err = run(capsys, "cutoff-check", "--m", "1,2", "--T", "2000",
                          "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:") and "at m=2" in err
    assert "c_{chi," not in text
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "singular --h 0,1000000007,2000000014",
    "apsearch --mode count --N 10 --k 3 --d 1000000014000000049",
])
def test_huge_discriminant_prime_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == ("error: P_max=100000 is below the largest prime factor "
                   "1000000007 of the discriminant\n")


def test_rule_modulus_2_31_returns_within_a_second(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "apsearch", "--mode", "narrowness",
                       "--rule-mod", "2147483648", "--rule-classes", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:") and "prime subset empty" in err


def test_correlate_rejects_headers_no_build_writes(capsys, tmp_path):
    good = tmp_path / "good.bin"
    assert run(capsys, "majorant", "--N", "10007", "--out", str(good))[0] == 0
    bad = tmp_path / "bad.bin"
    for name, blob in _hostile_headers(good.read_bytes()).items():
        bad.write_bytes(blob)
        code, _, err = run(capsys, "correlate", "--table", str(bad),
                           "--h", "6", "--out", str(tmp_path / "c.csv"))
        assert code == 2, name
        assert err.startswith("error:") and "majorant header" in err, name
        assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.bin", "good.bin"]


def test_count_k_past_p_max_exits_2_before_the_sieve(capsys, no_sieve, tmp_path):
    out = tmp_path / "count.csv"
    start = time.perf_counter()
    code, _, err = run(capsys, "apsearch", "--mode", "count",
                       "--k", "2147483648", "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:") and "must be at least k=2147483648" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["lindex", "forms-dump", "lfc",
                                     "threshold"])
def test_huge_family_is_rejected_before_building(capsys, tmp_path, command):
    out = tmp_path / "report"
    start = time.perf_counter()
    code, _, err = run(capsys, command, "--family", "first",
                       "--k", "2147483648", "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_threshold_without_integer_hyperplanes_exit_code(capsys, tmp_path):
    forms_path = tmp_path / "forms.txt"
    forms_path.write_text("0; 2\n1; 0\n")
    code, _, err = run(capsys, "threshold", "--file", str(forms_path))
    assert code == 2
    assert "error:" in err and "hyperplane" in err


def test_gallagher_exact_small_box(capsys, tmp_path):
    out = tmp_path / "gal.json"
    code, text, _ = run(capsys, "gallagher", "--lo", "1", "--hi", "20",
                        "--t", "2", "--w", "3", "--P-max", "1000",
                        "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["mode"] == "exact"
    assert payload["result"]["n_points"] == 400
    assert 0.5 < payload["result"]["mean"] < 1.5


def test_cutoff_check_json(capsys, tmp_path):
    out = tmp_path / "cut.json"
    code, text, _ = run(capsys, "cutoff-check", "--chi", "cosine",
                        "--m", "1,2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    factors = payload["result"]["factors"]
    assert abs(factors["2"]["value"] - 1.0) < 1e-3
    assert abs(factors["1"]["value"]) < 5e-3
    assert payload["result"]["norm_residual"] < 1e-9


def test_majorant_correlate_chain(capsys, tmp_path):
    sieve_path = tmp_path / "s.bin"
    assert run(capsys, "sieve-build", "--limit", "60050",
               "--out", str(sieve_path))[0] == 0
    table_path = tmp_path / "tab.bin"
    code, text, _ = run(capsys, "majorant", "--N", "10007",
                        "--sieve", str(sieve_path), "--out", str(table_path))
    assert code == 0
    assert "floor violations = 0" in text
    csv_path = tmp_path / "corr.csv"
    code, text, _ = run(capsys, "correlate", "--table", str(table_path),
                        "--h", "2,6", "--P-max", "1e4",
                        "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")]
    assert header[0] == "h,empirical,predicted,ratio"
    assert len(header) == 3
    first_bytes = csv_path.read_bytes()
    assert run(capsys, "correlate", "--table", str(table_path),
               "--h", "2,6", "--P-max", "1e4", "--out", str(csv_path))[0] == 0
    assert csv_path.read_bytes() == first_bytes


def test_lfc_constant_model(capsys, tmp_path):
    out = tmp_path / "lfc.json"
    code, text, _ = run(capsys, "lfc", "--family", "first", "--k", "2",
                        "--model", "one", "--samples", "2000",
                        "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["estimate"] == 1.0
    assert payload["result"]["stderr"] == 0.0


def test_threshold_csv(capsys, tmp_path):
    out = tmp_path / "thr.csv"
    code, text, _ = run(capsys, "threshold", "--family", "third", "--k", "3",
                        "--j", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    slope_lines = [ln for ln in lines if ln.startswith("# slope:")]
    assert len(slope_lines) == 1
    assert float(slope_lines[0].split(":")[1]) == pytest.approx(2.0158, abs=1e-3)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "alpha,S_star,dominant_codim,dominant_ratio,deviation"
    assert len(body) == 4
    assert body[1].split(",")[3] == "2/1"


def test_threshold_first4_default_alphas(capsys, tmp_path):
    # S* passes 2^40 at alpha = 0.05; the summary prints it in 6 digits.
    out = tmp_path / "f4.csv"
    code, text, _ = run(capsys, "threshold", "--family", "first", "--k", "4",
                        "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    slope = [float(ln.split(":")[1]) for ln in lines if ln.startswith("# slope:")]
    assert slope == [pytest.approx(12, abs=0.01)]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert [row[3] for row in body] == ["12/1"] * 3
    printed = [ln.split("S* = ")[1].split(",")[0] for ln in text.splitlines() if "S* =" in ln]
    assert printed == [f"{float(row[1]):.6g}" for row in body]
    assert float(body[-1][1]) > 2 ** 40


def test_threshold_repeated_alphas_is_usage_error(capsys):
    code, _, err = run(capsys, "threshold", "--family", "third", "--k", "3",
                       "--alphas", "0.3,0.3,0.3")
    assert code == 2
    assert "error:" in err and "distinct" in err


def test_lambda_d_json(capsys, tmp_path):
    out = tmp_path / "lam.json"
    code, text, _ = run(capsys, "lambda-d", "--N", "10007",
                        "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["D"] == math.ceil(math.log(10007) ** 4)
    assert payload["result"]["value"] > 0.0


def test_apsearch_count_mode(capsys, tmp_path):
    out = tmp_path / "count.csv"
    code, text, _ = run(capsys, "apsearch", "--mode", "count",
                        "--N", "1e5", "--k", "3", "--d", "6",
                        "--out", str(out))
    assert code == 0
    body = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "N,k,d,count,prediction,ratio"
    row = body[1].split(",")
    assert int(row[3]) > 0
    assert 0.8 < float(row[5]) < 1.2


def test_apsearch_narrowness_mode(capsys, tmp_path):
    out = tmp_path / "narrow.csv"
    code, text, _ = run(capsys, "apsearch", "--mode", "narrowness",
                        "--ladder", "1e5", "--k", "3", "--out", str(out))
    assert code == 0
    body = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0].startswith("N,min_d,median_d")
    row = body[1].split(",")
    assert int(row[0]) == 10 ** 5
    assert int(row[1]) >= 1
    assert float(row[1]) <= float(row[4])


def test_apsearch_rule_requires_classes(capsys):
    code, _, err = run(capsys, "apsearch", "--mode", "narrowness",
                       "--ladder", "1e5", "--rule-mod", "3")
    assert code == 2
    assert "rule-classes" in err


# ------------------------------------------------------------ report format

REPORTS = pathlib.Path(__file__).resolve().parent / "data" / "reports"


@pytest.fixture
def report_dir(tmp_path, monkeypatch):
    """A working directory, so the --out paths in each report's meta are relative."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name, setup, argv", [
    ("lindex_family.json", (), "lindex --family first --k 3"),
    ("lindex_file.json",
     ("forms-dump --family third --k 3 --j 1 --out system.txt",),
     "lindex --file system.txt"),
    ("threshold.csv", (), "threshold --family third --k 3 --j 1"),
    ("apsearch_count.csv", (), "apsearch --mode count --N 1e5 --k 3 --d 6"),
    ("apsearch_narrowness.csv", (),
     "apsearch --mode narrowness --ladder 1e5 --k 3"),
    ("correlate.csv", ("sieve-build --limit 60050 --out sieve.bin",
                       "majorant --N 10007 --sieve sieve.bin --out table.bin"),
     "correlate --table table.bin --h 2,6 --P-max 1e4"),
    ("correlate_empty.csv", ("sieve-build --limit 60050 --out sieve.bin",
                             "majorant --N 10007 --sieve sieve.bin "
                             "--out table.bin"),
     "correlate --table table.bin --h ,"),
])
def test_report_bytes_are_pinned(capsys, report_dir, name, setup, argv):
    # The pinned reports print floats to 12 significant digits, which do
    # not vary across platforms, so any byte change is a format change.
    for step in setup:
        assert run(capsys, *step.split())[0] == 0
    assert run(capsys, *argv.split(), "--out", name)[0] == 0
    assert (report_dir / name).read_bytes() == (REPORTS / name).read_bytes()


_JSON_META = {
    "singular": ("singular --h 0,2 --P-max 1e5",
                 {"P-max": "100000", "h": "0,2", "w": "1"},
                 ["P_max", "W", "tail_bound", "value"]),
    "gallagher": ("gallagher --lo 1 --hi 20 --t 2 --w 3 --P-max 1000",
                  {"C": "1.0", "P-max": "1000", "hi": "20", "lo": "1",
                   "samples": "None", "seed": "0", "t": "2", "w": "3",
                   "weight": "GW"},
                  ["abs_dev", "mean", "mode", "n_points", "stderr"]),
    "lfc": ("lfc --family first --k 2 --model one --samples 2000",
            {"N": "10007", "S": "100", "alpha": "0.1", "exponents": "None",
             "family": "first", "file": "None", "j": "1", "k": "2",
             "model": "one", "model-seed": "0", "samples": "2000",
             "seed": "0", "table": "None", "workers": "1"},
            ["estimate", "samples", "stderr", "workers"]),
    "cutoff-check": ("cutoff-check --m 1,2",
                     {"T": "None", "chi": "cosine", "m": "1,2"},
                     ["factors", "kind", "norm_constant", "norm_residual"]),
    "lambda-d": ("lambda-d --N 10007",
                 {"D": "None", "N": "10007", "k": "3", "sieve": "None"},
                 ["D", "N", "k", "value"]),
}


@pytest.mark.parametrize("command", sorted(_JSON_META))
def test_json_report_meta_and_result_keys(capsys, report_dir, command):
    # Full-precision floats may differ across platforms, so these reports
    # pin their meta block and the ordered keys of their result.
    argv, config, keys = _JSON_META[command]
    assert run(capsys, *argv.split(), "--out", "r.json")[0] == 0
    text = (report_dir / "r.json").read_text()
    assert text.endswith("}\n")
    payload = json.loads(text)
    assert list(payload) == ["meta", "result"]
    assert payload["meta"] == {
        "command": command, "version": __version__,
        "config": {**config, "out": "r.json"},
    }
    assert list(payload["result"]) == keys
    if command == "cutoff-check":
        assert list(payload["result"]["factors"]) == ["1", "2"]
        assert list(payload["result"]["factors"]["1"]) == [
            "T", "imag_residual", "tail_estimate", "value"]


# ------------------------------------------------------ rejected arguments

@pytest.mark.parametrize("argv", [
    "correlate --table nothere.bin --h 2",
    "lindex --file nothere.txt",
    "lambda-d --N 10007 --sieve nothere.bin",
    "lfc --model majorant --table nothere.bin --family first --k 2",
    "singular --h 0,2 --out nothere/x.json",
    "singular --h 0,2 --config nothere.cfg",
])
def test_missing_file_is_usage_error(capsys, report_dir, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 2
    assert err.startswith("error:") and "nothere" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", ["lindex --file", "singular --h 0,2 --config"])
def test_non_utf8_input_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, *argv.split(), str(path))
    assert code == 2
    assert err.startswith("error:") and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["one", "random"])
def test_lfc_modulus_below_one_is_usage_error(capsys, model):
    code, _, err = run(capsys, "lfc", "--family", "first", "--k", "2",
                       "--model", model, "--N", "0")
    assert code == 2
    assert "error:" in err and "modulus" in err


@pytest.mark.parametrize("argv", [
    "apsearch --mode count --N 1000 --k 3 --d 0",
    "apsearch --mode count --N 1000 --k 0",
    "apsearch --mode count --N 2",
    "apsearch --mode narrowness --ladder 1e4 --k 1",
    "apsearch --mode narrowness --ladder ,",
    "apsearch --mode narrowness --ladder 1e4 --rule-mod 4 --rule-classes 2 "
    "--delta 0.3",
    "apsearch --mode count --N 1000 --P-max 0",
    "lambda-d --N 10007 --D 20000",
    "lambda-d --N 10007 --D 0",
    "lambda-d --N 10007 --k 4",
])
def test_rejected_arguments_build_no_sieve(capsys, no_sieve, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 2
    assert "error:" in err


def test_sieve_build_requires_out(capsys, report_dir):
    code, _, err = run(capsys, "sieve-build", "--limit", "100")
    assert code == 2
    assert "error: missing required option --out" in err
    assert list(report_dir.iterdir()) == []
