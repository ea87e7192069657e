"""Command-line front door.

Subcommands cover sieve construction, collision-index computation, form
dumps, singular series, Gallagher averages, cutoff diagnostics, majorant
tables, correlation checks, linear-forms averages, width thresholds, the
Lambda_D functional, and narrow-AP searches.  Options may come from a
key=value config file, with command-line flags taking precedence.  Report
files are deterministic for a fixed configuration and seed; wall time is
printed to stdout only.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from . import aplab, conditions, cutoff, limits, linforms, majorant, numtheory, singular
from .errors import DomainError, NarrowlabError, NumericError, ResourceError


def _count(text):
    """Integer arguments that allow scientific notation like 1e7."""
    s = str(text).strip()
    try:
        return int(s)
    except ValueError:
        value = float(s)
        if not math.isfinite(value):
            raise ValueError(f"non-finite count {text!r}")
        if value != int(value):
            raise DomainError(f"expected an integer, got {text!r}")
        return int(value)


def _list_of(conv):
    """Parser of comma-separated values; empty parts are skipped."""
    return lambda text: tuple(
        conv(part) for part in str(text).split(",") if part != ""
    )


_counts = _list_of(_count)
_floats = _list_of(float)
_ints = _list_of(int)


# Option tables: dest -> (converter, default, help).  A default of
# _REQUIRED marks the option as mandatory.
_REQUIRED = object()

# A linear system, from a named family or from an interchange file.
_SYSTEM = {
    "family": (str, None, "family name: first, second, or third"),
    "k": (int, None, "family parameter k"),
    "j": (int, 1, "anchor index for the third family"),
    "file": (str, None, "system interchange file"),
}

_SPECS = {
    "sieve-build": {
        "limit": (_count, _REQUIRED, "sieve upper bound"),
        "out": (str, _REQUIRED, "output path of the NAPSV1 sieve file"),
    },
    "lindex": {**_SYSTEM, "out": (str, None, "JSON output path")},
    "forms-dump": {
        "family": (str, _REQUIRED, "family name: first, second, or third"),
        "k": (int, _REQUIRED, "family parameter k"),
        "j": (int, 1, "anchor index for the third family"),
        "out": (str, None, "output path (default: stdout)"),
    },
    "singular": {
        "h": (_ints, _REQUIRED, "comma-separated shift vector"),
        "w": (int, 1, "W-trick cutoff w (W = product of primes <= w)"),
        "P-max": (_count, singular.DEFAULT_PMAX, "Euler product truncation"),
        "out": (str, None, "JSON output path"),
    },
    "gallagher": {
        "weight": (str, "GW", "weight: GW or E"),
        "w": (int, 1, "W-trick cutoff for the GW weight"),
        "lo": (int, 1, "box lower bound per coordinate"),
        "hi": (int, 500, "box upper bound per coordinate"),
        "t": (int, 2, "number of box coordinates"),
        "P-max": (_count, singular.DEFAULT_PMAX, "Euler product truncation"),
        "C": (float, 1.0, "constant for the E weight"),
        "samples": (_count, None, "sample count (default: exact)"),
        "seed": (int, 0, "sampling seed"),
        "out": (str, None, "JSON output path"),
    },
    "cutoff-check": {
        "chi": (str, "cosine", "cutoff kind: cosine or bump"),
        "m": (_ints, (1, 2), "comma-separated factor orders"),
        "T": (float, None, "truncation override"),
        "out": (str, None, "JSON output path"),
    },
    "majorant": {
        "N": (_count, _REQUIRED, "modulus N'"),
        "w": (int, 3, "W-trick cutoff"),
        "b": (int, 1, "residue class"),
        "R-exp": (float, 0.45, "R = (W N')^exp"),
        "chi": (str, "cosine", "cutoff kind"),
        "sieve": (str, None, "factor sieve file (default: build in memory)"),
        "out": (str, _REQUIRED, "output table path"),
    },
    "correlate": {
        "table": (str, _REQUIRED, "majorant table path"),
        "h": (_ints, _REQUIRED, "comma-separated shifts"),
        "P-max": (_count, singular.DEFAULT_PMAX, "Euler product truncation"),
        "out": (str, None, "CSV output path"),
    },
    "lfc": {
        **_SYSTEM,
        "model": (str, "one", "weight model: majorant, random, or one"),
        "table": (str, None, "majorant table path (model=majorant)"),
        "alpha": (float, 0.1, "density for the random model"),
        "model-seed": (int, 0, "seed for the random model draw"),
        "N": (_count, 10007, "modulus for random/constant models"),
        "S": (_count, 100, "box half-width"),
        "samples": (_count, 100000, "Monte Carlo samples"),
        "seed": (int, 0, "Monte Carlo seed"),
        "workers": (int, 1, "deterministic seed streams, run one after another"),
        "exponents": (_ints, None, "0/1 exponent pattern"),
        "out": (str, None, "JSON output path"),
    },
    "threshold": {
        **_SYSTEM,
        "alphas": (_floats, (0.2, 0.1, 0.05), "comma-separated densities"),
        "target": (float, 1.0, "deviation level defining S*"),
        "out": (str, None, "CSV output path"),
    },
    "lambda-d": {
        "N": (_count, _REQUIRED, "modulus N'"),
        "k": (int, 3, "progression length"),
        "D": (_count, None, "difference cap (default: ceil((log N')^L))"),
        "sieve": (str, None, "factor sieve file (default: build in memory)"),
        "out": (str, None, "JSON output path"),
    },
    "apsearch": {
        "mode": (str, "count", "count or narrowness"),
        "N": (_count, 10 ** 6, "scale for count mode"),
        "k": (int, 3, "progression length"),
        "d": (_count, 6, "common difference for count mode"),
        "ladder": (_counts, (10 ** 5, 10 ** 6), "scales for narrowness mode"),
        "delta": (float, 0.0, "required subset density among primes"),
        "rule-mod": (int, None, "congruence modulus of the subset rule"),
        "rule-classes": (_ints, None, "kept residue classes"),
        "P-max": (_count, singular.DEFAULT_PMAX, "Euler product truncation"),
        "sieve": (str, None, "factor sieve file (default: build in memory)"),
        "out": (str, None, "CSV output path"),
    },
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="narrowlab",
        description="Narrow arithmetic progressions laboratory",
    )
    parser.add_argument("--version", action="version",
                        version=f"narrowlab {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SPECS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="key=value config file")
        for dest, (_, _, help_text) in spec.items():
            sub.add_argument(f"--{dest}", dest=dest.replace("-", "_"),
                             default=argparse.SUPPRESS, help=help_text)
    return parser


def _read_text(path):
    """Contents of a text file, raising DomainError unless it is UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None


def _load_config(path, spec):
    values = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno} is not key=value: "
                              f"{line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in spec:
            raise DomainError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _apply_conv(conv, dest, raw):
    try:
        return conv(raw)
    except ValueError:
        raise DomainError(f"invalid value {raw!r} for --{dest}") from None


def _resolve(ns, name):
    """Merge defaults, config file, and explicit flags for a subcommand."""
    spec = _SPECS[name]
    params = {dest: default for dest, (_, default, _) in spec.items()}
    if ns.config is not None:
        for key, raw in _load_config(ns.config, spec).items():
            params[key] = _apply_conv(spec[key][0], key, raw)
    for dest in spec:
        attr = dest.replace("-", "_")
        if hasattr(ns, attr):
            params[dest] = _apply_conv(spec[dest][0], dest, getattr(ns, attr))
    for dest, value in params.items():
        if value is _REQUIRED:
            raise DomainError(f"missing required option --{dest}")
    return params


# ----------------------------------------------------------------- reports

def _config(params):
    """Resolved options by sorted name, as text; tuples are comma-joined."""
    return {
        key: ",".join(map(str, value)) if isinstance(value, tuple)
        else str(value)
        for key, value in sorted(params.items())
    }


def _cell(value):
    """Report text of a value: floats as %.12g, fractions as n/d."""
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _fields(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def _write_report(path, name, params, report):
    """Write a handler's report to path, the one writer of --out reports.

    A dict becomes JSON {"meta", "result"}.  A (fields, rows, extra)
    triple becomes CSV: '#' lines with the version, command, config and
    the extra lines, then the header and one line per row.
    """
    config = _config(params)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(report, dict):
            meta = {"version": __version__, "command": name, "config": config}
            json.dump({"meta": meta, "result": report}, fh,
                      sort_keys=True, indent=2)
            fh.write("\n")
            return
        fields, rows, extra = report
        lines = [f"# narrowlab {__version__}", f"# command: {name}"]
        lines += [f"# {key}: {value}" for key, value in config.items()]
        lines += [*extra, ",".join(fields)]
        lines += [",".join(map(_cell, row)) for row in rows]
        fh.write("".join(line + "\n" for line in lines))


def _family_system(params):
    if params.get("file"):
        return linforms.parse_system(_read_text(params["file"]))
    family = params.get("family")
    if family is None:
        raise DomainError("pass either --family or --file")
    k = params.get("k")
    if k is None:
        raise DomainError("--family requires --k")
    if family == "first":
        return linforms.first_family(k)
    if family == "second":
        return linforms.second_family(k)
    if family == "third":
        return linforms.third_family(k, params.get("j", 1))
    raise DomainError(
        f"unknown family {family!r} (expected first, second, or third)"
    )


def _get_sieve(limit, path):
    """The sieve at path, or one built in memory to limit; readers check their range."""
    if path is None:
        return numtheory.build_factor_sieve(limit)
    return numtheory.load_sieve(path)


# ------------------------------------------------------------- subcommands
#
# Each handler prints its summary and returns its --out report for main
# to write, or None when --out names a data file it writes itself.

def _cmd_sieve_build(params):
    limit, out = params["limit"], params["out"]
    sieve = numtheory.build_factor_sieve(limit)
    numtheory.save_sieve(sieve, out)
    pi = int(np.count_nonzero(sieve.prime_mask(limit)))
    print(f"sieve limit {limit}, {pi} primes, saved to {out}")


def _cmd_lindex(params):
    result = linforms.lindex(_family_system(params))
    print(f"L = {result.value} (codim {result.codim}, "
          f"{result.subspaces_explored} subspaces explored)")
    return {"L": _cell(result.value), "codim": result.codim,
            "witness_atoms": [list(atom) for atom in result.witness.atoms],
            "subspaces_explored": result.subspaces_explored}


def _cmd_forms_dump(params):
    sys_ = _family_system(params)
    text = linforms.format_system(sys_)
    if params["out"]:
        with open(params["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {sys_.t} forms to {params['out']}")
    else:
        print(text, end="")


def _cmd_singular(params):
    W = numtheory.primorial(params["w"])
    value = singular.singular_series(params["h"], P_max=params["P-max"], W=W)
    print(f"G_W(h) = {value.value:.10g} (W={W}, P_max={value.P_max}, "
          f"tail <= {value.tail_bound:.2e})")
    return {**dataclasses.asdict(value), "W": W}


def _cmd_gallagher(params):
    W = numtheory.primorial(params["w"])
    singular.check_box_size(params["t"], params["samples"])
    box = [(params["lo"], params["hi"])] * params["t"]
    report = singular.gallagher_average(
        params["weight"], box, W=W, P_max=params["P-max"], C=params["C"],
        sample=params["samples"], seed=params["seed"],
    )
    print(f"mean = {report.mean:.6f}, |mean-1| = {report.abs_dev:.6f}, "
          f"mode = {report.mode}")
    return dataclasses.asdict(report)


def _cmd_cutoff_check(params):
    spec = cutoff.make_cutoff(params["chi"])
    for m in params["m"]:   # every order's caps before the first factor
        cutoff.factor_truncation(spec, m, params["T"])
    residual = cutoff.norm_residual(spec)
    factors = {}
    for m in params["m"]:
        rep = cutoff.sieve_factor_report(spec, m, T=params["T"])
        factors[str(m)] = {key: getattr(rep, key) for key in
                           ("value", "imag_residual", "tail_estimate", "T")}
        print(f"c_{{chi,{m}}} = {rep.value:.8f} "
              f"(tail ~ {rep.tail_estimate:.2e}, T={rep.T})")
    print(f"norm constant {spec.norm_constant:.10f}, "
          f"normalization residual {residual:.2e}")
    return {"kind": spec.kind, "norm_constant": spec.norm_constant,
            "norm_residual": residual, "factors": factors}


def _cmd_majorant(params):
    ctx = numtheory.primorial_context(params["w"], params["b"], params["N"])
    try:
        R = float(ctx.W * ctx.modulus) ** params["R-exp"]
    except OverflowError:   # past the float range, so past sqrt(W N' + b)
        R = math.inf
    sieve = _get_sieve(ctx.W * ctx.modulus + ctx.b, params["sieve"])
    spec = cutoff.make_cutoff(params["chi"])
    table = majorant.build_majorant(ctx, R, spec, sieve)
    violations = majorant.check_minorization(table, sieve)
    majorant.save_majorant(table, params["out"])
    print(f"N' = {ctx.modulus}, R = {R:.3f}, mean nu = "
          f"{float(table.values.mean()):.6f}, floor violations = {violations}")
    print(f"saved table to {params['out']}")


def _cmd_correlate(params):
    table = majorant.load_majorant(params["table"])
    rows = []
    for h in params["h"]:
        pc = majorant.majorant_pair_correlation(table, h,
                                                P_max=params["P-max"])
        rows.append((h, *dataclasses.astuple(pc)))
        print(f"h = {h}: empirical {pc.empirical:.6f}, "
              f"predicted {pc.predicted:.6f}, ratio {pc.ratio:.4f}")
    return ("h", *_fields(majorant.PairCorrelation)), rows, ()


def _cmd_lfc(params):
    sys_ = _family_system(params)
    if params["model"] == "majorant":
        if not params["table"]:
            raise DomainError("model=majorant requires --table")
        table = majorant.load_majorant(params["table"])
        model = conditions.WeightModel.from_table(table)
    elif params["model"] == "random":
        model = conditions.WeightModel.random(
            params["alpha"], params["model-seed"], params["N"],
        )
    elif params["model"] == "one":
        model = conditions.WeightModel.constant_one(params["N"])
    else:
        raise DomainError(
            f"unknown model {params['model']!r} "
            "(expected majorant, random, or one)"
        )
    e = None
    if params["exponents"] is not None:
        e = conditions.ExponentPattern(entries=params["exponents"])
    box = conditions.symmetric_box(sys_.d, params["S"])
    est = conditions.lfc_average_mc(
        model, sys_, e, box, params["samples"],
        seed=params["seed"], workers=params["workers"],
    )
    print(f"average = {est.estimate:.6f} +- {est.stderr:.6f} "
          f"({est.samples} samples, {est.workers} workers)")
    return dataclasses.asdict(est)


def _cmd_threshold(params):
    fit = conditions.width_threshold_fit(
        _family_system(params), params["alphas"], target=params["target"],
    )
    for r in fit.rows:
        print(f"alpha = {r.alpha}: S* = {r.S_star:.6g}, dominant codim "
              f"{r.dominant_codim}, ratio {r.dominant_ratio}")
    print(f"fitted slope of log S* vs log(1/alpha): {fit.slope:.4f}")
    rows = [dataclasses.astuple(r) for r in fit.rows]
    return (_fields(conditions.ThresholdRow), rows,
            [f"# slope: {_cell(fit.slope)}"])


def _cmd_lambda_d(params):
    nprime = params["N"]
    k = params["k"]
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    D = params["D"]
    if D is None:
        D = math.ceil(aplab.narrow_width(nprime, k))
    # After the default D: a default that overflows is bad input (exit 2).
    limits.check(k, limits.MAX_TERMS, "progression terms")
    if not numtheory.is_prime(nprime):
        raise DomainError(f"modulus {limits.short(nprime)} must be prime")
    if params["D"] is None and D >= nprime:
        raise DomainError(
            f"default D = ceil((log N')^{aplab.narrow_exponent(k)}) = {D} "
            f"is not below N' = {nprime}; pass --D"
        )
    aplab.check_difference_cap(D, nprime)
    sieve = _get_sieve(nprime, params["sieve"])
    f = aplab.prime_signal(sieve, nprime)
    value = aplab.lambda_D([f] * k, D)
    print(f"Lambda_D = {value:.6f} (N' = {nprime}, k = {k}, D = {D})")
    return {"value": value, "N": nprime, "k": k, "D": D}


def _cmd_apsearch(params):
    mode = params["mode"]
    k = params["k"]
    if mode == "count":
        N, d, P_max = params["N"], params["d"], params["P-max"]
        limit = aplab.count_sieve_limit(N, k, d)
        # hl_prediction rejects N < 3 and P_max < k before any sieve work.
        aplab.hl_prediction(N, k, d, P_max=P_max)
        sieve = _get_sieve(limit, params["sieve"])
        report = aplab.ap_count_report(N, k, d, sieve, P_max=P_max)
        print(f"count = {report.count}, prediction = {report.prediction:.1f},"
              f" ratio = {report.ratio:.4f}")
        return _fields(aplab.APCountReport), [dataclasses.astuple(report)], ()
    if mode != "narrowness":
        raise DomainError(
            f"unknown mode {mode!r} (expected count or narrowness)"
        )
    ladder, delta = params["ladder"], params["delta"]
    rule = None
    if params["rule-mod"] is not None:
        if params["rule-classes"] is None:
            raise DomainError("--rule-mod requires --rule-classes")
        rule = aplab.SubsetRule(modulus=params["rule-mod"],
                                classes=params["rule-classes"])
    limit = aplab.narrowness_sieve_limit(ladder, k, delta, rule)
    sieve = _get_sieve(limit, params["sieve"])
    report = aplab.narrowness_report(ladder, k, delta, rule, sieve)
    L = aplab.narrow_exponent(k)
    for r in report.rows:
        print(f"N = {r.N}: min_d = {r.min_d}, median_d = {r.median_d:.1f}, "
              f"(log N)^{k - 1} = {r.log_pow_low:.1f}, "
              f"(log N)^{L} = {r.log_pow_high:.1f}")
    rows = [dataclasses.astuple(r) for r in report.rows]
    return _fields(aplab.NarrownessRow), rows, ()


_HANDLERS = {
    "sieve-build": _cmd_sieve_build,
    "lindex": _cmd_lindex,
    "forms-dump": _cmd_forms_dump,
    "singular": _cmd_singular,
    "gallagher": _cmd_gallagher,
    "cutoff-check": _cmd_cutoff_check,
    "majorant": _cmd_majorant,
    "correlate": _cmd_correlate,
    "lfc": _cmd_lfc,
    "threshold": _cmd_threshold,
    "lambda-d": _cmd_lambda_d,
    "apsearch": _cmd_apsearch,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    start = time.time()
    try:
        ns = parser.parse_args(argv)
        params = _resolve(ns, ns.subcommand)
        report = _HANDLERS[ns.subcommand](params)
        if report is not None and params["out"]:
            _write_report(params["out"], ns.subcommand, params, report)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (NarrowlabError, OSError) as exc:
        # Resource limits and numerical failures exit 1; bad input exits 2.
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ResourceError, NumericError)) else 2
    print(f"wall time: {time.time() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
