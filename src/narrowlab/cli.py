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
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import aplab, conditions, cutoff, linforms, majorant, numtheory, singular
from .errors import (
    DomainError,
    FormatError,
    NumericError,
    ResourceError,
    UnsupportedError,
)


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


def _counts(text):
    return tuple(_count(part) for part in str(text).split(",") if part != "")


def _floats(text):
    return tuple(float(part) for part in str(text).split(",") if part != "")


def _ints(text):
    return tuple(int(part) for part in str(text).split(",") if part != "")


# Option tables: dest -> (converter, default, help).  A default of
# _REQUIRED marks the option as mandatory.
_REQUIRED = object()

_SPECS = {
    "sieve-build": {
        "limit": (_count, _REQUIRED, "sieve upper bound"),
        "out": (str, None, "output path (default: cache directory)"),
    },
    "lindex": {
        "family": (str, None, "family name: first, second, or third"),
        "k": (int, None, "family parameter k"),
        "j": (int, 1, "anchor index for the third family"),
        "file": (str, None, "read the system from an interchange file"),
        "out": (str, None, "JSON output path"),
    },
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
        "sieve": (str, None, "factor sieve path (default: cache)"),
        "out": (str, _REQUIRED, "output table path"),
    },
    "correlate": {
        "table": (str, _REQUIRED, "majorant table path"),
        "h": (_ints, _REQUIRED, "comma-separated shifts"),
        "P-max": (_count, singular.DEFAULT_PMAX, "Euler product truncation"),
        "out": (str, None, "CSV output path"),
    },
    "lfc": {
        "family": (str, None, "family name"),
        "k": (int, None, "family parameter k"),
        "j": (int, 1, "anchor index for the third family"),
        "file": (str, None, "system interchange file"),
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
        "family": (str, None, "family name"),
        "k": (int, None, "family parameter k"),
        "j": (int, 1, "anchor index for the third family"),
        "file": (str, None, "system interchange file"),
        "alphas": (_floats, (0.2, 0.1, 0.05), "comma-separated densities"),
        "target": (float, 1.0, "deviation level defining S*"),
        "out": (str, None, "CSV output path"),
    },
    "lambda-d": {
        "N": (_count, _REQUIRED, "modulus N'"),
        "k": (int, 3, "progression length"),
        "D": (_count, None, "difference cap (default: ceil((log N')^L))"),
        "sieve": (str, None, "factor sieve path (default: cache)"),
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
        "sieve": (str, None, "factor sieve path (default: cache)"),
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
        sub.add_argument("--config", default=None,
                         help="key=value config file")
        for dest, (conv, default, help_text) in spec.items():
            sub.add_argument(
                f"--{dest}", dest=dest.replace("-", "_"),
                type=str, default=argparse.SUPPRESS, help=help_text,
            )
    return parser


def _load_config(path, spec):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(
                f"config line {lineno} is not key=value: {line!r}"
            )
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
    params = {}
    for dest, (conv, default, _) in spec.items():
        params[dest] = default
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


def _meta_lines(name, params):
    lines = [f"# narrowlab {__version__}", f"# command: {name}"]
    for key in sorted(params):
        value = params[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"# {key}: {value}")
    return lines


def _meta_dict(name, params):
    config = {}
    for key in sorted(params):
        value = params[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        config[key] = str(value)
    return {"version": __version__, "command": name, "config": config}


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, meta, columns, rows):
    def fmt(v):
        if isinstance(v, float):
            return "%.12g" % v
        return str(v)

    with open(path, "w", encoding="utf-8") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _family_system(params):
    if params.get("file"):
        with open(params["file"], "r", encoding="utf-8") as fh:
            return linforms.parse_system(fh.read())
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
    """Load a sieve covering limit, building into the cache if needed."""
    if path is not None:
        sieve = numtheory.load_sieve(path)
        if sieve.limit < limit:
            raise DomainError(
                f"sieve at {path} covers {sieve.limit}, need {limit}"
            )
        return sieve
    cache_path = os.path.join(numtheory.cache_dir(), f"sieve-{limit}.bin")
    if os.path.exists(cache_path):
        return numtheory.load_sieve(cache_path)
    sieve = numtheory.build_factor_sieve(limit)
    numtheory.save_sieve(sieve, cache_path)
    return sieve


def _fraction_str(value):
    return f"{value.numerator}/{value.denominator}"


# ------------------------------------------------------------- subcommands

def _cmd_sieve_build(params):
    limit = params["limit"]
    out = params["out"]
    if out is None:
        out = os.path.join(numtheory.cache_dir(), f"sieve-{limit}.bin")
    sieve = numtheory.build_factor_sieve(limit)
    numtheory.save_sieve(sieve, out)
    pi = int(np.count_nonzero(sieve.prime_mask(limit)))
    print(f"sieve limit {limit}, {pi} primes, saved to {out}")
    return 0


def _cmd_lindex(params):
    sys_ = _family_system(params)
    result = linforms.lindex(sys_)
    payload = {
        "L": _fraction_str(result.value),
        "witness_atoms": [list(atom) for atom in result.witness.atoms],
        "codim": result.codim,
        "subspaces_explored": result.subspaces_explored,
    }
    print(f"L = {result.value} (codim {result.codim}, "
          f"{result.subspaces_explored} subspaces explored)")
    if params["out"]:
        _write_json(params["out"], {
            "meta": _meta_dict("lindex", params), "result": payload,
        })
    return 0


def _cmd_forms_dump(params):
    sys_ = _family_system(params)
    text = linforms.format_system(sys_)
    if params["out"]:
        with open(params["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {sys_.t} forms to {params['out']}")
    else:
        print(text, end="")
    return 0


def _cmd_singular(params):
    W = numtheory.primorial(params["w"])
    value = singular.singular_series(
        params["h"], P_max=params["P-max"], W=W,
    )
    payload = {
        "value": value.value,
        "P_max": value.P_max,
        "tail_bound": value.tail_bound,
        "W": W,
    }
    print(f"G_W(h) = {value.value:.10g} (W={W}, P_max={value.P_max}, "
          f"tail <= {value.tail_bound:.2e})")
    if params["out"]:
        _write_json(params["out"], {
            "meta": _meta_dict("singular", params), "result": payload,
        })
    return 0


def _cmd_gallagher(params):
    W = numtheory.primorial(params["w"])
    box = [(params["lo"], params["hi"])] * params["t"]
    report = singular.gallagher_average(
        params["weight"], box, W=W, P_max=params["P-max"], C=params["C"],
        sample=params["samples"], seed=params["seed"],
    )
    payload = {
        "mean": report.mean,
        "abs_dev": report.abs_dev,
        "stderr": report.stderr,
        "n_points": report.n_points,
        "mode": report.mode,
    }
    print(f"mean = {report.mean:.6f}, |mean-1| = {report.abs_dev:.6f}, "
          f"mode = {report.mode}")
    if params["out"]:
        _write_json(params["out"], {
            "meta": _meta_dict("gallagher", params), "result": payload,
        })
    return 0


def _cmd_cutoff_check(params):
    spec = cutoff.make_cutoff(params["chi"])
    residual = cutoff.norm_residual(spec)
    factors = {}
    for m in params["m"]:
        rep = cutoff.sieve_factor_report(spec, m, T=params["T"])
        factors[str(m)] = {
            "value": rep.value,
            "imag_residual": rep.imag_residual,
            "tail_estimate": rep.tail_estimate,
            "T": rep.T,
        }
        print(f"c_{{chi,{m}}} = {rep.value:.8f} "
              f"(tail ~ {rep.tail_estimate:.2e}, T={rep.T})")
    print(f"norm constant {spec.norm_constant:.10f}, "
          f"normalization residual {residual:.2e}")
    if params["out"]:
        _write_json(params["out"], {
            "meta": _meta_dict("cutoff-check", params),
            "result": {
                "kind": spec.kind,
                "norm_constant": spec.norm_constant,
                "norm_residual": residual,
                "factors": factors,
            },
        })
    return 0


def _cmd_majorant(params):
    ctx = numtheory.primorial_context(params["w"], params["b"], params["N"])
    R = float(ctx.W * ctx.modulus) ** params["R-exp"]
    sieve = _get_sieve(ctx.W * ctx.modulus + ctx.b, params["sieve"])
    spec = cutoff.make_cutoff(params["chi"])
    table = majorant.build_majorant(ctx, R, spec, sieve)
    majorant.save_majorant(table, params["out"])
    violations = majorant.check_minorization(table, sieve)
    print(f"N' = {ctx.modulus}, R = {R:.3f}, mean nu = "
          f"{float(table.values.mean()):.6f}, floor violations = {violations}")
    print(f"saved table to {params['out']}")
    return 0


def _cmd_correlate(params):
    table = majorant.load_majorant(params["table"])
    rows = []
    for h in params["h"]:
        pc = majorant.majorant_pair_correlation(table, h,
                                                P_max=params["P-max"])
        rows.append((h, pc.empirical, pc.predicted, pc.ratio))
        print(f"h = {h}: empirical {pc.empirical:.6f}, "
              f"predicted {pc.predicted:.6f}, ratio {pc.ratio:.4f}")
    if params["out"]:
        _write_csv(params["out"], _meta_lines("correlate", params),
                   ("h", "empirical", "predicted", "ratio"), rows)
    return 0


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
    payload = {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "samples": est.samples,
        "workers": est.workers,
    }
    print(f"average = {est.estimate:.6f} +- {est.stderr:.6f} "
          f"({est.samples} samples, {est.workers} workers)")
    if params["out"]:
        _write_json(params["out"], {
            "meta": _meta_dict("lfc", params), "result": payload,
        })
    return 0


def _cmd_threshold(params):
    sys_ = _family_system(params)
    fit = conditions.width_threshold_fit(
        sys_, params["alphas"], target=params["target"],
    )
    rows = [
        (r.alpha, r.S_star, r.dominant_codim,
         _fraction_str(r.dominant_ratio), r.deviation)
        for r in fit.rows
    ]
    for r in fit.rows:
        print(f"alpha = {r.alpha}: S* = {r.S_star:.1f}, dominant codim "
              f"{r.dominant_codim}, ratio {r.dominant_ratio}")
    print(f"fitted slope of log S* vs log(1/alpha): {fit.slope:.4f}")
    if params["out"]:
        meta = _meta_lines("threshold", params)
        meta.append("# slope: %.12g" % fit.slope)
        _write_csv(
            params["out"], meta,
            ("alpha", "S_star", "dominant_codim", "dominant_ratio",
             "deviation"),
            rows,
        )
    return 0


def _cmd_lambda_d(params):
    nprime = params["N"]
    k = params["k"]
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    D = params["D"]
    if D is None:
        L = (k - 1) * 2 ** (k - 2)
        D = math.ceil(aplab.log_power(nprime, L))
    sieve = _get_sieve(nprime, params["sieve"])
    f = aplab.prime_signal(sieve, nprime)
    value = aplab.lambda_D([f] * k, D)
    payload = {"value": value, "N": nprime, "k": k, "D": D}
    print(f"Lambda_D = {value:.6f} (N' = {nprime}, k = {k}, D = {D})")
    if params["out"]:
        _write_json(params["out"], {
            "meta": _meta_dict("lambda-d", params), "result": payload,
        })
    return 0


def _cmd_apsearch(params):
    mode = params["mode"]
    if mode == "count":
        N, k, d = params["N"], params["k"], params["d"]
        sieve = _get_sieve(N + (k - 1) * d, params["sieve"])
        report = aplab.ap_count_report(N, k, d, sieve, P_max=params["P-max"])
        print(f"count = {report.count}, prediction = {report.prediction:.1f},"
              f" ratio = {report.ratio:.4f}")
        if params["out"]:
            _write_csv(
                params["out"], _meta_lines("apsearch", params),
                ("N", "k", "d", "count", "prediction", "ratio"),
                [(report.N, report.k, report.d, report.count,
                  report.prediction, report.ratio)],
            )
        return 0
    if mode != "narrowness":
        raise DomainError(
            f"unknown mode {mode!r} (expected count or narrowness)"
        )
    ladder = params["ladder"]
    k = params["k"]
    L = (k - 1) * 2 ** (k - 2)
    rule = None
    if params["rule-mod"] is not None:
        if params["rule-classes"] is None:
            raise DomainError("--rule-mod requires --rule-classes")
        rule = aplab.SubsetRule(modulus=params["rule-mod"],
                                classes=params["rule-classes"])
    top = max(
        N + (k - 1) * max(2, math.ceil(aplab.log_power(N, L))) for N in ladder
    )
    sieve = _get_sieve(top, params["sieve"])
    report = aplab.narrowness_report(ladder, k, params["delta"], rule, sieve)
    rows = [
        (r.N, r.min_d, r.median_d, r.log_pow_low, r.log_pow_high,
         r.ratio_low, r.ratio_high)
        for r in report.rows
    ]
    for r in report.rows:
        print(f"N = {r.N}: min_d = {r.min_d}, median_d = {r.median_d:.1f}, "
              f"(log N)^{k - 1} = {r.log_pow_low:.1f}, "
              f"(log N)^{L} = {r.log_pow_high:.1f}")
    if params["out"]:
        _write_csv(
            params["out"], _meta_lines("apsearch", params),
            ("N", "min_d", "median_d", "log_pow_low", "log_pow_high",
             "ratio_low", "ratio_high"),
            rows,
        )
    return 0


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
        code = _HANDLERS[ns.subcommand](params)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, FormatError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wall time: {time.time() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
