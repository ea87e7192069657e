"""narrowlab's benchmark: three workloads over the sieve, progression,
collision and threshold layers.  See perfbench/README.md.

One run of one workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object as its last line: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  Without --workload it runs every
workload untraced and then traced, prints every metric by name with its
unit, and the tracing overhead of each workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracing import layer_units  # noqa: E402

WORKLOADS = ("sieve-ladder", "progressions", "collision-threshold")
# Extra set-ups of an untraced run, half before and half after the measured
# start, so setup_s is a median of 9 spread over the run.
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# One process, one thread: the workloads are closed loops from a single caller.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def _spawn(workload, seed, seconds, traced, deadline, setup_only=False):
    """Start the worker, wait for it, and return (spawn time, its JSON report)."""
    cmd = [sys.executable, WORKER, ROOT, workload, str(seed), str(seconds), str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV,
               NARROWLAB_CACHE_DIR=os.path.join(ROOT, ".perfbench"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} did not finish within {TIME_LIMIT_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def run_once(workload, seed, seconds, traced):
    """One run: the measured passes between set-up probes.  Returns the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "narrowlab", "__init__.py")):
        raise RunError(f"no narrowlab sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + TIME_LIMIT_S

    def probe_setups(count):
        out = []
        for _ in range(0 if traced else count):
            spawned, probe = _spawn(workload, seed, seconds, traced, deadline, setup_only=True)
            out.append(probe["ready"] - spawned)
        return out

    setups = probe_setups(SETUP_PROBES // 2)
    spawned, report = _spawn(workload, seed, seconds, traced, deadline)
    setups.append(report["ready"] - spawned)
    setups += probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
    for failure in report["failures"]:
        print(f"CHECK FAILED [{workload}]: {failure}", file=sys.stderr)
    if traced:
        units = layer_units()
        values = dict(report["metrics"], source_lines=_source_lines())
    else:
        units = END_TO_END
        values = {"setup_s": statistics.median(setups), "wall_s": report["metrics"]["wall_s"],
                  "peak_rss_mb": report["peak_rss_mb"]}
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["known_faults"] + report["failed_calls"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _source_lines():
    pkg = os.path.join(ROOT, "src", "narrowlab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def run_all(seed, seconds):
    """Every workload untraced, then traced; print all metrics and the overhead."""
    ok = True
    for workload in WORKLOADS:
        plain = run_once(workload, seed, seconds, traced=False)
        traced = run_once(workload, seed, seconds, traced=True)
        ok &= plain["correct"] and traced["correct"]
        print(f"== {workload}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print(f"{workload:18s} {name:44s} {m['value']:16.6g} {m['unit']}")
        wall = plain["metrics"]["wall_s"]["value"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - wall
        print(f"{workload:18s} {'tracing overhead':44s} {overhead:16.6g} s "
              f"({100 * overhead / wall:+.2f}% of wall_s)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload is None:
            return 0 if run_all(args.seed, args.seconds) else 1
        print(json.dumps(run_once(args.workload, args.seed, args.seconds, bool(args.trace))))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
