"""Run one workload in this process and print its measurements as one JSON line.

run.py starts this script once per measured run and a few more times with
--setup-only, which stops where the first timed call would begin:

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE [--setup-only]
"""

import json
import os
import sys
import time

# A run makes at least this many passes, so each call has more than one
# timing to take its fastest from.
MIN_PASSES = 2
# A run stops starting passes once another would likely end past this mark,
# keeping the whole command well inside its 180 s limit.
PASS_BUDGET_S = 120.0


def main(argv):
    root, workload, seed, seconds, traced = argv[:5]
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import narrowlab
    if os.path.commonpath([os.path.abspath(narrowlab.__file__), src]) != src:
        sys.exit(f"narrowlab imported from {narrowlab.__file__}, not from {src}")

    from tracing import Tracer, fastest, layer_metrics, peak_rss_kb, span_duration, write_spans
    from workloads import WORKLOADS, Checker

    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    job = WORKLOADS[workload](seed, workdir)
    if "--setup-only" in argv:
        print(json.dumps({"ready": time.monotonic()}))
        return

    tracer = Tracer(traced)
    checker = Checker(tracer)
    passes = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        tracer.start_pass()
        job.run_pass(tracer, checker)
        passes.append(tracer.spans if traced else tracer.durations)
        now = time.monotonic()
        if ((len(passes) >= MIN_PASSES and now - begin >= seconds)
                or (now - begin) + (now - started) > PASS_BUDGET_S):
            break
    # A pass is reported as each of its calls at its fastest over the run.
    if traced:
        write_spans(os.path.join(workdir, f"spans-{workload}-seed{seed}.jsonl"), passes)
        metrics = layer_metrics(fastest(passes, span_duration), tracer.counters)
    else:
        metrics = {"wall_s": sum(fastest(passes))}
    print(json.dumps({
        "ready": tracer.first_call,
        "passes": len(passes),
        "metrics": metrics,
        "attempted": tracer.calls,
        "failures": checker.failures,
        "failed_calls": len(checker.failed_calls),
        "known_faults": checker.known_faults,
        "peak_rss_mb": peak_rss_kb() / 1024,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
