"""Timing of calls into narrowlab's public functions, with optional spans.

Every workload operation goes through ``Tracer.call``, which times it
from outside the package.  Untraced, a call adds two clock reads and a
list append, so the untraced wall time is the end-to-end figure.  Traced, it
also keeps one span per call in memory: name, parent stage, start, end,
CPU time and the work units the caller declares; for calls marked
``peak=True`` it also records, through tracemalloc, the peak of the memory
allocated during the call (numpy buffers included), so that figure does not
depend on which earlier call set the process's peak.  Spans are written out
after the run.
"""

import contextlib
import json
import resource
import time
import tracemalloc


def peak_rss_kb():
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, traced):
        self.traced = traced
        self.first_call = None
        self.calls = 0
        self.durations = []
        self.spans = []
        self.counters = {}
        self.stage_name = ""

    def start_pass(self):
        self.durations = []
        self.spans = []
        self.counters = {}

    @contextlib.contextmanager
    def stage(self, name):
        outer = self.stage_name
        self.stage_name = name
        try:
            yield
        finally:
            self.stage_name = outer

    def call(self, name, fn, *args, work=0, peak=False, **kwargs):
        """Run fn(*args, **kwargs) as the operation `name` and time it."""
        if self.first_call is None:
            self.first_call = time.monotonic()
        self.calls += 1
        if not self.traced:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.durations.append(time.perf_counter() - t0)
            return out
        if peak:
            tracemalloc.start()
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        c1 = time.process_time()
        span = {"name": name, "stage": self.stage_name, "start": t0, "end": t1,
                "cpu": c1 - c0, "work": work}
        if peak:
            span["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
        self.spans.append(span)
        return out


def fastest(passes, duration=float):
    """For each call of a pass, its fastest run over the given passes.

    Every pass makes the same calls in the same order, so the i-th entry of
    each pass is one operation.  The machine's speed drifts within a run;
    the fastest run of each operation is the figure that drift moves least.
    """
    if len({len(p) for p in passes}) != 1:
        raise ValueError("passes made different numbers of calls")
    return [min(runs, key=duration) for runs in zip(*passes)]


def span_duration(span):
    return span["end"] - span["start"]


def write_spans(path, passes):
    """Write the spans of every pass as JSON lines."""
    with open(path, "w") as fh:
        for index, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps({"pass": index, **span}) + "\n")


# Per-layer times: metric -> the span names whose durations it sums.
LAYER_TIMES = {
    "numtheory.build_factor_sieve_s": ["numtheory.build_factor_sieve"],
    "numtheory.prime_mask_s": ["numtheory.prime_mask"],
    "numtheory.save_sieve_s": ["numtheory.save_sieve"],
    "numtheory.load_sieve_s": ["numtheory.load_sieve"],
    "majorant.build_majorant_s": ["majorant.build_majorant"],
    "majorant.check_minorization_s": ["majorant.check_minorization"],
    "majorant.pair_correlation_s": ["majorant.pair_correlation"],
    "majorant.table_io_s": ["majorant.save_majorant", "majorant.load_majorant"],
    "cutoff.sieve_factor_s": ["cutoff.sieve_factor"],
    "singular.gallagher_average_s": ["singular.gallagher_average"],
    "singular.singular_series_s": ["singular.singular_series"],
    "aplab.lambda_D_s": ["aplab.lambda_D"],
    "aplab.lambda_D_dense_s": ["aplab.lambda_D_dense"],
    "aplab.prime_signal_s": ["aplab.prime_signal"],
    "aplab.count_aps_s": ["aplab.count_aps"],
    "aplab.hl_prediction_s": ["aplab.hl_prediction"],
    "aplab.narrowness_report_s": ["aplab.narrowness_report"],
    "linforms.lindex_s": ["linforms.lindex"],
    "linforms.min_distinct_s": ["linforms.min_distinct"],
    "conditions.width_threshold_fit_s": ["conditions.width_threshold_fit"],
    "conditions.random_model_deviation_s": ["conditions.random_model_deviation"],
    "conditions.count_hyperplane_points_s": ["conditions.count_hyperplane_points"],
    "conditions.lfc_average_mc_s": ["conditions.lfc_average_mc"],
}
# Work done per second of the named spans, from the work units callers declare.
LAYER_RATES = {
    "numtheory.sieve_entries_per_s": "numtheory.build_factor_sieve",
    "aplab.lambda_D_terms_per_s": "aplab.lambda_D",
    "conditions.mc_samples_per_s": "conditions.lfc_average_mc",
}
# Peak memory allocated during the named spans (they are called with peak=True).
LAYER_PEAKS = {
    "numtheory.prime_mask_peak_rss_growth_mb": "numtheory.prime_mask",
    "numtheory.load_sieve_peak_rss_growth_mb": "numtheory.load_sieve",
}
# Number of calls made to the named spans.
LAYER_CALLS = {
    "aplab.count_aps_calls": "aplab.count_aps",
}
# Counters the workloads set (0 where a workload has no such quantity).
LAYER_COUNTERS = {
    "numtheory.sieve_file_mb": "MB",
    "linforms.subspaces_explored": "count",
}


def layer_metrics(spans, counters):
    """Per-layer figures of one pass's spans and the counters it set."""
    time_by, work_by, peak_by, calls_by = {}, {}, {}, {}
    for span in spans:
        name = span["name"]
        calls_by[name] = calls_by.get(name, 0) + 1
        time_by[name] = time_by.get(name, 0.0) + span_duration(span)
        work_by[name] = work_by.get(name, 0) + span["work"]
        peak_by[name] = max(peak_by.get(name, 0.0), span.get("peak_alloc_mb", 0.0))
    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(time_by.get(n, 0.0) for n in names)
    for metric, name in LAYER_RATES.items():
        busy = time_by.get(name, 0.0)
        out[metric] = work_by[name] / busy if busy > 0 else 0.0
    for metric, name in LAYER_PEAKS.items():
        out[metric] = peak_by.get(name, 0.0)
    for metric, name in LAYER_CALLS.items():
        out[metric] = calls_by.get(name, 0)
    for metric in LAYER_COUNTERS:
        out[metric] = counters.get(metric, 0)
    out["process.cpu_s"] = sum(span["cpu"] for span in spans)
    out["trace.wall_s"] = sum(span_duration(span) for span in spans)
    out["trace.spans"] = len(spans)
    return out


def layer_units():
    """Unit of every per-layer metric, in report order (source_lines last)."""
    units = {m: "s" for m in LAYER_TIMES}
    units.update({m: "1/s" for m in LAYER_RATES})
    units.update({m: "MB" for m in LAYER_PEAKS})
    units.update({m: "count" for m in LAYER_CALLS})
    units.update(LAYER_COUNTERS)
    units.update({"process.cpu_s": "s", "trace.wall_s": "s", "trace.spans": "count",
                  "source_lines": "count"})
    return units
