"""BENCHMARK.json must name exactly the workloads and metrics run.py reports."""

import json
import os

import pytest

import run
from tracing import fastest, layer_units, span_duration


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer_units()


def test_fastest_takes_each_call_at_its_fastest():
    assert fastest([[3.0, 1.0, 2.0], [2.0, 4.0, 2.5]]) == [2.0, 1.0, 2.0]
    spans = [[{"start": 0.0, "end": 2.0}], [{"start": 5.0, "end": 6.0}]]
    assert fastest(spans, span_duration) == [spans[1][0]]
    with pytest.raises(ValueError):
        fastest([[1.0], [1.0, 2.0]])
