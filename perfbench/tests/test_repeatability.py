"""Repeatability of the benchmark's traced run.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Two traced passes of one seed must make exactly the same calls at
every wrapped layer boundary and produce the same simulated outputs;
the spans must nest, so that every self time is non-negative and the
layer shares sum to at most one. The metric names the traced run emits
must be the ones BENCHMARK.json and workloads.json declare.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_pass(name, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        passes, layers = run._passes(
            WORKLOADS[name], 0, 0.0, 1, str(workdir), tracer
        )
    finally:
        tracer.uninstall()
    return tracer, passes[0], layers[0]


def _assert_nested(tracer):
    names = tracer.names
    starts, ends = tracer.span_start, tracer.span_end
    assert len(tracer.span_name) > 0
    for index, parent in enumerate(tracer.span_parent):
        assert starts[index] <= ends[index]
        if parent >= 0:
            assert parent < index
            assert starts[parent] <= starts[index], names[tracer.span_name[index]]
            assert ends[index] <= ends[parent], names[tracer.span_name[index]]
    for name, seconds in tracer.self_times().items():
        assert seconds >= -1e-9, name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_passes_repeat(name, tmp_path):
    first_tracer, first, first_layers = _traced_pass(name, tmp_path)
    _assert_nested(first_tracer)
    second_tracer, second, second_layers = _traced_pass(name, tmp_path)
    _assert_nested(second_tracer)

    assert first_layers["counts"] == second_layers["counts"]
    assert first_layers["hits"] == second_layers["hits"]
    assert first_layers["samples"] == second_layers["samples"]
    assert first.outputs == second.outputs
    assert all(ok for _, ok, _ in first.ops)

    for layers in (first_layers, second_layers):
        assert sum(layers["layer_s"].values()) <= layers["run_s"]
        metrics = run._per_layer([layers], layers["run_s"])
        shares = [value for key, (value, _, _) in metrics.items()
                  if key.endswith(".share") and key != "unattributed.share"]
        assert all(share >= 0.0 for share in shares)
        assert sum(shares) <= 1.0
        assert metrics["unattributed.share"][0] >= 0.0


def test_declared_metrics_match_the_emitted_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as handle:
        described = json.load(handle)
    layers = {
        "run_s": 1.0, "ref_run_s": 1.0,
        "counts": {}, "self_s": {}, "hits": {}, "samples": {},
        "layer_s": {layer: 0.0 for layer in LAYERS},
    }
    emitted = set(run._per_layer([layers], 1.0))
    assert emitted == {metric["name"] for metric in declared["per_layer"]}
    assert emitted == {
        metric for layer in described["layers"].values()
        for metric in layer["metrics"]
    }
    assert set(described["workloads"]) == set(WORKLOADS)
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
