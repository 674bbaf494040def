"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness, run, steadiness, tracing, workloads
from repro.codec.decoder import DNADecoder
from repro.codec.encoder import DNAEncoder
from repro.observability.trace import Tracer
from repro.parallel import WorkerPool
from repro.pipeline import pipeline as pipeline_module
from repro.reconstruction.base import Reconstructor

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def _tiny(workload):
    """A seconds-scale variant of *workload* with the same code path."""
    if isinstance(workload, workloads.PipelineWorkload):
        return replace(
            workload,
            object_bytes=100,
            payload_bytes=8,
            data_columns=14,
            parity_columns=6,
            coverage=6,
        )
    return replace(workload, object_bytes=20_000)


def _tiny_runner(name, seed=1):
    runner = workloads.Runner(_tiny(workloads.WORKLOADS[name]), seed)
    runner.warm_up()
    return runner


def test_declared_workloads_and_metrics_match_the_harness():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(declared) <= set(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_declared_metric(name):
    runner = _tiny_runner(name)
    probes = []
    outcomes = harness.measure(runner, seconds=0.01, between=lambda: probes.append(1))
    assert len(outcomes) == len(probes) == 1
    assert all(outcome.ok for outcome in outcomes)
    metrics = harness.end_to_end(outcomes, setup_s=0.5, rss_mb=harness.peak_rss_mb())
    assert set(metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    rates = harness.extras(outcomes)
    assert set(rates) == set(harness.EXTRAS)
    assert rates["write_Bps"] > 0 and rates["read_Bps"] > 0

    recorder = tracing.SpanRecorder()
    plain, traced, tracers, cpu = harness.measure_traced(runner, 0.01, recorder)
    layers = harness.per_layer(recorder, plain, traced, tracers, cpu)
    assert set(layers) == set(harness.PER_LAYER)


def test_traced_wrappers_leave_outputs_byte_identical_and_are_removed():
    runner = _tiny_runner("nw-table3")
    originals = [
        DNAEncoder.encode,
        DNADecoder.decode,
        pipeline_module.sequence_pool,
        Reconstructor.reconstruct_all,
        WorkerPool.run_chunks,
        pipeline_module.observe_channel_quality,
    ]
    plain = runner.run(0)
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        traced = runner.run(0, tracer=Tracer(), recorder=recorder)
    assert traced.fingerprint == plain.fingerprint
    assert traced.ok and plain.ok
    assert [
        DNAEncoder.encode,
        DNADecoder.decode,
        pipeline_module.sequence_pool,
        Reconstructor.reconstruct_all,
        WorkerPool.run_chunks,
        pipeline_module.observe_channel_quality,
    ] == originals
    names = {span.name for span in recorder.spans}
    assert {"pipeline.run", "codec.encoder", "simulation", "clustering",
            "reconstruction", "codec.decoder", "pipeline.quality",
            "parallel"} <= names
    layers = tracing.object_layers(recorder, 0)
    top = sum(value for key, value in layers.items() if key.endswith(".top_s"))
    assert top + layers["pipeline.self_s"] == pytest.approx(layers["wall_s"])


def test_traced_codec_outputs_match_untraced():
    runner = _tiny_runner("codec-bulk")
    plain = runner.run(3)
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        traced = runner.run(3, tracer=Tracer(), recorder=recorder)
    assert traced.fingerprint == plain.fingerprint
    assert [span.name for span in recorder.spans if span.parent is None] == [
        "codec.encoder",
        "codec.decoder",
    ]


def test_over_damaged_codec_object_counts_as_a_failure():
    workload = workloads.CodecWorkload(
        name="codec-bulk", object_bytes=20_000, drop_frac=0.4, substitute_frac=0.1
    )
    runner = workloads.Runner(workload, seed=1)
    outcome = runner.run(0)
    assert not outcome.ok
    figures = harness.extras([outcome])
    assert figures["object_fail_frac"] == 1.0
    assert figures["read_Bps"] == 0.0
    assert harness.end_to_end([outcome], setup_s=0.5, rss_mb=1.0)["roundtrip_Bps"] == 0.0


def test_same_seed_gives_same_inputs_and_damage():
    workload = _tiny(workloads.WORKLOADS["codec-bulk"])
    first = workloads.Runner(workload, seed=7).run(2)
    second = workloads.Runner(workload, seed=7).run(2)
    other = workloads.Runner(workload, seed=8).run(2)
    assert first.fingerprint == second.fingerprint != other.fingerprint


def test_self_time_subtracts_child_span_time():
    spans = [
        tracing.Span("pipeline.run", 0.0, 10.0, None, 0),
        tracing.Span("clustering", 1.0, 3.0, 0, 0),
        tracing.Span("parallel", 2.0, 2.5, 1, 0),
        tracing.Span("reconstruction", 4.0, 9.0, 0, 0),
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(3.0)
    assert tracing.self_time(spans, 1) == pytest.approx(1.5)


@pytest.mark.parametrize("name", ["object_p50_s", "setup_s"])
def test_steadiness_flags_spread_and_drift_beyond_the_bound(name):
    metric = {"name": name, "unit": "s", "better": "lower", "bound": 0.1}
    steady = [{name: v} for v in (1.0, 1.01, 0.99, 1.0, 1.02)]
    noisy = [{name: v} for v in (1.0, 1.5, 0.7, 1.3, 0.8)]
    slower = [{name: v * 1.3} for v in (1.0, 1.01, 0.99, 1.0, 1.02)]
    _, flags = steadiness.check([{"w": steady}, {"w": steady}], [metric])
    assert flags == []
    _, flags = steadiness.check([{"w": noisy}], [metric])
    assert len(flags) == 1 and "spread" in flags[0]
    _, flags = steadiness.check([{"w": steady}, {"w": slower}], [metric])
    assert len(flags) == 1 and "worse" in flags[0]


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
