"""Closed-loop measurement and the metric definitions.

:func:`measure` runs one workload's objects back to back until the next
object would end past the deadline, then :func:`end_to_end` folds the
outcomes into the declared end-to-end metrics.  :func:`measure_traced`
runs each object twice — untraced and under :func:`tracing.instrument`,
alternating which goes first — checks the two produced identical outputs,
and :func:`per_layer` folds the spans into the declared per-layer metrics.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.tracing import SpanRecorder, instrument, object_layers
from perfbench.workloads import Outcome, Runner
from repro.observability.trace import Tracer

#: name -> unit of every end-to-end metric (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "roundtrip_Bps": "B/s",
    "object_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit of the figures printed beside the end-to-end metrics but not
#: declared in ``BENCHMARK.json``: the write- and read-path rates (declared
#: only with the codec workload, which is undeclared) and the two outcome
#: fractions, which are 0 on a healthy run and cannot carry a relative bound
EXTRAS = {
    "write_Bps": "B/s",
    "read_Bps": "B/s",
    "object_fail_frac": "frac",
    "strand_error_frac": "frac",
}

#: name -> unit of every per-layer metric (``--trace 1``); values are
#: per traced object unless the name is a share, fraction or ratio
PER_LAYER = {
    "clustering.busy_s": "s",
    "clustering.signature_s": "s",
    "clustering.rounds_s": "s",
    "clustering.signature_comparisons": "count",
    "clustering.edit_comparisons": "count",
    "clustering.merges": "count",
    "clustering.clusters": "count",
    "clustering.purity": "frac",
    "clustering.fragmentation": "count",
    "clustering.share": "frac",
    "reconstruction.busy_s": "s",
    "reconstruction.ms_per_cluster": "ms",
    "reconstruction.clusters": "count",
    "reconstruction.reads_in": "count",
    "reconstruction.exact_frac": "frac",
    "reconstruction.share": "frac",
    "codec.encoder.busy_s": "s",
    "codec.encoder.strands": "count",
    "codec.decoder.busy_s": "s",
    "codec.decoder.rows_clean": "count",
    "codec.decoder.rows_corrected": "count",
    "codec.decoder.rows_failed": "count",
    "codec.decoder.symbols_corrected": "count",
    "codec.decoder.missing_columns": "count",
    "codec.decoder.clean_row_frac": "frac",
    "codec.share": "frac",
    "simulation.busy_s": "s",
    "simulation.reads": "count",
    "simulation.dropouts": "count",
    "simulation.share": "frac",
    "parallel.fanouts": "count",
    "parallel.shards": "count",
    "parallel.serial_fanouts": "count",
    "parallel.fanout_s": "s",
    "parallel.load_imbalance": "ratio",
    "pipeline.quality.busy_s": "s",
    "pipeline.quality.share": "frac",
    "pipeline.self_s": "s",
    "pipeline.self_share": "frac",
    "process.cpu_s": "s",
    "trace.overhead_frac": "frac",
    "strand_error_frac": "frac",
}


class OutputMismatch(RuntimeError):
    """A traced object's outputs differ from its untraced twin's."""


def _should_stop(loop_start: float, costs: List[float], seconds: float) -> bool:
    """Stop when another object of median cost would end past the deadline."""
    elapsed = time.perf_counter() - loop_start
    return elapsed + statistics.median(costs) > seconds


def measure(
    runner: Runner, seconds: float, between: Optional[Callable[[], None]] = None
) -> List[Outcome]:
    """Closed loop: run objects 0, 1, ... until the window is used up.

    *between*, if given, is called after each object, outside the object's
    timed calls but inside the window.
    """
    outcomes: List[Outcome] = []
    costs: List[float] = []
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        outcomes.append(runner.run(len(outcomes)))
        if between is not None:
            between()
        costs.append(time.perf_counter() - start)
        if _should_stop(loop_start, costs, seconds):
            return outcomes


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(outcomes: List[Outcome], setup_s: float, rss_mb: float) -> Dict[str, float]:
    recovered = sum(o.object_bytes for o in outcomes if o.ok)
    return {
        "setup_s": setup_s,
        "roundtrip_Bps": recovered / sum(o.seconds for o in outcomes),
        "object_p50_s": statistics.median(o.seconds for o in outcomes),
        "peak_rss_mb": rss_mb,
    }


def extras(outcomes: List[Outcome]) -> Dict[str, float]:
    """The :data:`EXTRAS` figures of one run."""
    recovered = sum(o.object_bytes for o in outcomes if o.ok)
    return {
        "write_Bps": sum(o.object_bytes for o in outcomes)
        / sum(o.write_seconds for o in outcomes),
        "read_Bps": recovered / sum(o.read_seconds for o in outcomes),
        "object_fail_frac": sum(not o.ok for o in outcomes) / len(outcomes),
        "strand_error_frac": sum(o.strands_absent for o in outcomes)
        / sum(o.strands for o in outcomes),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def measure_traced(
    runner: Runner, seconds: float, recorder: SpanRecorder
) -> Tuple[List[Outcome], List[Outcome], List[Tracer], List[float]]:
    """Run each object untraced and traced; raise if their outputs differ.

    Returns the untraced and traced outcomes, each traced object's
    :class:`~repro.observability.Tracer` (for the program's own gauges)
    and the CPU seconds each traced object used.
    """
    plain: List[Outcome] = []
    traced: List[Outcome] = []
    tracers: List[Tracer] = []
    cpu: List[float] = []
    costs: List[float] = []
    loop_start = time.perf_counter()
    while True:
        index = len(plain)
        start = time.perf_counter()
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.append(runner.run(index))
                continue
            recorder.object_id = index
            tracer = Tracer()
            cpu_start = _cpu_seconds()
            with instrument(recorder):
                traced.append(runner.run(index, tracer=tracer, recorder=recorder))
            cpu.append(_cpu_seconds() - cpu_start)
            tracers.append(tracer)
        if plain[-1].fingerprint != traced[-1].fingerprint:
            raise OutputMismatch(
                f"object {index}: the traced run's outputs differ from the untraced run's"
            )
        costs.append(time.perf_counter() - start)
        if _should_stop(loop_start, costs, seconds):
            return plain, traced, tracers, cpu


def _load_imbalance(tracer: Tracer) -> float:
    """The program's ``worker_load_imbalance`` gauge, worst site (0 if none)."""
    values = [
        gauge.value
        for name, _, gauge in tracer.metrics.gauges()
        if name == "worker_load_imbalance"
    ]
    return max(values, default=0.0)


def per_layer(
    recorder: SpanRecorder,
    plain: List[Outcome],
    traced: List[Outcome],
    tracers: List[Tracer],
    cpu: List[float],
) -> Dict[str, float]:
    layers = [object_layers(recorder, index) for index in range(len(traced))]
    count = len(layers)

    def total(key: str) -> float:
        return float(sum(layer.get(key, 0) for layer in layers))

    def mean(key: str) -> float:
        return total(key) / count

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wall = total("wall_s")
    reports = [o.quality for o in traced if o.quality is not None]
    clustering_q = [q.clustering for q in reports if q.clustering is not None]
    reconstruction_q = [
        q.reconstruction for q in reports if q.reconstruction is not None
    ]
    rows = sum(
        total(f"codec.decoder.rows_{kind}") for kind in ("clean", "corrected", "failed")
    )
    metrics = {
        "clustering.busy_s": mean("clustering.busy_s"),
        "clustering.signature_s": mean("clustering.signature_s"),
        "clustering.rounds_s": mean("clustering.rounds_s"),
        "clustering.signature_comparisons": mean("clustering.signature_comparisons"),
        "clustering.edit_comparisons": mean("clustering.edit_comparisons"),
        "clustering.merges": mean("clustering.merges"),
        "clustering.clusters": mean("clustering.clusters"),
        "clustering.purity": ratio(sum(q.purity for q in clustering_q), len(clustering_q)),
        "clustering.fragmentation": ratio(
            sum(q.fragmentation for q in clustering_q), len(clustering_q)
        ),
        "clustering.share": ratio(total("clustering.top_s"), wall),
        "reconstruction.busy_s": mean("reconstruction.busy_s"),
        "reconstruction.ms_per_cluster": 1000.0
        * ratio(total("reconstruction.busy_s"), total("reconstruction.clusters")),
        "reconstruction.clusters": mean("reconstruction.clusters"),
        "reconstruction.reads_in": mean("reconstruction.reads_in"),
        "reconstruction.exact_frac": ratio(
            sum(q.exact_matches for q in reconstruction_q),
            sum(q.strands for q in reconstruction_q),
        ),
        "reconstruction.share": ratio(total("reconstruction.top_s"), wall),
        "codec.encoder.busy_s": mean("codec.encoder.busy_s"),
        "codec.encoder.strands": mean("codec.encoder.strands"),
        "codec.decoder.busy_s": mean("codec.decoder.busy_s"),
        "codec.decoder.rows_clean": mean("codec.decoder.rows_clean"),
        "codec.decoder.rows_corrected": mean("codec.decoder.rows_corrected"),
        "codec.decoder.rows_failed": mean("codec.decoder.rows_failed"),
        "codec.decoder.symbols_corrected": mean("codec.decoder.symbols_corrected"),
        "codec.decoder.missing_columns": mean("codec.decoder.missing_columns"),
        "codec.decoder.clean_row_frac": ratio(total("codec.decoder.rows_clean"), rows),
        "codec.share": ratio(total("codec.top_s"), wall),
        "simulation.busy_s": mean("simulation.busy_s"),
        "simulation.reads": mean("simulation.reads"),
        "simulation.dropouts": mean("simulation.dropouts"),
        "simulation.share": ratio(total("simulation.top_s"), wall),
        "parallel.fanouts": mean("parallel.calls"),
        "parallel.shards": mean("parallel.shards"),
        "parallel.serial_fanouts": mean("parallel.serial"),
        "parallel.fanout_s": mean("parallel.busy_s"),
        "parallel.load_imbalance": statistics.fmean(map(_load_imbalance, tracers)),
        "pipeline.quality.busy_s": mean("pipeline.quality.busy_s"),
        "pipeline.quality.share": ratio(total("pipeline.quality.top_s"), wall),
        "pipeline.self_s": mean("pipeline.self_s"),
        "pipeline.self_share": ratio(total("pipeline.self_s"), wall),
        "process.cpu_s": statistics.fmean(cpu),
        "trace.overhead_frac": sum(o.seconds for o in traced)
        / sum(o.seconds for o in plain)
        - 1.0,
        "strand_error_frac": extras(traced)["strand_error_frac"],
    }
    return metrics
