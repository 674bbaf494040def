"""Unified tracing + metrics for the end-to-end pipeline.

Three pieces:

* :mod:`repro.observability.trace` — nested context-manager spans
  (:class:`Tracer`), with a timing-only no-op default
  (:data:`NULL_TRACER`);
* :mod:`repro.observability.metrics` — labelled counters, gauges and
  percentile histograms (:class:`MetricsRegistry`);
* :mod:`repro.observability.export` — JSONL serialisation, the
  plain-text report behind ``repro trace``, and Chrome Trace Event
  export (``repro trace --chrome`` / ``--trace-out``) for Perfetto;
* :mod:`repro.observability.profile` — opt-in per-stage tracemalloc/GC
  profiling (``Tracer(profile=True)``, CLI ``--profile``);
* :mod:`repro.observability.provenance` /
  :mod:`repro.observability.forensics` — the per-strand lineage ledger
  and root-cause verdict engine behind ``repro why``;
* :mod:`repro.observability.log` — structured stdlib logging behind the
  global ``--log-level/-v`` CLI flags.

Enable end-to-end tracing by passing a tracer into the pipeline::

    from repro.observability import Tracer, write_trace

    tracer = Tracer()
    result = Pipeline(config).run(data, tracer=tracer)
    write_trace(tracer, "trace.jsonl")

See DESIGN.md for the span/metric naming scheme.
"""

from repro.observability.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    load_imbalance,
    percentile,
)
from repro.observability.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
    capture_worker_spans,
    current_worker_tracer,
    worker_span,
)
from repro.observability.profile import StageProfiler
from repro.observability.export import (
    TraceData,
    load_trace,
    render_report,
    render_span_tree,
    render_tracer_report,
    span_structure,
    to_chrome_trace,
    trace_lines,
    write_chrome_trace,
    write_trace,
)
from repro.observability.quality import (
    QUALITY_SCHEMA_VERSION,
    ChannelQuality,
    ClusteringQuality,
    DecodingQuality,
    ProvenanceQuality,
    QualityReport,
    ReconstructionQuality,
)
from repro.observability.metrics import emit_process_gauges
from repro.observability.provenance import (
    NULL_LEDGER,
    PROVENANCE_SCHEMA_VERSION,
    VERDICTS,
    NullProvenanceLedger,
    ProvenanceLedger,
    ProvenanceReport,
    ProvenanceSummary,
    StrandProvenance,
    UnitOutcome,
    as_ledger,
    ledger_lines,
    load_ledger,
    write_ledger,
)
from repro.observability.forensics import (
    analyze,
    render_strand_timeline,
    render_why_summary,
)
from repro.observability.log import configure_logging, get_logger, resolve_level
from repro.observability.sampler import TelemetrySampler, current_rss_bytes
from repro.observability.runs import (
    RUNS_SCHEMA_VERSION,
    RunRecord,
    RunRegistry,
    bench_run_record,
    config_fingerprint,
    default_runs_dir,
    detect_drift,
    diff_runs,
    flatten_metrics,
    pipeline_run_record,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "load_imbalance",
    "percentile",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
    "capture_worker_spans",
    "current_worker_tracer",
    "worker_span",
    "StageProfiler",
    "TraceData",
    "load_trace",
    "render_report",
    "render_span_tree",
    "render_tracer_report",
    "span_structure",
    "to_chrome_trace",
    "trace_lines",
    "write_chrome_trace",
    "write_trace",
    "QUALITY_SCHEMA_VERSION",
    "ChannelQuality",
    "ClusteringQuality",
    "DecodingQuality",
    "ProvenanceQuality",
    "QualityReport",
    "ReconstructionQuality",
    "emit_process_gauges",
    "NULL_LEDGER",
    "PROVENANCE_SCHEMA_VERSION",
    "VERDICTS",
    "NullProvenanceLedger",
    "ProvenanceLedger",
    "ProvenanceReport",
    "ProvenanceSummary",
    "StrandProvenance",
    "UnitOutcome",
    "as_ledger",
    "ledger_lines",
    "load_ledger",
    "write_ledger",
    "analyze",
    "render_strand_timeline",
    "render_why_summary",
    "configure_logging",
    "get_logger",
    "resolve_level",
    "TelemetrySampler",
    "current_rss_bytes",
    "RUNS_SCHEMA_VERSION",
    "RunRecord",
    "RunRegistry",
    "bench_run_record",
    "config_fingerprint",
    "default_runs_dir",
    "detect_drift",
    "diff_runs",
    "flatten_metrics",
    "pipeline_run_record",
]
