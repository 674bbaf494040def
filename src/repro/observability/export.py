"""Serialisation and report rendering for traces and metrics.

The on-disk format is JSONL — one self-describing object per line — so a
trace can be streamed, grepped, and diffed:

* ``{"kind": "span", "id": 3, "parent": 1, "name": ..., "start": ...,
  "duration": ..., "attributes": {...}}`` — spans appear in depth-first
  order; ``parent`` reconstructs the nesting.  The record is the one
  :func:`~repro.observability.trace.span_records` yields, read back by
  :func:`~repro.observability.trace.spans_from_records` — the same pair
  that carries worker spans across processes.
* ``{"kind": "counter"|"gauge", "name": ..., "labels": {...},
  "value": ...}``
* ``{"kind": "histogram", "name": ..., "labels": {...},
  "summary": {"count": ..., "p50": ..., ...}}``

:func:`load_trace` reads the format back into a :class:`TraceData`;
:func:`render_report` turns one into the plain-text latency/counter
report behind ``repro trace`` (reusing
:func:`repro.analysis.reporting.format_table`).

:func:`to_chrome_trace` / :func:`write_chrome_trace` convert either
representation to the Chrome Trace Event Format (``repro trace --chrome``,
``--trace-out``): one complete-event ("X") per span with microsecond
timestamps, one ``pid`` lane per worker process, so fan-outs render as
parallel tracks in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.analysis.reporting import format_table
from repro.observability.trace import (
    Span,
    Tracer,
    span_records,
    spans_from_records,
)

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def trace_lines(tracer: Tracer) -> Iterator[str]:
    """Serialise *tracer*'s spans and metrics as JSONL lines."""
    yield json.dumps({"kind": "meta", "version": FORMAT_VERSION})
    for record in span_records(tracer.roots):
        yield json.dumps({"kind": "span", **record}, default=str)

    for name, labels, counter in tracer.metrics.counters():
        yield json.dumps(
            {"kind": "counter", "name": name, "labels": labels, "value": counter.value}
        )
    for name, labels, gauge in tracer.metrics.gauges():
        yield json.dumps(
            {"kind": "gauge", "name": name, "labels": labels, "value": gauge.value}
        )
    for name, labels, histogram in tracer.metrics.histograms():
        yield json.dumps(
            {
                "kind": "histogram",
                "name": name,
                "labels": labels,
                "summary": histogram.summary(),
            }
        )


def write_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write *tracer* to *path* as JSONL; returns the path."""
    path = Path(path)
    path.write_text("\n".join(trace_lines(tracer)) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


@dataclass
class TraceData:
    """A deserialised trace: span trees plus flattened metric records."""

    roots: List[Span] = field(default_factory=list)
    counters: List[Tuple[str, Dict[str, str], int]] = field(default_factory=list)
    gauges: List[Tuple[str, Dict[str, str], float]] = field(default_factory=list)
    histograms: List[Tuple[str, Dict[str, str], Dict[str, float]]] = field(
        default_factory=list
    )

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        return [span for span in self.walk() if span.name == name]


def load_trace(source: Union[str, Path, Iterable[str]]) -> TraceData:
    """Parse a JSONL trace from a path or an iterable of lines."""
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source
    trace = TraceData()
    spans: List[Tuple[int, object]] = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise ValueError(f"line {number}: {error}") from None
        if not isinstance(record, dict) or record.get("kind") == "span":
            # spans_from_records validates these (a non-object included).
            spans.append((number, record))
            continue
        kind = record.get("kind")
        if kind == "meta":
            continue
        if kind == "counter":
            trace.counters.append(
                (record["name"], dict(record.get("labels", {})), int(record["value"]))
            )
        elif kind == "gauge":
            trace.gauges.append(
                (record["name"], dict(record.get("labels", {})), float(record["value"]))
            )
        elif kind == "histogram":
            trace.histograms.append(
                (record["name"], dict(record.get("labels", {})), dict(record["summary"]))
            )
        else:
            raise ValueError(f"line {number}: unknown trace record kind {kind!r}")
    trace.roots = spans_from_records(spans)
    return trace


# ----------------------------------------------------------------------
# Chrome Trace Event Format (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------

#: The synthetic pid of the parent process's lane (worker lanes use the
#: real OS pid stitched into their span attributes; OS pid 1 is init and
#: can never collide with a worker).
MAIN_LANE_PID = 1


def to_chrome_trace(source: Union[Tracer, "TraceData"]) -> Dict:
    """Convert a live tracer or loaded trace to Chrome Trace Event JSON.

    Every span becomes one complete event (``"ph": "X"``) with
    microsecond ``ts``/``dur`` and its attributes under ``args``.  Spans
    stitched from workers carry a ``pid`` attribute; they and their
    descendants land in that worker's lane, with one thread track per
    ``chunk_index`` so chunks that shared a worker process never overlap
    on a track.  Everything else lives in the ``main`` lane.  Process
    lanes are named via ``process_name`` metadata events.
    """
    events: List[Dict] = []
    worker_pids = set()

    def visit(span: Span, pid: int, tid: int) -> None:
        attr_pid = span.attributes.get("pid")
        if isinstance(attr_pid, int):
            pid = attr_pid
            tid = int(span.attributes.get("chunk_index", 0)) + 1
            worker_pids.add(pid)
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": dict(span.attributes),
            }
        )
        for child in span.children:
            visit(child, pid, tid)

    for root in source.roots:
        visit(root, MAIN_LANE_PID, 1)

    metadata = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": MAIN_LANE_PID,
            "tid": 0,
            "args": {"name": "main"},
        }
    ]
    for pid in sorted(worker_pids):
        metadata.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"worker {pid}"},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    source: Union[Tracer, "TraceData"], path: Union[str, Path]
) -> Path:
    """Write *source* as a Chrome trace JSON file; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(to_chrome_trace(source), default=str) + "\n", encoding="utf-8"
    )
    return path


def span_structure(roots: List[Span]):
    """A worker-count-invariant signature of the span tree's shape.

    Captures which span names appear and how they nest, collapsing the
    multiplicity of same-named siblings — fan-outs repeat ``worker.chunk``
    once per chunk, and the chunk count is the one thing that legitimately
    varies with ``--workers``.  Two traces of the same workload therefore
    compare equal at any worker count, while a missing stage, a renamed
    span, or a hierarchy change shows up as a signature difference.
    """

    def signature(span: Span):
        return (
            span.name,
            tuple(sorted({signature(child) for child in span.children})),
        )

    return tuple(sorted({signature(root) for root in roots}))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _format_labels(labels: Dict[str, str]) -> str:
    return ",".join(f"{key}={value}" for key, value in sorted(labels.items())) or "-"


def render_span_tree(roots: List[Span], precision: int = 4) -> str:
    """An indented per-span breakdown (one line per span, tree order)."""
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        attrs = (
            " [" + ", ".join(f"{k}={v}" for k, v in span.attributes.items()) + "]"
            if span.attributes
            else ""
        )
        lines.append(
            f"{'  ' * depth}{span.name}  {span.duration:.{precision}f}s{attrs}"
        )
        for child in span.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


def aggregate_spans(roots: List[Span]) -> List[Tuple[str, int, float, float, float, float]]:
    """Per-name rollup: (name, calls, total, mean, min, max), tree order."""
    order: List[str] = []
    stats: Dict[str, List[float]] = {}

    def visit(span: Span) -> None:
        if span.name not in stats:
            stats[span.name] = []
            order.append(span.name)
        stats[span.name].append(span.duration)
        for child in span.children:
            visit(child)

    for root in roots:
        visit(root)
    return [
        (
            name,
            len(durations),
            sum(durations),
            sum(durations) / len(durations),
            min(durations),
            max(durations),
        )
        for name in order
        for durations in (stats[name],)
    ]


def render_report(trace: TraceData, title: str = "trace report") -> str:
    """The human-readable latency + counters report for a loaded trace."""
    sections: List[str] = []

    if trace.roots:
        # Percentages are of wall time (the sum of root spans); nested spans
        # overlap their parents, so the column does not sum to 100%.
        wall = sum(root.duration for root in trace.roots)
        # Total-duration descending, with equal-duration spans ordered by
        # name so the report is stable across runs (spans that measure
        # nothing, e.g. sub-resolution stages, routinely tie at 0.0).
        aggregated = sorted(
            aggregate_spans(trace.roots),
            key=lambda entry: (-entry[2], entry[0]),
        )
        rows = [
            [
                name,
                str(calls),
                f"{total:.4f}",
                f"{total / wall:.1%}" if wall > 0 else "-",
                f"{mean:.4f}",
                f"{low:.4f}",
                f"{high:.4f}",
            ]
            for name, calls, total, mean, low, high in aggregated
        ]
        sections.append(
            format_table(
                ["span", "calls", "total s", "% wall", "mean s", "min s", "max s"],
                rows,
                title=f"{title} - span latency",
            )
        )
        sections.append("span tree\n" + render_span_tree(trace.roots))

    imbalance = [
        (labels.get("span", "-"), value)
        for name, labels, value in trace.gauges
        if name == "worker_load_imbalance"
    ]
    if imbalance:
        # One row per fan-out site: how many chunks ran (histogram count)
        # and how lopsided the slowest one was (gauge, 1.0 = balanced).
        chunk_stats = {
            labels.get("span", "-"): summary
            for name, labels, summary in trace.histograms
            if name == "worker_chunk_seconds"
        }
        rows = []
        for stage, value in sorted(imbalance):
            summary = chunk_stats.get(stage, {})
            rows.append(
                [
                    stage,
                    str(int(summary.get("count", 0))),
                    f"{summary.get('mean', 0.0):.4g}",
                    f"{summary.get('max', 0.0):.4g}",
                    f"{value:.3f}",
                ]
            )
        sections.append(
            format_table(
                ["fan-out", "chunks", "mean chunk s", "max chunk s", "imbalance"],
                rows,
                title="fan-out balance (imbalance = max/mean chunk duration; 1.0 = even)",
            )
        )

    if trace.counters:
        rows = [
            [name, _format_labels(labels), str(value)]
            for name, labels, value in trace.counters
        ]
        sections.append(
            format_table(["counter", "labels", "value"], rows, title="counters")
        )

    if trace.gauges:
        rows = [
            [name, _format_labels(labels), f"{value:g}"]
            for name, labels, value in trace.gauges
        ]
        sections.append(format_table(["gauge", "labels", "value"], rows, title="gauges"))

    if trace.histograms:
        rows = [
            [
                name,
                _format_labels(labels),
                str(int(summary.get("count", 0))),
                f"{summary.get('mean', 0.0):.4g}",
                f"{summary.get('p50', 0.0):.4g}",
                f"{summary.get('p90', 0.0):.4g}",
                f"{summary.get('p99', 0.0):.4g}",
                f"{summary.get('max', 0.0):.4g}",
            ]
            for name, labels, summary in trace.histograms
        ]
        sections.append(
            format_table(
                ["histogram", "labels", "count", "mean", "p50", "p90", "p99", "max"],
                rows,
                title="histograms",
            )
        )

    if not sections:
        return f"{title}: empty trace"
    return "\n\n".join(sections)


def render_tracer_report(tracer: Tracer, title: str = "trace report") -> str:
    """Render a live tracer without the disk round trip."""
    return render_report(load_trace(trace_lines(tracer)), title=title)
