"""Hierarchical wall-clock spans: the temporal half of observability.

A :class:`Tracer` hands out context-manager spans that nest::

    tracer = Tracer()
    with tracer.span("pipeline.run"):
        with tracer.span("clustering.signatures", reads=len(reads)) as span:
            ...
            span.set("signature_bytes", total)

Every span records its start offset (relative to the tracer's epoch), its
wall-clock duration, free-form key/value attributes, and its children.
Stage rollups read ``span.duration`` directly, which is how the pipeline's
:class:`~repro.pipeline.stats.StageTimings` stays populated without a
single bare ``perf_counter()`` pair.

The default throughout the toolkit is :data:`NULL_TRACER`: its spans still
measure duration (so rollups keep working untraced) but retain nothing —
no tree, no attributes, no metrics — making disabled instrumentation cost
exactly what the old hand-rolled ``perf_counter()`` pairs did.

A span tree has one flat form, :func:`span_records` (depth-first
``id``/``parent`` records), and one way back, :func:`spans_from_records`.
The JSONL trace file writes and reads it, and so does tracing across
process boundaries: the worker-pool trampoline installs a plain
:class:`Tracer` per chunk (see :func:`capture_worker_spans`), worker code
adds spans through the ambient :func:`worker_span`, the chunk ships its
span records back, and the parent grafts them into its own tree with
:meth:`Tracer.attach_worker_export` — re-based onto the parent epoch and
annotated with ``pid``/``chunk_index``/``items``, so one merged tree
covers the whole fan-out.

Tracers are not thread-safe; use one per thread (or per pipeline run).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.observability.metrics import NULL_REGISTRY, MetricsRegistry


class Span:
    """One timed region; a context manager vended by :meth:`Tracer.span`."""

    __slots__ = ("name", "attributes", "start", "duration", "children", "_tracer", "_t0")

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        _tracer: Optional["Tracer"] = None,
    ):
        self.name = name
        self.attributes: Dict[str, Any] = attributes or {}
        self.start = 0.0
        self.duration = 0.0
        self.children: List[Span] = []
        self._tracer = _tracer
        self._t0 = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self._t0 = time.perf_counter()
        if self._tracer is not None:
            self.start = self._t0 - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._t0
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"attributes={self.attributes!r}, children={len(self.children)})"
        )


class Tracer:
    """Builds a tree of :class:`Span` objects plus a metrics registry.

    ``profile=True`` attaches a
    :class:`~repro.observability.profile.StageProfiler`: top-level stage
    spans (roots and their direct children) then record tracemalloc
    current/peak memory and GC collection counts as span attributes.
    """

    enabled = True

    def __init__(
        self, metrics: Optional[MetricsRegistry] = None, profile: bool = False
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self.epoch = time.perf_counter()
        self.profiler = None
        if profile:
            from repro.observability.profile import StageProfiler

            self.profiler = StageProfiler()

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; enter it (``with``) to start the clock."""
        return Span(name, attributes, _tracer=self)

    # -- stack discipline (driven by Span.__enter__/__exit__) ----------

    def _push(self, span: Span) -> None:
        depth = len(self._stack)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        if self.profiler is not None and depth <= 1:
            self.profiler.enter(span)

    def _pop(self, span: Span) -> None:
        if self.profiler is not None:
            self.profiler.exit(span)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)

    # -- queries -------------------------------------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def walk(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        """All spans named *name* (e.g. every ``clustering.signatures``)."""
        return [span for span in self.walk() if span.name == name]

    def reset(self) -> None:
        """Drop recorded spans and re-base the epoch (metrics are left alone)."""
        self.roots = []
        self._stack = []
        self.epoch = time.perf_counter()

    # -- distributed capture -------------------------------------------

    def attach_worker_export(
        self,
        export: Dict[str, Any],
        chunk_index: int,
        items: int,
        base_offset: float = 0.0,
    ) -> List[Span]:
        """Graft one worker chunk's exported spans into this tracer's tree.

        *export* is ``{"pid", "spans"}``, with ``spans`` the worker tracer's
        :func:`span_records`.  The rebuilt spans become children of the
        currently open span (or new roots); each worker-side root is
        annotated with the worker ``pid`` plus its ``chunk_index``/``items``
        within the fan-out, and every start offset is re-based by
        *base_offset* — the fan-out's start relative to this tracer's epoch
        — so the merged timeline is consistent.
        """
        roots = spans_from_records(
            enumerate(export.get("spans", ()), 1), offset=base_offset
        )
        for root in roots:
            root.attributes.setdefault("pid", export.get("pid"))
            root.attributes.setdefault("chunk_index", chunk_index)
            root.attributes.setdefault("items", items)
        target = self.current_span()
        if target is not None:
            target.children.extend(roots)
        else:
            self.roots.extend(roots)
        return roots


class _NullSpan:
    """A span that measures its duration but retains nothing else.

    Durations must survive even with tracing disabled because stage
    rollups (``StageTimings``, ``ClusteringResult.signature_seconds``,
    ``TrainingHistory.seconds``) are part of the library's regular
    return values, not optional diagnostics.

    ``attributes``/``children`` are fresh per instance: callers that write
    ``span.attributes[...]`` directly (bypassing the no-op :meth:`set`)
    must not leak state into every other null span in the process.
    """

    __slots__ = ("duration", "_t0", "attributes", "children")

    name = ""
    start = 0.0

    def __init__(self) -> None:
        self.duration = 0.0
        self._t0 = 0.0
        self.attributes: Dict[str, Any] = {}
        self.children: List[Span] = []

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._t0
        return False


class NullTracer:
    """The disabled tracer: timing-only spans, no-op metrics, no state."""

    enabled = False
    metrics = NULL_REGISTRY
    roots: List[Span] = []

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NullSpan()

    def current_span(self) -> None:
        return None

    def walk(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> List[Span]:
        return []

    def reset(self) -> None:
        pass


#: Shared default tracer: safe to pass everywhere, records nothing.
NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional["Tracer"]) -> "Tracer":
    """Normalise an optional tracer argument (``None`` -> no-op)."""
    return NULL_TRACER if tracer is None else tracer


# ----------------------------------------------------------------------
# Span records: the one flat form of a span tree
# ----------------------------------------------------------------------


def span_records(roots: Iterable[Span]) -> Iterator[Dict[str, Any]]:
    """Flatten span trees into records, depth-first.

    Each record is ``{"id", "parent", "name", "start", "duration",
    "attributes"}``: ids count from 1 in depth-first order and ``parent``
    is the parent's id (0 for a root).  This is the span line of the JSONL
    trace file (minus its ``kind``) and the span list a worker chunk ships
    back to the parent process.
    """
    next_id = 0

    def emit(span: Span, parent: int) -> Iterator[Dict[str, Any]]:
        nonlocal next_id
        next_id += 1
        span_id = next_id
        yield {
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "start": span.start,
            "duration": span.duration,
            "attributes": span.attributes,
        }
        for child in span.children:
            yield from emit(child, span_id)

    for root in roots:
        yield from emit(root, 0)


def spans_from_records(
    records: Iterable[Tuple[int, Any]], offset: float = 0.0
) -> List[Span]:
    """Rebuild span trees from numbered records; the inverse of :func:`span_records`.

    *records* yields ``(number, record)`` pairs, where *number* locates the
    record in its source (a trace file's line number) for error messages.
    Every start is shifted by *offset*.  A record whose ``parent`` names no
    earlier record becomes a root.  Returns the roots; raises
    :class:`ValueError` for a record that is not an object, lacks one of
    ``id``/``name``/``start``/``duration``, or holds a value of the wrong
    type (a non-numeric time, non-object ``attributes``, a list id).
    """
    roots: List[Span] = []
    by_id: Dict[Any, Span] = {}
    for number, record in records:
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: span record is not a JSON object")
        missing = [
            key for key in ("id", "name", "start", "duration") if key not in record
        ]
        if missing:
            raise ValueError(
                f"line {number}: span record lacks {', '.join(missing)}"
            )
        try:
            span = Span(record["name"], dict(record.get("attributes", {})))
            span.start = offset + float(record["start"])
            span.duration = float(record["duration"])
            by_id[record["id"]] = span
            parent = by_id.get(record.get("parent") or 0)
        except (TypeError, ValueError) as error:
            raise ValueError(f"line {number}: bad span record: {error}") from None
        if parent is None:
            roots.append(span)
        else:
            parent.children.append(span)
    return roots


# ----------------------------------------------------------------------
# Worker-side capture
# ----------------------------------------------------------------------

#: The ambient per-process worker tracer (installed by the pool trampoline).
_WORKER_TRACER: Optional[Tracer] = None


def current_worker_tracer() -> Optional[Tracer]:
    """The ambient worker :class:`Tracer`, or ``None`` outside capture."""
    return _WORKER_TRACER


def worker_span(name: str, **attributes: Any):
    """A span on the ambient worker tracer (a no-op span outside capture).

    Worker-pool chunk functions call this instead of threading a tracer
    through their ``(chunk, extra)`` interface; the spans surface in the
    parent's merged tree when the fan-out runs under a recording tracer.
    """
    if _WORKER_TRACER is None:
        return _NullSpan()
    return _WORKER_TRACER.span(name, **attributes)


@contextmanager
def capture_worker_spans() -> Iterator[Tracer]:
    """Install a fresh ambient worker :class:`Tracer` for one chunk."""
    global _WORKER_TRACER
    previous = _WORKER_TRACER
    tracer = Tracer()
    _WORKER_TRACER = tracer
    try:
        yield tracer
    finally:
        _WORKER_TRACER = previous
