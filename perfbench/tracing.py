"""The traced run: spans around each layer's public entry points.

:func:`instrument` wraps, for the duration of a ``with`` block only, the
layer entry points ``Pipeline.run`` calls — ``DNAEncoder.encode``, the
``sequence_pool`` the pipeline module imports, ``RashtchianClusterer.cluster``,
``Reconstructor.reconstruct_all``, ``DNADecoder.decode``,
``WorkerPool.run_chunks`` and the four quality functions — so the program
itself is never edited.  Each call becomes a :class:`Span` (name, start,
end, parent, object id) kept in a :class:`SpanRecorder` in memory and
written out once the run ends.

:func:`object_layers` turns one object's spans into per-layer numbers:
inclusive busy time per layer, the counts the wrappers read off each
call's result, each top-level layer's share of the object's wall time,
and ``pipeline.self_s`` — the remainder of ``Pipeline.run`` time that no
wrapped layer covers (building the read pool, starting and stopping the
worker pool, assembling the result), so the top-level layers plus
``pipeline.self_s`` add up to the traced wall time by construction.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.clustering.rashtchian import RashtchianClusterer
from repro.codec.decoder import DNADecoder
from repro.codec.encoder import DNAEncoder
from repro.parallel import WorkerPool
from repro.pipeline import pipeline as pipeline_module
from repro.reconstruction.base import Reconstructor

#: span name -> layer it is billed to in the wall-time accounting
LAYER_OF = {
    "codec.encoder": "codec",
    "codec.decoder": "codec",
    "simulation": "simulation",
    "clustering": "clustering",
    "reconstruction": "reconstruction",
    "pipeline.quality": "pipeline.quality",
    "parallel": "parallel",
}
ROOT_SPAN = "pipeline.run"
QUALITY_FUNCTIONS = (
    "observe_channel_quality",
    "cluster_quality",
    "reconstruction_quality",
    "decoding_quality",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    object_id: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store; :attr:`object_id` tags every span opened."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.object_id = 0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.object_id)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        """Write every span as JSON, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        rows = []
        for index, span in enumerate(self.spans):
            row = asdict(span)
            row.update(index=index, start=span.start - origin, end=span.end - origin)
            rows.append(row)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}, indent=1))


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _encoder_attrs(attrs, args, result) -> None:
    attrs["strands"] = len(result.references)


def _decoder_attrs(attrs, args, result) -> None:
    report = result[1]
    attrs.update(
        rows_clean=report.clean_rows,
        rows_corrected=report.corrected_rows,
        rows_failed=report.failed_rows,
        symbols_corrected=report.symbols_corrected,
        missing_columns=report.missing_columns,
    )


def _simulation_attrs(attrs, args, result) -> None:
    attrs.update(reads=len(result.reads), dropouts=len(result.dropouts))


def _clustering_attrs(attrs, args, result) -> None:
    attrs.update(
        signature_s=result.signature_seconds,
        rounds_s=result.clustering_seconds,
        signature_comparisons=result.signature_comparisons,
        edit_comparisons=result.edit_comparisons,
        merges=result.merges,
        clusters=len(result.clusters),
    )


def _reconstruction_attrs(attrs, args, result) -> None:
    clusters = args[1]
    attrs.update(clusters=len(clusters), reads_in=sum(len(c) for c in clusters))


def _parallel_attrs(attrs, args, result) -> None:
    shards = args[0].last_shards
    attrs.update(shards=shards, serial=int(shards == 1))


def _wrap(recorder: SpanRecorder, name: str, original: Callable, annotate) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as attrs:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(attrs, args, result)
        return result

    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap the layer entry points while the block runs; restore them after."""
    targets = [
        (DNAEncoder, "encode", "codec.encoder", _encoder_attrs),
        (DNADecoder, "decode", "codec.decoder", _decoder_attrs),
        (pipeline_module, "sequence_pool", "simulation", _simulation_attrs),
        (RashtchianClusterer, "cluster", "clustering", _clustering_attrs),
        (Reconstructor, "reconstruct_all", "reconstruction", _reconstruction_attrs),
        (WorkerPool, "run_chunks", "parallel", _parallel_attrs),
    ] + [(pipeline_module, fn, "pipeline.quality", None) for fn in QUALITY_FUNCTIONS]
    saved = []
    try:
        for owner, attr, name, annotate in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, annotate))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-object layer numbers
# ----------------------------------------------------------------------


def self_time(spans: List[Span], index: int) -> float:
    """Span *index*'s duration minus its child spans' durations.

    Spans nest like the calls they wrap, so children never overlap.
    """
    return spans[index].duration - sum(
        child.duration for child in spans if child.parent == index
    )


def _has_ancestor_named(spans: List[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def object_layers(recorder: SpanRecorder, object_id: int) -> Dict[str, float]:
    """Per-layer numbers for one traced object (times in s, counts as given).

    Keys: ``wall_s`` (sum of root spans), ``<span>.busy_s`` (inclusive,
    outermost span of each name), ``<span>.calls``, the summed integer
    attributes as ``<span>.<attr>``, ``pipeline.self_s`` and
    ``<layer>.top_s`` — the time each layer spent directly under the root.
    """
    spans = recorder.spans
    mine = [i for i, span in enumerate(spans) if span.object_id == object_id]
    out: Dict[str, float] = {"wall_s": 0.0, "pipeline.self_s": 0.0}
    for layer in set(LAYER_OF.values()):
        out[f"{layer}.top_s"] = 0.0
    for index in mine:
        span = spans[index]
        if not _has_ancestor_named(spans, span, span.name):
            out[f"{span.name}.busy_s"] = out.get(f"{span.name}.busy_s", 0.0) + span.duration
        out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
        for key, value in span.attrs.items():
            out[f"{span.name}.{key}"] = out.get(f"{span.name}.{key}", 0) + value
        if span.parent is not None:
            continue
        out["wall_s"] += span.duration
        if span.name == ROOT_SPAN:
            out["pipeline.self_s"] += self_time(spans, index)
            for child in mine:
                if spans[child].parent == index:
                    out[f"{LAYER_OF[spans[child].name]}.top_s"] += spans[child].duration
        else:
            out[f"{LAYER_OF[span.name]}.top_s"] += span.duration
    return out
