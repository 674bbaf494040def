"""The pipeline's unified worker-pool abstraction.

Every embarrassingly-parallel stage (signature precomputation, gray-zone
edit verdicts, per-strand sequencing, per-cluster reconstruction, scalar
RS fallback) fans out through one :class:`WorkerPool` instead of carrying
its own ad-hoc ``ProcessPoolExecutor`` plumbing.  The pool owns exactly
the decisions those call sites used to duplicate:

* **backend** — ``workers <= 1`` runs in-process with zero overhead;
  anything above lazily starts a :class:`~concurrent.futures.ProcessPoolExecutor`
  that is reused across calls and shut down by :meth:`close` (the pool is
  a context manager);
* **chunking** — items are split into one contiguous chunk per worker
  (never more chunks than workers — :func:`plan_chunks`); small batches
  (below ``min_items``) stay serial because process round-trips would
  cost more than they save;
* **determinism** — the pool never touches RNG state.  Stages that need
  randomness derive per-item seeds via
  :func:`~repro.parallel.seeding.derive_seed`, so results are identical
  at any worker count and any chunking;
* **observability** — given a recording tracer (``tracer=`` at
  construction, or assign :attr:`tracer` later), every chunk — serial or
  process-pool — runs under its own ambient
  :class:`~repro.observability.trace.Tracer`.  The chunk's spans (at
  minimum one ``worker.chunk`` root, plus whatever the worker function
  adds via :func:`~repro.observability.trace.worker_span`) are stitched
  back under the calling span annotated with
  ``pid``/``chunk_index``/``items``, per-chunk durations feed the
  ``worker_chunk_seconds{span=...}`` histogram, and each fan-out records
  a ``worker_load_imbalance{span=...}`` gauge (max/mean chunk duration).

Worker functions must be module-level (picklable) and take
``(chunk, extra)``: a contiguous slice of the items plus one static
argument shared by every chunk.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.observability.metrics import load_imbalance
from repro.observability.trace import Tracer, capture_worker_spans, span_records

Item = TypeVar("Item")
ChunkResult = TypeVar("ChunkResult")

#: Below this many items a batch stays serial: pickling the chunk plus the
#: static argument both ways costs more than the work it would spread.
DEFAULT_MIN_ITEMS = 64


def plan_chunks(count: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` chunk bounds for *count* items.

    Always between 1 and *workers* chunks (``ceil(count / ceil(count /
    workers))`` can never exceed *workers*), covering every item exactly
    once and in order.
    """
    if count <= 0:
        return [(0, 0)]
    chunk_size = -(-count // workers)
    return [
        (start, min(start + chunk_size, count))
        for start in range(0, count, chunk_size)
    ]


def _run_captured(fn, chunk, extra):
    """Run one chunk under worker-span capture.

    Returns ``(result, export, seconds)``: the chunk result, the chunk's
    spans as ``{"pid", "spans"}`` (``spans`` being the worker tracer's
    :func:`~repro.observability.trace.span_records`), and the chunk's
    wall-clock duration.  The whole chunk runs inside a ``worker.chunk``
    root span so every fan-out contributes worker-side spans even when the
    worker function itself adds none.
    """
    with capture_worker_spans() as worker_tracer:
        with worker_tracer.span("worker.chunk", items=len(chunk)) as span:
            result = fn(chunk, extra)
    export = {
        "pid": os.getpid(),
        "spans": list(span_records(worker_tracer.roots)),
    }
    return result, export, span.duration


def _invoke(payload):
    """Process-pool trampoline: unpack ``(fn, chunk, extra, capture)`` and call."""
    fn, chunk, extra, capture = payload
    if not capture:
        return fn(chunk, extra)
    return _run_captured(fn, chunk, extra)


class WorkerPool:
    """Chunked fan-out over serial or process-pool backends.

    ``WorkerPool(1)`` is a true no-op wrapper — every call runs inline —
    so callers thread one code path and let configuration pick the
    backend.  After each fan-out :attr:`last_shards` records how many
    chunks actually ran (1 on the serial path) and, when tracing,
    :attr:`last_chunk_seconds` their individual durations; tracer spans
    report both so ``repro trace`` shows where the parallelism landed and
    how evenly it spread.
    """

    def __init__(
        self,
        workers: int = 1,
        min_items: int = DEFAULT_MIN_ITEMS,
        tracer: Optional[Tracer] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if min_items < 1:
            raise ValueError(f"min_items must be at least 1, got {min_items}")
        self.workers = workers
        self.min_items = min_items
        self.tracer = tracer
        self.last_shards = 0
        self.last_chunk_seconds: List[float] = []
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------

    def run_chunks(
        self,
        fn: Callable[[Sequence[Item], object], ChunkResult],
        items: Sequence[Item],
        extra: object = None,
        min_items: Optional[int] = None,
    ) -> List[ChunkResult]:
        """Apply *fn* to contiguous chunks of *items*; one result per chunk.

        The serial path (one worker, or fewer than ``min_items`` items)
        makes a single ``fn(items, extra)`` call, so worker functions see
        the exact same interface either way.  *min_items* overrides the
        pool-level threshold for this call only: stages whose items are
        individually heavy (per-window POA tasks, kb-scale alignments)
        pass a small value so even a handful of them fans out.
        """
        # Reset up front: a raising fn must not leave the previous
        # fan-out's values behind for span attributes to pick up.
        self.last_shards = 0
        self.last_chunk_seconds = []
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            tracer = None
        if min_items is None:
            min_items = self.min_items
        elif min_items < 1:
            raise ValueError(f"min_items must be at least 1, got {min_items}")

        if self.workers <= 1 or len(items) < min_items:
            if tracer is None:
                result = fn(items, extra)
                self.last_shards = 1
                return [result]
            base_offset = time.perf_counter() - tracer.epoch
            result, export, seconds = _run_captured(fn, items, extra)
            self.last_shards = 1
            self._stitch(tracer, [(export, seconds, len(items))], base_offset)
            return [result]

        bounds = plan_chunks(len(items), self.workers)
        if len(bounds) > self.workers:  # pragma: no cover - pinned by plan_chunks
            raise AssertionError(
                f"{len(bounds)} chunks for {self.workers} workers "
                f"({len(items)} items)"
            )
        # Slices of the original sequence go straight into the pickle —
        # wrapping them in list() again would only copy them twice.
        chunks = [items[start:stop] for start, stop in bounds]
        executor = self._ensure_executor()
        capture = tracer is not None
        base_offset = (
            time.perf_counter() - tracer.epoch if capture else 0.0
        )
        outputs = list(
            executor.map(_invoke, [(fn, chunk, extra, capture) for chunk in chunks])
        )
        self.last_shards = len(chunks)
        if not capture:
            return outputs
        self._stitch(
            tracer,
            [
                (export, seconds, len(chunk))
                for (_, export, seconds), chunk in zip(outputs, chunks)
            ],
            base_offset,
        )
        return [result for result, _, _ in outputs]

    def map_chunks(
        self,
        fn: Callable[[Sequence[Item], object], List],
        items: Sequence[Item],
        extra: object = None,
        min_items: Optional[int] = None,
    ) -> List:
        """Like :meth:`run_chunks` but concatenates the per-chunk lists.

        This is the right call when *fn* returns one result per input item
        (signatures, verdicts, reads): the concatenation restores the
        original item order.
        """
        results: List = []
        for chunk_result in self.run_chunks(fn, items, extra, min_items=min_items):
            results.extend(chunk_result)
        return results

    # ------------------------------------------------------------------
    # Worker-span stitching
    # ------------------------------------------------------------------

    def _stitch(self, tracer: Tracer, chunk_exports, base_offset: float) -> None:
        """Merge worker exports into *tracer* and record balance metrics.

        Chunk spans land under the currently open span; the per-chunk
        duration histogram and the fan-out's load-imbalance gauge are
        labelled with that span's name so every fan-out site gets its own
        series.
        """
        durations: List[float] = []
        for chunk_index, (export, seconds, item_count) in enumerate(chunk_exports):
            tracer.attach_worker_export(
                export,
                chunk_index=chunk_index,
                items=item_count,
                base_offset=base_offset,
            )
            durations.append(seconds)
        self.last_chunk_seconds = durations
        calling = tracer.current_span()
        stage = calling.name if calling is not None else "unscoped"
        histogram = tracer.metrics.histogram("worker_chunk_seconds", span=stage)
        for seconds in durations:
            histogram.observe(seconds)
        imbalance = load_imbalance(durations)
        # The gauge keeps the *worst* fan-out at this site (imbalance is
        # always >= 1.0, gauges default to 0.0), so one lopsided round is
        # not papered over by a balanced later one.
        gauge = tracer.metrics.gauge("worker_load_imbalance", span=stage)
        gauge.set(max(gauge.value, imbalance))
        if calling is not None:
            calling.set("load_imbalance", round(imbalance, 3))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def close(self) -> None:
        """Shut down the backing executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        backend = "serial" if self.workers <= 1 else "process"
        return f"WorkerPool(workers={self.workers}, backend={backend!r})"

