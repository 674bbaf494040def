"""Opt-in per-stage resource profiling: tracemalloc memory + GC activity.

A :class:`StageProfiler` rides along with a profiling tracer
(``Tracer(profile=True)``): every *top-level* stage span — roots and their
direct children, which is exactly the ``pipeline.<stage>`` layer — gains
three attributes on exit:

* ``mem_current_kb`` — Python-heap bytes alive when the stage ended;
* ``mem_peak_kb`` — the allocation high-water mark inside the stage;
* ``gc_collections`` — cyclic-GC passes that ran during the stage.

Deeper spans are left alone: tracemalloc makes every allocation ~2× more
expensive, so sampling is restricted to the layer whose numbers the
``repro trace`` report actually aggregates, and the whole machinery stays
off unless ``profile=True`` (or the CLI's ``--profile``) asked for it.

tracemalloc's peak counter is process-global, so nesting needs care: the
profiler resets the peak at every profiled enter and folds each child's
observed peak back into its parent's running maximum, which keeps parent
peaks correct even though children clobber the global counter.  When the
last profiled span closes, the profiler stops tracemalloc again if it was
the one to start it, so later code in the process runs untraced.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Any, List


def _gc_collections() -> int:
    """Total cyclic-GC passes so far, summed over the generations."""
    return sum(stat.get("collections", 0) for stat in gc.get_stats())


class StageProfiler:
    """Samples tracemalloc + GC deltas around top-level stage spans."""

    def __init__(self) -> None:
        # Each frame: [span, gc_collections at enter, children's max peak].
        self._frames: List[List[Any]] = []
        self._started_tracemalloc = False

    def _ensure_tracing(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def enter(self, span) -> None:
        """Open a profiled window for *span* (called by ``Tracer._push``)."""
        self._ensure_tracing()
        tracemalloc.reset_peak()
        self._frames.append([span, _gc_collections(), 0])

    def exit(self, span) -> bool:
        """Close *span*'s window if it is the innermost profiled one.

        ``Tracer._pop`` calls this for every span; anything that is not the
        top profiled frame (deeper, unprofiled spans) is ignored.
        """
        if not self._frames or self._frames[-1][0] is not span:
            return False
        _, gc_at_enter, child_peak = self._frames.pop()
        current, peak = tracemalloc.get_traced_memory()
        peak = max(peak, child_peak)
        span.set("mem_current_kb", round(current / 1024, 1))
        span.set("mem_peak_kb", round(peak / 1024, 1))
        span.set("gc_collections", _gc_collections() - gc_at_enter)
        if self._frames:
            parent = self._frames[-1]
            parent[2] = max(parent[2], peak)
            tracemalloc.reset_peak()  # fresh window for the parent's tail
        else:
            # Last profiled frame closed: stop paying for tracemalloc.
            self.close()
        return True

    def close(self) -> None:
        """Stop tracemalloc if this profiler started it (idempotent)."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False
        self._frames = []
