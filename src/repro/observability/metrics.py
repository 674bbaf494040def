"""Process-wide metrics: counters, gauges and percentile histograms.

The registry is the quantitative half of the observability layer (the
tracer in :mod:`repro.observability.trace` is the temporal half): stages
increment labelled instruments — ``rs_decode_errors_corrected``,
``clusters_formed``, ``reads_discarded``, ``bma_lookahead_invocations`` —
and the exporter renders them next to the span latencies so one report
answers both "where did the time go" and "what did each stage do".

Instruments are keyed by ``(name, labels)``; asking for the same key twice
returns the same instrument, so call sites never need to coordinate.  A
shared no-op registry (:data:`NULL_REGISTRY`) backs the no-op tracer:
its instruments discard every update, keeping disabled instrumentation
free of memory growth.

The registry and its instruments are thread-safe: a registry-wide lock is
shared by every instrument it creates, so a stage thread updating counters
can race the :class:`~repro.observability.sampler.TelemetrySampler` thread
calling :meth:`MetricsRegistry.snapshot` without torn reads or
``RuntimeError: dictionary changed size during iteration``.  The lock is
dropped on pickling.  Instruments cross no process boundary: a worker
chunk returns its counts inside its chunk result (as the reconstructors
do) and its spans as plain
:func:`~repro.observability.trace.span_records`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default ("linear") method, implemented
    locally so the metrics layer stays dependency-free.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


class _Locked:
    """Mixin: a (possibly shared) lock that pickling drops and recreates."""

    __slots__ = ()

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for cls in type(self).__mro__
            for slot in getattr(cls, "__slots__", ())
            if slot != "_lock"
        }

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.RLock()


class Counter(_Locked):
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.value = 0
        self._lock = lock if lock is not None else threading.RLock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Gauge(_Locked):
    """A point-in-time value (last write wins)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram(_Locked):
    """A distribution summarised by count/sum/min/max and p50/p90/p99."""

    __slots__ = ("observations", "_lock")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.observations: List[float] = []
        self._lock = lock if lock is not None else threading.RLock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.observations.append(float(value))

    @property
    def count(self) -> int:
        return len(self.observations)

    def quantile(self, q: float) -> float:
        with self._lock:
            return percentile(self.observations, q)

    def summary(self) -> Dict[str, float]:
        """The exported shape: count, sum, min/max, mean and percentiles."""
        with self._lock:
            observations = list(self.observations)
        if not observations:
            return {"count": 0, "sum": 0.0}
        return {
            "count": len(observations),
            "sum": sum(observations),
            "min": min(observations),
            "max": max(observations),
            "mean": sum(observations) / len(observations),
            "p50": percentile(observations, 50),
            "p90": percentile(observations, 90),
            "p99": percentile(observations, 99),
        }


def render_key(name: str, labels: Dict[str, str]) -> str:
    """Flat ``name{label=value,...}`` key used by snapshots and samples."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home for every instrument in a run.

    One :class:`threading.RLock` guards the instrument tables *and* is
    shared by every instrument the registry hands out, so
    :meth:`snapshot` sees a consistent point in time even while other
    threads are incrementing and observing.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- instrument accessors ------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(self._lock)
            return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(self._lock)
            return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(self._lock)
            return instrument

    # -- iteration (sorted for stable reports) -------------------------

    def counters(self) -> Iterator[Tuple[str, Dict[str, str], Counter]]:
        with self._lock:
            items = sorted(self._counters.items())
        for (name, labels), counter in items:
            yield name, dict(labels), counter

    def gauges(self) -> Iterator[Tuple[str, Dict[str, str], Gauge]]:
        with self._lock:
            items = sorted(self._gauges.items())
        for (name, labels), gauge in items:
            yield name, dict(labels), gauge

    def histograms(self) -> Iterator[Tuple[str, Dict[str, str], Histogram]]:
        with self._lock:
            items = sorted(self._histograms.items())
        for (name, labels), histogram in items:
            yield name, dict(labels), histogram

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters) + len(self._gauges) + len(self._histograms)
            )

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A consistent point-in-time copy of every instrument.

        Returns a JSON-ready mapping::

            {"counters":   {"name{label=v}": int},
             "gauges":     {"name{label=v}": float},
             "histograms": {"name{label=v}": {"count": ..., "p50": ...}}}

        Taken under the registry lock, so no instrument moves while the
        copy is built — this is what the telemetry sampler thread calls.
        """
        with self._lock:
            counters = {
                render_key(name, dict(labels)): counter.value
                for (name, labels), counter in sorted(self._counters.items())
            }
            gauges = {
                render_key(name, dict(labels)): gauge.value
                for (name, labels), gauge in sorted(self._gauges.items())
            }
            histograms = {
                render_key(name, dict(labels)): histogram.summary()
                for (name, labels), histogram in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _NullInstrument:
    """Accepts every update and remembers none of them."""

    __slots__ = ()
    value = 0
    observations: List[float] = []
    count = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: one shared instrument, zero retention."""

    def counter(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: object):  # type: ignore[override]
        return _NULL_INSTRUMENT


#: Shared no-op registry used by the no-op tracer.
NULL_REGISTRY = NullMetricsRegistry()


def load_imbalance(durations: Sequence[float]) -> float:
    """Max/mean chunk duration for one fan-out: 1.0 is perfectly balanced.

    The metric the worker pool records per fan-out (gauge
    ``worker_load_imbalance{span=...}``): at *w* equal chunks it stays at
    1.0, while one straggler chunk doing all the work pushes it toward
    *w*.  Empty or sub-resolution fan-outs (all-zero durations) report 1.0
    — nothing measurable was unbalanced.
    """
    if not durations:
        return 1.0
    mean = sum(durations) / len(durations)
    if mean <= 0.0:
        return 1.0
    return max(durations) / mean


def emit_process_gauges(metrics: MetricsRegistry) -> None:
    """Record process resource usage as gauges (peak RSS, CPU time).

    CPU times sum the process itself and its reaped children, so worker-
    pool runs report the whole fan-out.  ``ru_maxrss`` is kibibytes on
    Linux but bytes on macOS; both normalise to bytes here.  A no-op on
    platforms without the :mod:`resource` module (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    import sys

    scale = 1 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics.gauge("process_peak_rss_bytes").set(
        max(own.ru_maxrss, children.ru_maxrss) * scale
    )
    metrics.gauge("process_user_cpu_seconds").set(own.ru_utime + children.ru_utime)
    metrics.gauge("process_sys_cpu_seconds").set(own.ru_stime + children.ru_stime)
