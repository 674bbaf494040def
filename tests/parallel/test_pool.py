"""Tests for the unified worker-pool layer (`repro.parallel`)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import Tracer, span_structure
from repro.parallel import DEFAULT_MIN_ITEMS, WorkerPool, derive_seed
from repro.parallel.pool import plan_chunks


def _double_chunk(items, extra):
    """Module-level (picklable) worker: doubles every item, adds extra."""
    return [item * 2 + extra for item in items]


def _summarise_chunk(items, extra):
    """Worker returning one aggregate per chunk (run_chunks interface)."""
    return (len(items), sum(items))


def _traced_chunk(items, extra):
    """Picklable worker that records its own worker-side spans and metrics."""
    from repro.observability.trace import current_worker_tracer, worker_span

    with worker_span("chunk.work", n=len(items)):
        with worker_span("chunk.inner"):
            pass
    tracer = current_worker_tracer()
    if tracer is not None:
        tracer.inc_counter("chunk_calls")
        tracer.set_gauge("chunk_items", len(items))
    return [item + 1 for item in items]


def _raising_chunk(items, extra):
    raise RuntimeError("worker exploded")


class TestWorkerPool:
    def test_serial_map(self):
        with WorkerPool(1) as pool:
            assert pool.map_chunks(_double_chunk, [1, 2, 3], 10) == [12, 14, 16]
            assert pool.last_shards == 1

    def test_process_map_matches_serial(self):
        items = list(range(200))
        with WorkerPool(1) as serial, WorkerPool(3, min_items=1) as parallel:
            expected = serial.map_chunks(_double_chunk, items, 5)
            result = parallel.map_chunks(_double_chunk, items, 5)
        assert result == expected
        assert parallel.last_shards == 3

    def test_small_batches_stay_serial(self):
        with WorkerPool(4) as pool:
            items = list(range(DEFAULT_MIN_ITEMS - 1))
            result = pool.map_chunks(_double_chunk, items, 0)
        assert result == [item * 2 for item in items]
        assert pool.last_shards == 1

    def test_run_chunks_returns_per_chunk_results(self):
        items = list(range(10))
        with WorkerPool(2, min_items=1) as pool:
            chunks = pool.run_chunks(_summarise_chunk, items, None)
        assert len(chunks) == 2
        assert sum(count for count, _ in chunks) == len(items)
        assert sum(total for _, total in chunks) == sum(items)

    def test_empty_items(self):
        with WorkerPool(2, min_items=1) as pool:
            assert pool.map_chunks(_double_chunk, [], 0) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, min_items=0)

    def test_close_is_idempotent(self):
        pool = WorkerPool(2, min_items=1)
        pool.map_chunks(_double_chunk, list(range(8)), 0)
        pool.close()
        pool.close()


class TestPlanChunks:
    def test_empty_yields_single_empty_chunk(self):
        assert plan_chunks(0, 4) == [(0, 0)]

    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 5000), workers=st.integers(1, 64))
    def test_never_more_chunks_than_workers(self, count, workers):
        bounds = plan_chunks(count, workers)
        assert 1 <= len(bounds) <= workers

    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 5000), workers=st.integers(1, 64))
    def test_covers_all_items_contiguously(self, count, workers):
        bounds = plan_chunks(count, workers)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == count
        for (_, stop), (next_start, _) in zip(bounds, bounds[1:]):
            assert stop == next_start
        assert all(start < stop for start, stop in bounds)


class TestWorkerCapture:
    def _assert_stitched(self, tracer, expected_chunks):
        root = tracer.roots[0]
        assert root.name == "fanout"
        chunk_spans = [
            child for child in root.children if child.name == "worker.chunk"
        ]
        assert len(chunk_spans) == expected_chunks
        for index, chunk_span in enumerate(chunk_spans):
            assert isinstance(chunk_span.attributes["pid"], int)
            assert chunk_span.attributes["chunk_index"] == index
            assert chunk_span.attributes["items"] > 0
            names = [child.name for child in chunk_span.children]
            assert "chunk.work" in names
            work = chunk_span.children[names.index("chunk.work")]
            assert [child.name for child in work.children] == ["chunk.inner"]
        assert root.attributes["load_imbalance"] >= 1.0

    def test_serial_path_stitches_worker_spans(self):
        tracer = Tracer()
        with WorkerPool(1, tracer=tracer) as pool:
            with tracer.span("fanout"):
                result = pool.map_chunks(_traced_chunk, list(range(10)), None)
        assert result == list(range(1, 11))
        assert pool.last_shards == 1
        assert len(pool.last_chunk_seconds) == 1
        self._assert_stitched(tracer, expected_chunks=1)
        counters = {
            name: counter.value for name, _, counter in tracer.metrics.counters()
        }
        assert counters["chunk_calls"] == 1
        gauges = {
            (name, labels.get("span")): gauge.value
            for name, labels, gauge in tracer.metrics.gauges()
        }
        assert gauges[("chunk_items", None)] == 10
        assert gauges[("worker_load_imbalance", "fanout")] >= 1.0

    def test_process_path_stitches_worker_spans(self):
        tracer = Tracer()
        with WorkerPool(3, min_items=1, tracer=tracer) as pool:
            with tracer.span("fanout"):
                result = pool.map_chunks(_traced_chunk, list(range(30)), None)
        assert result == list(range(1, 31))
        assert pool.last_shards == 3
        assert len(pool.last_chunk_seconds) == 3
        self._assert_stitched(tracer, expected_chunks=3)
        counters = {
            name: counter.value for name, _, counter in tracer.metrics.counters()
        }
        assert counters["chunk_calls"] == 3
        histograms = {
            (name, labels.get("span")): histogram.count
            for name, labels, histogram in tracer.metrics.histograms()
        }
        assert histograms[("worker_chunk_seconds", "fanout")] == 3

    def test_structure_identical_across_worker_counts(self):
        structures = []
        for workers in (1, 2, 4):
            tracer = Tracer()
            with WorkerPool(workers, min_items=1, tracer=tracer) as pool:
                with tracer.span("fanout"):
                    pool.map_chunks(_traced_chunk, list(range(40)), None)
            structures.append(span_structure(tracer.roots))
        assert structures[0] == structures[1] == structures[2]

    def test_disabled_tracer_skips_capture(self):
        from repro.observability import NULL_TRACER

        with WorkerPool(1, tracer=NULL_TRACER) as pool:
            result = pool.map_chunks(_double_chunk, [1, 2], 0)
        assert result == [2, 4]
        assert pool.last_chunk_seconds == []

    def test_last_shards_reset_when_fn_raises(self):
        with WorkerPool(1) as pool:
            pool.map_chunks(_double_chunk, [1, 2, 3], 0)
            assert pool.last_shards == 1
            with pytest.raises(RuntimeError):
                pool.map_chunks(_raising_chunk, [1, 2, 3], 0)
            assert pool.last_shards == 0
            assert pool.last_chunk_seconds == []


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(13, "strand", 7) == derive_seed(13, "strand", 7)

    def test_distinct_across_components(self):
        seeds = {
            derive_seed(13, "strand", index) for index in range(1000)
        }
        assert len(seeds) == 1000

    def test_distinct_across_labels_and_base(self):
        assert derive_seed(13, "strand", 1) != derive_seed(13, "shuffle", 1)
        assert derive_seed(13, "strand", 1) != derive_seed(14, "strand", 1)

    def test_no_concatenation_collisions(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_streams_are_independent(self):
        # Neighbouring derived seeds must not produce correlated
        # random.Random streams (the failure mode of base+index schemes).
        draws = [
            random.Random(derive_seed(99, "strand", index)).random()
            for index in range(100)
        ]
        assert len(set(draws)) == 100
