"""Metrics registry: counters, gauges, histograms and percentile math."""

import pytest

from repro.observability import Histogram, MetricsRegistry, percentile


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 100) == 7.0

    def test_median_of_odd_count(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_interpolates_even_count(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_bounds(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_linear_interpolation_matches_numpy_convention(self):
        # numpy.percentile([10,20,30,40], 90, method="linear") == 37.0
        assert percentile([10, 20, 30, 40], 90) == pytest.approx(37.0)

    def test_hundred_values(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 90) == pytest.approx(90.1)
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_order_independent(self):
        assert percentile([9, 1, 5], 50) == percentile([1, 5, 9], 50)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("events").inc(-1)

    def test_get_or_create_is_keyed_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("reads_discarded", stage="clustering")
        b = registry.counter("reads_discarded", stage="clustering")
        c = registry.counter("reads_discarded", stage="decoding")
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x=1, y=2)
        b = registry.counter("m", y=2, x=1)
        assert a is b


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_summary_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p90"] == pytest.approx(90.1)
        assert summary["p99"] == pytest.approx(99.01)

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0, "sum": 0.0}

    def test_quantile_delegates_to_percentile(self):
        histogram = Histogram()
        for value in (4, 8, 6, 2):
            histogram.observe(value)
        assert histogram.quantile(50) == 5.0


class TestRegistryIteration:
    def test_sorted_stable_iteration(self):
        registry = MetricsRegistry()
        registry.counter("zebra").inc()
        registry.counter("alpha").inc(2)
        names = [name for name, _, _ in registry.counters()]
        assert names == ["alpha", "zebra"]

    def test_len_counts_all_instrument_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3


class TestThreadSafety:
    def test_concurrent_counter_increments_sum_exactly(self):
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def work():
            for _ in range(5000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 20000

    def test_concurrent_histogram_observes_keep_every_sample(self):
        import threading

        histogram = MetricsRegistry().histogram("latency")

        def work():
            for value in range(3000):
                histogram.observe(float(value))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert histogram.count == 12000
        assert histogram.summary()["count"] == 12000

    def test_instrument_creation_races_snapshot(self):
        # A writer thread creating fresh instruments must never corrupt a
        # concurrent snapshot (the classic RuntimeError: dict changed size
        # during iteration without the registry lock).
        import threading

        registry = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                registry.counter(f"c{i % 50}", shard=str(i % 7)).inc()
                registry.gauge(f"g{i % 50}").set(i)
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    registry.snapshot()
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []

    def test_snapshot_is_a_consistent_copy(self):
        registry = MetricsRegistry()
        registry.counter("reads", stage="clustering").inc(3)
        registry.gauge("depth").set(2.5)
        registry.histogram("lat").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"reads{stage=clustering}": 3}
        assert snap["gauges"] == {"depth": 2.5}
        assert snap["histograms"]["lat"]["count"] == 1
        # Mutations after the snapshot must not leak into it.
        registry.counter("reads", stage="clustering").inc()
        assert snap["counters"]["reads{stage=clustering}"] == 3

    def test_null_registry_snapshot_is_empty(self):
        from repro.observability import NULL_REGISTRY

        snap = NULL_REGISTRY.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_registry_survives_pickling(self):
        import pickle

        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        registry.histogram("h").observe(1.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter("n").value == 2
        clone.counter("n").inc()  # the recreated lock must work
        assert clone.counter("n").value == 3
        assert clone.histogram("h").count == 1


class TestProcessGauges:
    def test_records_rss_and_cpu(self):
        from repro.observability import emit_process_gauges

        registry = MetricsRegistry()
        emit_process_gauges(registry)
        gauges = {name: gauge.value for name, _, gauge in registry.gauges()}
        # A running Python interpreter has spent memory and CPU.
        assert gauges["process_peak_rss_bytes"] > 1024 * 1024
        assert gauges["process_user_cpu_seconds"] > 0
        assert gauges["process_sys_cpu_seconds"] >= 0

    def test_last_write_wins(self):
        from repro.observability import emit_process_gauges

        registry = MetricsRegistry()
        emit_process_gauges(registry)
        first = registry.gauge("process_peak_rss_bytes").value
        emit_process_gauges(registry)
        assert registry.gauge("process_peak_rss_bytes").value >= first
