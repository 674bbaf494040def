"""Tracer behaviour: nesting, durations, attributes, and the no-op path."""

import os
import time

import pytest

from repro.observability import NULL_TRACER, NullTracer, Tracer, as_tracer
from repro.observability.metrics import NULL_REGISTRY
from repro.observability.trace import (
    _NullSpan,
    capture_worker_spans,
    current_worker_tracer,
    span_records,
    spans_from_records,
    worker_span,
)


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [child.name for child in tracer.roots[0].children] == [
            "inner.a",
            "inner.b",
        ]

    def test_deep_nesting_and_walk_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [span.name for span in tracer.walk()] == ["a", "b", "c"]

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_find_matches_every_occurrence(self):
        tracer = Tracer()
        with tracer.span("loop"):
            for _ in range(3):
                with tracer.span("iteration"):
                    pass
        assert len(tracer.find("iteration")) == 3

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("inner failure")
        # The span closed with a duration and the stack unwound: the next
        # span becomes a new root, not a child of the failed one.
        assert tracer.roots[0].duration > 0
        with tracer.span("after"):
            pass
        assert [root.name for root in tracer.roots] == ["boom", "after"]


class TestSpanDuration:
    def test_duration_measures_wall_clock(self):
        tracer = Tracer()
        with tracer.span("sleepy") as span:
            time.sleep(0.02)
        assert span.duration >= 0.015

    def test_parent_covers_children(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                time.sleep(0.01)
        assert parent.duration >= child.duration

    def test_start_offsets_increase(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        first, second = tracer.roots
        assert second.start >= first.start + first.duration


class TestSpanAttributes:
    def test_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("stage", reads=42) as span:
            span.set("clusters", 7)
        assert span.attributes == {"reads": 42, "clusters": 7}

    def test_set_overwrites(self):
        tracer = Tracer()
        with tracer.span("stage", value=1) as span:
            span.set("value", 2)
        assert span.attributes["value"] == 2


class TestNullTracer:
    def test_as_tracer_normalises_none(self):
        assert as_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert as_tracer(tracer) is tracer

    def test_records_nothing(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set("more", 2)
        assert NULL_TRACER.roots == []
        assert list(NULL_TRACER.walk()) == []
        assert NULL_TRACER.find("anything") == []

    def test_null_span_still_measures_duration(self):
        # Stage rollups (StageTimings etc.) read span.duration even when
        # tracing is disabled, so the no-op span must keep the clock.
        with NULL_TRACER.span("timed") as span:
            time.sleep(0.01)
        assert span.duration >= 0.005

    def test_metrics_are_shared_noops(self):
        assert NULL_TRACER.metrics is NULL_REGISTRY
        counter = NULL_TRACER.metrics.counter("x", label="y")
        counter.inc(10)
        assert counter.value == 0
        assert counter is NULL_TRACER.metrics.counter("other")

    def test_disabled_flag(self):
        assert not NullTracer.enabled
        assert Tracer.enabled

    def test_no_memory_growth(self):
        # The overhead contract: a disabled tracer retains no state no
        # matter how many spans or metric updates run through it.
        registry_size_before = len(NULL_TRACER.metrics._counters)
        for index in range(1000):
            with NULL_TRACER.span("hot.loop", index=index):
                NULL_TRACER.metrics.counter("events").inc()
        assert NULL_TRACER.roots == []
        assert len(NULL_TRACER.metrics._counters) == registry_size_before


class TestNullSpanIsolation:
    def test_instances_do_not_share_attributes(self):
        # Regression: class-level mutable attributes/children meant one
        # caller writing span.attributes[...] polluted every null span.
        first = _NullSpan()
        second = _NullSpan()
        first.attributes["leak"] = True
        first.children.append(object())
        assert second.attributes == {}
        assert second.children == []

    def test_null_tracer_vends_fresh_spans(self):
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b")
        a.attributes["x"] = 1
        assert b.attributes == {}


class TestReset:
    def test_reset_drops_spans(self):
        tracer = Tracer()
        with tracer.span("old"):
            pass
        tracer.metrics.counter("kept").inc()
        tracer.reset()
        assert tracer.roots == []
        assert tracer.metrics.counter("kept").value == 1

    def test_reset_rebases_epoch(self):
        tracer = Tracer()
        time.sleep(0.03)
        tracer.reset()
        with tracer.span("fresh") as span:
            pass
        # Start offsets are relative to the *new* epoch, not the old one.
        assert span.start < 0.02

    def test_spans_after_reset_become_roots(self):
        tracer = Tracer()
        with tracer.span("before"):
            tracer.reset()
        with tracer.span("after"):
            pass
        assert [root.name for root in tracer.roots] == ["after"]


class TestOutOfOrderExit:
    def test_parent_exit_before_child_unwinds_stack(self):
        # Manual __enter__/__exit__ lets callers close spans out of order;
        # _pop must tolerate it so later spans still root correctly.
        tracer = Tracer()
        parent = tracer.span("parent").__enter__()
        child = tracer.span("child").__enter__()
        parent.__exit__(None, None, None)  # parent first: removed mid-stack
        assert tracer.current_span() is child
        child.__exit__(None, None, None)
        assert tracer.current_span() is None
        with tracer.span("later"):
            pass
        assert [root.name for root in tracer.roots] == ["parent", "later"]

    def test_pop_of_unknown_span_is_harmless(self):
        tracer = Tracer()
        with tracer.span("open"):
            stray = tracer.span("stray")
            tracer._pop(stray)  # never pushed: must not corrupt the stack
            assert tracer.current_span().name == "open"


def _worker_export(tracer):
    """The ``{"pid", "spans"}`` shape a worker chunk ships to the parent."""
    return {"pid": os.getpid(), "spans": list(span_records(tracer.roots))}


class TestSpanRecords:
    def test_flattens_depth_first_with_parent_ids(self):
        tracer = Tracer()
        with tracer.span("chunk", items=3):
            with tracer.span("inner.a"):
                with tracer.span("inner.a.deep"):
                    pass
            with tracer.span("inner.b"):
                pass
        with tracer.span("second"):
            pass
        records = list(span_records(tracer.roots))
        assert [record["name"] for record in records] == [
            "chunk",
            "inner.a",
            "inner.a.deep",
            "inner.b",
            "second",
        ]
        assert [record["id"] for record in records] == [1, 2, 3, 4, 5]
        assert [record["parent"] for record in records] == [0, 1, 2, 1, 0]
        assert list(records[0]) == [
            "id",
            "parent",
            "name",
            "start",
            "duration",
            "attributes",
        ]
        assert records[0]["attributes"] == {"items": 3}

    def test_rebuild_inverts_flatten(self):
        tracer = Tracer()
        with tracer.span("a", n=1):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        records = list(span_records(tracer.roots))
        rebuilt = spans_from_records(enumerate(records, 1))
        assert list(span_records(rebuilt)) == records

    def test_rebuild_shifts_starts_by_offset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        (root,) = spans_from_records(
            enumerate(span_records(tracer.roots), 1), offset=2.5
        )
        assert root.start == 2.5 + tracer.roots[0].start
        assert root.duration == tracer.roots[0].duration

    def test_unknown_parent_becomes_root(self):
        records = [
            (1, {"id": 7, "parent": 99, "name": "orphan", "start": 0, "duration": 0})
        ]
        assert [root.name for root in spans_from_records(records)] == ["orphan"]


class TestAttachWorkerExport:
    def test_attach_round_trip_rebases_and_annotates(self):
        with capture_worker_spans() as worker:
            with worker.span("worker.chunk"):
                with worker_span("nested"):
                    pass
        export = _worker_export(worker)

        tracer = Tracer()
        with tracer.span("fanout") as calling:
            roots = tracer.attach_worker_export(
                export, chunk_index=2, items=17, base_offset=1.5
            )
        assert len(roots) == 1
        grafted = roots[0]
        assert grafted in calling.children
        assert grafted.attributes["pid"] == os.getpid()
        assert grafted.attributes["chunk_index"] == 2
        assert grafted.attributes["items"] == 17
        assert grafted.start >= 1.5
        assert [child.name for child in grafted.children] == ["nested"]
        # Only roots get the fan-out annotations.
        assert "pid" not in grafted.children[0].attributes

    def test_attach_copies_attributes(self):
        worker = Tracer()
        with worker.span("worker.chunk", items=1):
            pass
        export = _worker_export(worker)
        tracer = Tracer()
        (grafted,) = tracer.attach_worker_export(export, chunk_index=0, items=1)
        assert worker.roots[0].attributes == {"items": 1}
        assert grafted.attributes == {"items": 1, "pid": os.getpid(), "chunk_index": 0}

    def test_attach_outside_span_creates_roots(self):
        worker = Tracer()
        with worker.span("worker.chunk"):
            pass
        tracer = Tracer()
        tracer.attach_worker_export(_worker_export(worker), chunk_index=0, items=1)
        assert [root.name for root in tracer.roots] == ["worker.chunk"]


class TestAmbientWorkerCapture:
    def test_worker_span_is_noop_outside_capture(self):
        assert current_worker_tracer() is None
        with worker_span("anything", n=1) as span:
            pass
        assert isinstance(span, _NullSpan)
        assert span.duration >= 0.0

    def test_capture_installs_and_restores(self):
        with capture_worker_spans() as worker:
            assert isinstance(worker, Tracer)
            assert current_worker_tracer() is worker
            with worker_span("captured", n=2):
                pass
        assert current_worker_tracer() is None
        assert [root.name for root in worker.roots] == ["captured"]
        assert worker.roots[0].attributes == {"n": 2}

    def test_capture_nests_and_restores_previous(self):
        with capture_worker_spans() as outer:
            with capture_worker_spans() as inner:
                assert current_worker_tracer() is inner
            assert current_worker_tracer() is outer
