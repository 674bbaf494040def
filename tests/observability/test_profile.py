"""Per-stage profiling: tracemalloc/GC attributes on top-level spans."""

import tracemalloc

from repro.observability import StageProfiler, Tracer

PROFILE_KEYS = ("mem_current_kb", "mem_peak_kb", "gc_collections")


class TestProfilingTracer:
    def test_top_level_spans_gain_memory_attributes(self):
        tracer = Tracer(profile=True)
        try:
            with tracer.span("pipeline.run"):
                with tracer.span("pipeline.encoding") as stage:
                    payload = bytearray(256 * 1024)
                    del payload
        finally:
            tracer.profiler.close()
        root = tracer.roots[0]
        for span in (root, stage):
            for key in PROFILE_KEYS:
                assert key in span.attributes, (span.name, key)
        assert stage.attributes["mem_peak_kb"] >= 256
        # The child's peak folds into the parent (tracemalloc's peak is
        # process-global and gets reset at every profiled enter).
        assert root.attributes["mem_peak_kb"] >= stage.attributes["mem_peak_kb"]

    def test_deep_spans_are_not_profiled(self):
        tracer = Tracer(profile=True)
        try:
            with tracer.span("root"):
                with tracer.span("stage"):
                    with tracer.span("detail") as deep:
                        pass
        finally:
            tracer.profiler.close()
        assert not any(key in deep.attributes for key in PROFILE_KEYS)

    def test_tracemalloc_stops_when_last_stage_closes(self):
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        tracer = Tracer(profile=True)
        with tracer.span("pipeline.run"):
            with tracer.span("pipeline.encoding"):
                assert tracemalloc.is_tracing()
            assert tracemalloc.is_tracing()  # the root is still open
        assert not tracemalloc.is_tracing()
        assert "mem_peak_kb" in tracer.roots[0].attributes
        # A later root profiles again, and stops again.
        with tracer.span("second") as second:
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()
        assert "mem_peak_kb" in second.attributes

    def test_tracemalloc_started_elsewhere_stays_on(self):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracer = Tracer(profile=True)
            with tracer.span("pipeline.run"):
                pass
            assert tracemalloc.is_tracing()
        finally:
            if not was_tracing:
                tracemalloc.stop()

    def test_default_tracer_does_not_profile(self):
        tracer = Tracer()
        assert tracer.profiler is None
        with tracer.span("stage") as span:
            pass
        assert not any(key in span.attributes for key in PROFILE_KEYS)


class TestStageProfiler:
    def test_exit_ignores_spans_it_never_entered(self):
        profiler = StageProfiler()
        try:
            tracer = Tracer()
            with tracer.span("outer") as outer:
                profiler.enter(outer)
                with tracer.span("unprofiled") as inner:
                    pass
                assert profiler.exit(inner) is False
            assert profiler.exit(outer) is True
        finally:
            profiler.close()

    def test_close_is_idempotent_and_stops_own_tracing(self):
        was_tracing = tracemalloc.is_tracing()
        profiler = StageProfiler()
        tracer = Tracer()
        with tracer.span("stage") as span:
            profiler.enter(span)
        profiler.exit(span)
        profiler.close()
        profiler.close()
        # Only stops tracemalloc when it was the one to start it.
        assert tracemalloc.is_tracing() == was_tracing
