"""JSONL serialisation round trip, chrome export, and report rendering."""

import json

import pytest

from repro.observability import (
    Tracer,
    load_trace,
    render_report,
    render_span_tree,
    render_tracer_report,
    span_structure,
    to_chrome_trace,
    trace_lines,
    write_chrome_trace,
    write_trace,
)
from repro.observability.export import MAIN_LANE_PID
from repro.observability.trace import span_records


def make_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("pipeline.run", input_bytes=500):
        with tracer.span("pipeline.clustering", reads=20) as span:
            span.set("clusters", 4)
            with tracer.span("clustering.signatures"):
                pass
        with tracer.span("pipeline.decoding"):
            pass
    tracer.metrics.counter("clusters_formed").inc(4)
    tracer.metrics.counter("reads_discarded", stage="clustering").inc(2)
    tracer.metrics.gauge("theta_low").set(19.5)
    for value in (3, 5, 8):
        tracer.metrics.histogram("reconstruction_cluster_size").observe(value)
    return tracer


class TestJsonlRoundTrip:
    def test_every_line_is_json(self):
        for line in trace_lines(make_tracer()):
            json.loads(line)

    def test_span_tree_survives(self, tmp_path):
        tracer = make_tracer()
        path = write_trace(tracer, tmp_path / "trace.jsonl")
        trace = load_trace(path)

        assert [root.name for root in trace.roots] == ["pipeline.run"]
        assert [span.name for span in trace.walk()] == [
            "pipeline.run",
            "pipeline.clustering",
            "clustering.signatures",
            "pipeline.decoding",
        ]
        original = {span.name: span for span in tracer.walk()}
        for span in trace.walk():
            assert span.duration == pytest.approx(original[span.name].duration)
            assert span.start == pytest.approx(original[span.name].start)
            assert span.attributes == original[span.name].attributes

    def test_metrics_survive(self, tmp_path):
        path = write_trace(make_tracer(), tmp_path / "trace.jsonl")
        trace = load_trace(path)

        counters = {(name, tuple(sorted(labels.items()))): value
                    for name, labels, value in trace.counters}
        assert counters[("clusters_formed", ())] == 4
        assert counters[("reads_discarded", (("stage", "clustering"),))] == 2
        assert trace.gauges == [("theta_low", {}, 19.5)]
        ((name, labels, summary),) = trace.histograms
        assert name == "reconstruction_cluster_size"
        assert summary["count"] == 3
        assert summary["p50"] == pytest.approx(5.0)

    def test_load_accepts_lines_iterable(self):
        trace = load_trace(trace_lines(make_tracer()))
        assert trace.find("clustering.signatures")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            load_trace(['{"kind": "mystery"}'])

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"kind": "span", "id": 1, "parent": 0}', "line 3: .*lacks name"),
            ("[1, 2]", "line 3: .*not a JSON object"),
            (
                '{"kind": "span", "id": 1, "name": "a", "start": "x", "duration": 0}',
                "line 3: bad span record",
            ),
            (
                '{"kind": "span", "id": 1, "name": "a", "start": 0, "duration": 0, '
                '"attributes": [1]}',
                "line 3: bad span record",
            ),
            (
                '{"kind": "span", "id": [1], "name": "a", "start": 0, "duration": 0}',
                "line 3: bad span record",
            ),
            ("{not json", "line 3: "),
        ],
    )
    def test_malformed_line_rejected_with_its_number(self, line, message):
        lines = ['{"kind": "meta", "version": 1}', "", line]
        with pytest.raises(ValueError, match=message):
            load_trace(lines)

    def test_span_lines_are_byte_stable(self):
        # Writing what was loaded reproduces the span lines exactly, so a
        # trace file keeps its bytes through a load/write cycle.
        tracer = make_tracer()
        lines = [line for line in trace_lines(tracer) if '"kind": "span"' in line]
        reloaded = Tracer()
        reloaded.roots = load_trace(trace_lines(tracer)).roots
        assert [
            line for line in trace_lines(reloaded) if '"kind": "span"' in line
        ] == lines
        assert lines[1] == json.dumps(
            {
                "kind": "span",
                "id": 2,
                "parent": 1,
                "name": "pipeline.clustering",
                "start": tracer.roots[0].children[0].start,
                "duration": tracer.roots[0].children[0].duration,
                "attributes": {"reads": 20, "clusters": 4},
            }
        )

    def test_blank_lines_ignored(self):
        lines = list(trace_lines(make_tracer()))
        trace = load_trace(["", *lines, "  "])
        assert trace.roots


def make_fanout_tracer(chunks: int = 2) -> Tracer:
    """A tracer with worker spans stitched under a fan-out span."""
    tracer = Tracer()
    with tracer.span("pipeline.run"):
        with tracer.span("pipeline.simulation") as fanout:
            durations = []
            for chunk_index in range(chunks):
                worker = Tracer()
                with worker.span("worker.chunk", items=5):
                    with worker.span("simulation.sequence_strands"):
                        pass
                # Fake distinct worker pids so lane assignment is testable.
                export = {
                    "pid": 40000 + chunk_index,
                    "spans": list(span_records(worker.roots)),
                }
                tracer.attach_worker_export(
                    export, chunk_index=chunk_index, items=5, base_offset=0.01
                )
                duration = 0.01 * (chunk_index + 1)
                durations.append(duration)
                tracer.metrics.histogram(
                    "worker_chunk_seconds", span=fanout.name
                ).observe(duration)
            tracer.metrics.gauge(
                "worker_load_imbalance", span=fanout.name
            ).set(max(durations) / (sum(durations) / len(durations)))
    return tracer


class TestChromeTrace:
    def test_events_are_complete_events_in_microseconds(self):
        tracer = make_fanout_tracer()
        document = to_chrome_trace(tracer)
        assert document["displayTimeUnit"] == "ms"
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} >= {
            "pipeline.run",
            "pipeline.simulation",
            "worker.chunk",
            "simulation.sequence_strands",
        }
        run = next(e for e in events if e["name"] == "pipeline.run")
        original = tracer.roots[0]
        assert run["ts"] == pytest.approx(original.start * 1e6, abs=0.01)
        assert run["dur"] == pytest.approx(original.duration * 1e6, abs=0.01)
        assert run["pid"] == MAIN_LANE_PID

    def test_worker_spans_get_their_own_pid_lanes(self):
        document = to_chrome_trace(make_fanout_tracer(chunks=3))
        chunk_events = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "worker.chunk"
        ]
        assert len(chunk_events) == 3
        assert {e["pid"] for e in chunk_events} == {40000, 40001, 40002}
        # tid = chunk_index + 1, so chunks sharing an OS pid never overlap.
        assert [e["tid"] for e in sorted(chunk_events, key=lambda e: e["pid"])] == [
            1,
            2,
            3,
        ]
        # Descendants of a worker root inherit its lane.
        nested = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "simulation.sequence_strands"
        ]
        assert {e["pid"] for e in nested} == {40000, 40001, 40002}

    def test_process_name_metadata_for_main_and_workers(self):
        document = to_chrome_trace(make_fanout_tracer(chunks=2))
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in metadata}
        assert names[MAIN_LANE_PID] == "main"
        assert names[40000] == "worker 40000"
        assert names[40001] == "worker 40001"

    def test_round_trips_through_jsonl(self, tmp_path):
        tracer = make_fanout_tracer()
        trace = load_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        assert to_chrome_trace(trace) == to_chrome_trace(tracer)

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = write_chrome_trace(make_fanout_tracer(), tmp_path / "chrome.json")
        document = json.loads(path.read_text())
        assert document["traceEvents"]

    def test_attributes_become_args(self):
        document = to_chrome_trace(make_fanout_tracer())
        chunk = next(
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "worker.chunk"
        )
        assert chunk["args"]["items"] == 5
        assert chunk["args"]["chunk_index"] == 0


class TestSpanStructure:
    def test_collapses_same_named_sibling_multiplicity(self):
        assert span_structure(make_fanout_tracer(chunks=1).roots) == span_structure(
            make_fanout_tracer(chunks=4).roots
        )

    def test_detects_renamed_span(self):
        one = make_fanout_tracer()
        other = make_fanout_tracer()
        other.roots[0].name = "renamed"
        assert span_structure(one.roots) != span_structure(other.roots)

    def test_detects_hierarchy_change(self):
        one = make_fanout_tracer()
        other = make_fanout_tracer()
        # Hoist the fan-out's children up a level.
        fanout = other.roots[0].children[0]
        other.roots[0].children = fanout.children
        assert span_structure(one.roots) != span_structure(other.roots)

    def test_empty(self):
        assert span_structure([]) == ()


class TestFanoutBalanceSection:
    def test_report_includes_balance_table(self, tmp_path):
        tracer = make_fanout_tracer(chunks=2)
        trace = load_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        report = render_report(trace)
        assert "fan-out balance" in report
        section = report[report.index("fan-out balance") :]
        row = next(
            line
            for line in section.splitlines()
            if line.startswith("pipeline.simulation") and "|" in line
        )
        columns = [cell.strip() for cell in row.split("|")]
        assert columns[1] == "2"  # chunk count from the histogram
        assert float(columns[4]) == pytest.approx(4 / 3, abs=0.001)

    def test_no_section_without_imbalance_gauges(self, tmp_path):
        trace = load_trace(write_trace(make_tracer(), tmp_path / "t.jsonl"))
        assert "fan-out balance" not in render_report(trace)


class TestReportRendering:
    def test_report_sections(self, tmp_path):
        trace = load_trace(write_trace(make_tracer(), tmp_path / "t.jsonl"))
        report = render_report(trace)
        assert "span latency" in report
        assert "pipeline.clustering" in report
        assert "span tree" in report
        assert "counters" in report
        assert "clusters_formed" in report
        assert "stage=clustering" in report
        assert "gauges" in report
        assert "histograms" in report
        assert "reconstruction_cluster_size" in report

    def test_tree_indentation_follows_nesting(self):
        tracer = make_tracer()
        tree = render_span_tree(tracer.roots)
        lines = tree.splitlines()
        assert lines[0].startswith("pipeline.run")
        assert lines[1].startswith("  pipeline.clustering")
        assert lines[2].startswith("    clustering.signatures")

    def test_render_tracer_report_shortcut(self):
        report = render_tracer_report(make_tracer(), title="live")
        assert report.startswith("live - span latency")

    def test_empty_trace(self):
        assert "empty trace" in render_report(load_trace([]))

    def test_aggregation_counts_repeated_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeated"):
                pass
        report = render_tracer_report(tracer)
        # one aggregated row with calls=3
        row = next(
            line for line in report.splitlines() if line.startswith("repeated")
        )
        assert "| 3 " in row

    def test_equal_duration_spans_sort_by_name(self):
        # Sub-resolution spans routinely tie at duration 0.0; the table
        # must still come out in one deterministic order (name ascending).
        lines = ['{"kind": "meta", "version": 1}']
        for span_id, name in enumerate(["zeta", "alpha", "mid"], start=1):
            lines.append(
                json.dumps(
                    {
                        "kind": "span",
                        "id": span_id,
                        "parent": 0,
                        "name": name,
                        "start": 0.0,
                        "duration": 0.0,
                        "attributes": {},
                    }
                )
            )
        report = render_report(load_trace(lines))
        table = [
            line.split("|")[0].strip()
            for line in report.splitlines()
            if line.startswith(("alpha", "mid", "zeta"))
        ]
        assert table[:3] == ["alpha", "mid", "zeta"]
