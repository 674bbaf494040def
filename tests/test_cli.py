"""CLI tests: every subcommand, chained the way a user would."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def payload(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(bytes((i * 37) % 256 for i in range(500)))
    return path


def run(*argv) -> int:
    return main([str(arg) for arg in argv])


ENCODING_ARGS = ("--data-columns", 20, "--parity-columns", 8)


class TestEncodeDecode:
    def test_encode_writes_strands_and_params(self, payload, tmp_path):
        strands = tmp_path / "strands.txt"
        assert run("encode", payload, strands, *ENCODING_ARGS) == 0
        lines = strands.read_text().splitlines()
        assert lines and all(set(line) <= set("ACGT") for line in lines)
        params = json.loads((tmp_path / "strands.txt.params.json").read_text())
        assert params["data_columns"] == 20
        assert params["num_units"] >= 1

    def test_clean_roundtrip(self, payload, tmp_path):
        strands = tmp_path / "strands.txt"
        recovered = tmp_path / "out.bin"
        run("encode", payload, strands, *ENCODING_ARGS)
        assert (
            run(
                "decode",
                strands,
                recovered,
                "--params",
                tmp_path / "strands.txt.params.json",
            )
            == 0
        )
        assert recovered.read_bytes() == payload.read_bytes()

    def test_decode_reports_failure_exit_code(self, payload, tmp_path):
        strands = tmp_path / "strands.txt"
        run("encode", payload, strands, *ENCODING_ARGS)
        # Keep only a third of the strands: beyond erasure capability.
        lines = strands.read_text().splitlines()
        strands.write_text("\n".join(lines[::3]) + "\n")
        code = run(
            "decode",
            strands,
            tmp_path / "out.bin",
            "--params",
            tmp_path / "strands.txt.params.json",
        )
        assert code == 1


class TestStageChain:
    def test_full_chain(self, payload, tmp_path):
        strands = tmp_path / "strands.txt"
        reads = tmp_path / "reads.txt"
        clusters = tmp_path / "clusters.txt"
        consensus = tmp_path / "consensus.txt"
        recovered = tmp_path / "out.bin"

        run("encode", payload, strands, *ENCODING_ARGS)
        assert (
            run(
                "simulate",
                strands,
                reads,
                "--channel",
                "iid",
                "--error-rate",
                0.04,
                "--coverage",
                8,
                "--seed",
                3,
            )
            == 0
        )
        assert run("cluster", reads, clusters, "--seed", 2) == 0
        assert (
            run(
                "reconstruct",
                reads,
                clusters,
                consensus,
                "--length",
                132,
                "--algorithm",
                "nwa",
            )
            == 0
        )
        assert (
            run(
                "decode",
                consensus,
                recovered,
                "--params",
                tmp_path / "strands.txt.params.json",
            )
            == 0
        )
        assert recovered.read_bytes() == payload.read_bytes()

    def test_cluster_file_format(self, payload, tmp_path):
        strands = tmp_path / "strands.txt"
        reads = tmp_path / "reads.txt"
        clusters = tmp_path / "clusters.txt"
        run("encode", payload, strands, *ENCODING_ARGS)
        run("simulate", strands, reads, "--coverage", 4, "--seed", 1)
        run("cluster", reads, clusters)
        indices = [
            int(token)
            for line in clusters.read_text().splitlines()
            for token in line.split()
        ]
        assert sorted(indices) == list(range(len(reads.read_text().splitlines())))


class TestPipelineCommand:
    def test_roundtrip(self, payload, tmp_path, capsys):
        recovered = tmp_path / "out.bin"
        code = run(
            "pipeline",
            payload,
            recovered,
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--error-rate",
            0.04,
        )
        assert code == 0
        assert recovered.read_bytes() == payload.read_bytes()
        output = capsys.readouterr().out
        assert "pipeline latency" in output
        assert "exact recovery" in output


class TestTraceFlag:
    def test_pipeline_trace_covers_all_stages(self, payload, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--error-rate",
            0.04,
            "--trace",
            trace_path,
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out

        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        spans = [line for line in lines if line["kind"] == "span"]
        names = {span["name"] for span in spans}
        assert {
            "pipeline.run",
            "pipeline.encoding",
            "pipeline.simulation",
            "pipeline.clustering",
            "pipeline.reconstruction",
            "pipeline.decoding",
        } <= names
        # Stage spans nest under the root span.
        (root,) = (span for span in spans if span["name"] == "pipeline.run")
        assert root["parent"] == 0
        stage_parents = {
            span["parent"] for span in spans if span["name"].startswith("pipeline.")
            and span["name"] != "pipeline.run"
        }
        assert stage_parents == {root["id"]}
        counters = [line for line in lines if line["kind"] == "counter"]
        assert any(c["name"] == "clusters_formed" for c in counters)

    def test_encode_trace(self, payload, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            run(
                "encode",
                payload,
                tmp_path / "strands.txt",
                *ENCODING_ARGS,
                "--trace",
                trace_path,
            )
            == 0
        )
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert any(
            line["kind"] == "span" and line["name"] == "pipeline.encoding"
            for line in lines
        )


class TestClusterWorkers:
    def test_workers_trace_records_worker_spans(self, payload, tmp_path):
        strands = tmp_path / "strands.txt"
        reads = tmp_path / "reads.txt"
        run("encode", payload, strands, *ENCODING_ARGS)
        run("simulate", strands, reads, "--coverage", 8, "--seed", 3)
        serial = tmp_path / "clusters-w1.txt"
        parallel = tmp_path / "clusters-w2.txt"
        trace_path = tmp_path / "trace.jsonl"
        assert run("cluster", reads, serial, "--seed", 2) == 0
        assert (
            run(
                "cluster", reads, parallel, "--seed", 2,
                "--workers", 2, "--trace", trace_path,
            )
            == 0
        )
        assert parallel.read_text() == serial.read_text()
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        spans = {line["name"] for line in lines if line["kind"] == "span"}
        assert "worker.chunk" in spans


class TestChromeTraceFlag:
    def test_pipeline_trace_out_writes_chrome_json(self, payload, tmp_path, capsys):
        chrome_path = tmp_path / "chrome.json"
        code = run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--error-rate",
            0.04,
            "--workers",
            2,
            "--trace-out",
            chrome_path,
        )
        assert code == 0
        assert "chrome trace written to" in capsys.readouterr().out
        document = json.loads(chrome_path.read_text())
        events = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in events}
        assert "pipeline.run" in names
        # Fan-outs capture worker-side spans even at low worker counts.
        assert "worker.chunk" in names
        metadata = [e for e in document["traceEvents"] if e.get("ph") == "M"]
        assert any(e["args"]["name"] == "main" for e in metadata)

    def test_profile_adds_memory_attributes(self, payload, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--profile",
            "--trace",
            trace_path,
        )
        assert code == 0
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        stage_spans = [
            line
            for line in lines
            if line["kind"] == "span" and line["name"] == "pipeline.decoding"
        ]
        assert stage_spans
        for span in stage_spans:
            assert "mem_peak_kb" in span["attributes"]
            assert "mem_current_kb" in span["attributes"]
            assert "gc_collections" in span["attributes"]

    def test_profile_without_trace_prints_report(self, payload, tmp_path, capsys):
        code = run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--profile",
        )
        assert code == 0
        assert "profile report" in capsys.readouterr().out


class TestTraceCommand:
    def test_renders_report_from_trace_file(self, payload, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--trace",
            trace_path,
        )
        capsys.readouterr()
        assert run("trace", trace_path) == 0
        output = capsys.readouterr().out
        assert "span latency" in output
        assert "pipeline.clustering" in output
        assert "counters" in output
        assert "clusters_formed" in output

    def test_reports_fanout_balance_from_worker_runs(
        self, payload, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--trace",
            trace_path,
        )
        capsys.readouterr()
        assert run("trace", trace_path) == 0
        output = capsys.readouterr().out
        assert "fan-out balance" in output
        assert "imbalance" in output

    def test_converts_jsonl_to_chrome(self, payload, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--trace",
            trace_path,
        )
        capsys.readouterr()
        chrome_path = tmp_path / "chrome.json"
        assert run("trace", trace_path, "--chrome", chrome_path) == 0
        assert "chrome trace written to" in capsys.readouterr().out
        document = json.loads(chrome_path.read_text())
        names = {e["name"] for e in document["traceEvents"] if e.get("ph") == "X"}
        assert "pipeline.run" in names
        assert "worker.chunk" in names


class TestWhyCommand:
    def run_with_ledger(self, payload, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        code = run(
            "pipeline",
            payload,
            tmp_path / "out.bin",
            *ENCODING_ARGS,
            "--coverage",
            8,
            "--error-rate",
            0.04,
            "--provenance",
            ledger_path,
        )
        assert code == 0
        assert "provenance ledger written to" in capsys.readouterr().out
        return ledger_path

    def test_summary_renders_verdict_table(self, payload, tmp_path, capsys):
        ledger_path = self.run_with_ledger(payload, tmp_path, capsys)
        assert run("why", ledger_path) == 0
        output = capsys.readouterr().out
        assert "per-strand verdicts" in output
        assert "dropout" in output and "ok" in output

    def test_json_summary_accounts_for_every_strand(
        self, payload, tmp_path, capsys
    ):
        ledger_path = self.run_with_ledger(payload, tmp_path, capsys)
        assert run("why", ledger_path, "--json") == 0
        summary = json.loads(capsys.readouterr().out)
        assert sum(summary["verdicts"].values()) == summary["strands"]
        assert summary["strands"] > 0

    def test_strand_timeline(self, payload, tmp_path, capsys):
        ledger_path = self.run_with_ledger(payload, tmp_path, capsys)
        assert run("why", ledger_path, "--strand", 0) == 0
        output = capsys.readouterr().out
        assert "strand 0" in output
        assert "encoded" in output and "decoded" in output

    def test_unknown_strand_errors(self, payload, tmp_path, capsys):
        ledger_path = self.run_with_ledger(payload, tmp_path, capsys)
        assert run("why", ledger_path, "--strand", 10**6) == 2
        assert "not in ledger" in capsys.readouterr().err

    def test_unreadable_ledger_errors(self, tmp_path, capsys):
        assert run("why", tmp_path / "missing.jsonl") == 2
        assert "error" in capsys.readouterr().err


class TestLoggingFlags:
    def test_log_level_warning_hides_diagnostics(self, payload, tmp_path, capsys):
        code = run(
            "encode",
            payload,
            tmp_path / "strands.txt",
            *ENCODING_ARGS,
            "--trace",
            tmp_path / "trace.jsonl",
            "--log-level",
            "warning",
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "trace written to" not in output
        assert "encoded" in output  # primary output is not logging

    def test_json_log_format(self, payload, tmp_path, capsys):
        code = run(
            "encode",
            payload,
            tmp_path / "strands.txt",
            *ENCODING_ARGS,
            "--trace",
            tmp_path / "trace.jsonl",
            "--log-format",
            "json",
        )
        assert code == 0
        record_lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        records = [json.loads(line) for line in record_lines]
        assert any("trace written to" in r["message"] for r in records)
        assert all(r["component"].startswith("repro.") for r in records)

    def test_verbose_enables_debug(self, payload, tmp_path):
        import logging

        code = run(
            "encode", payload, tmp_path / "strands.txt", *ENCODING_ARGS, "-v"
        )
        assert code == 0
        assert logging.getLogger("repro").level == logging.DEBUG


class TestDensityCommand:
    def test_prints_report(self, capsys):
        assert run("density", "--parity-columns", 20) == 0
        output = capsys.readouterr().out
        assert "net density" in output


class TestStatsCommand:
    def test_clean_pool(self, payload, tmp_path, capsys):
        strands = tmp_path / "strands.txt"
        run("encode", payload, strands, *ENCODING_ARGS)
        code = run("stats", strands, "--max-run", 10)
        output = capsys.readouterr().out
        assert code == 0
        assert "clean" in output

    def test_dirty_pool_nonzero_exit(self, tmp_path, capsys):
        strands = tmp_path / "bad.txt"
        strands.write_text("AAAAAAAAAAAAAAAA\nGGGGGGGGGGGGGGGG\n")
        code = run("stats", strands)
        output = capsys.readouterr().out
        assert code == 1
        assert "violations" in output


class TestBenchCompare:
    def _kernel_doc(self):
        return {
            "kind": "repro-kernel-bench",
            "schema_version": 2,
            "distance": {
                "kernels": [
                    {
                        "kernel": "myers",
                        "verdicts_match_reference": True,
                        "speedup_vs_reference": 40.0,
                    }
                ]
            },
            "signatures": {
                "flavours": [
                    {"flavour": "qgram", "matches_scalar": True, "speedup": 2.0}
                ]
            },
            "reed_solomon": {
                "kernels": [
                    {"kernel": "encode", "matches_oracle": True, "speedup": 12.0}
                ]
            },
        }

    def test_kernel_compare_passes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        base.write_text(json.dumps(self._kernel_doc()))
        new.write_text(json.dumps(self._kernel_doc()))
        assert run("bench", "--compare", base, new) == 0
        assert "OK (no regressions)" in capsys.readouterr().out

    def test_kernel_correctness_regression_fails(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        new_doc = self._kernel_doc()
        new_doc["reed_solomon"]["kernels"][0]["matches_oracle"] = False
        new = tmp_path / "new.json"
        base.write_text(json.dumps(self._kernel_doc()))
        new.write_text(json.dumps(new_doc))
        # Exit 3 is the bench-regression code, distinct from runs drift (4).
        assert run("bench", "--compare", base, new) == 3

    def test_mixed_kinds_rejected(self, tmp_path, capsys):
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps(self._kernel_doc()))
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps({"suite": "smoke", "workloads": []}))
        assert run("bench", "--compare", kernel, pipeline) == 2
        assert "cannot compare" in capsys.readouterr().err


PIPELINE_ARGS = (*ENCODING_ARGS, "--coverage", 6)


class TestTraceFromFlag:
    def _record_trace(self, payload, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            run("pipeline", payload, tmp_path / "out.bin", *PIPELINE_ARGS,
                "--trace", trace_path) == 0
        )
        capsys.readouterr()
        return trace_path

    def test_from_flag_renders_saved_trace(self, payload, tmp_path, capsys):
        trace_path = self._record_trace(payload, tmp_path, capsys)
        assert run("trace", "--from", trace_path) == 0
        assert "span latency" in capsys.readouterr().out

    def test_positional_and_from_together_is_usage_error(
        self, payload, tmp_path, capsys
    ):
        trace_path = self._record_trace(payload, tmp_path, capsys)
        assert run("trace", trace_path, "--from", trace_path) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_no_source_is_usage_error(self, capsys):
        assert run("trace") == 2
        assert "exactly one" in capsys.readouterr().err


class TestRunsRegistryCommands:
    """`pipeline` records by default (conftest points $REPRO_RUNS_DIR at a
    per-test directory); `repro runs` works the resulting registry."""

    def _pipeline(self, payload, tmp_path, registry, *extra):
        return run(
            "pipeline", payload, tmp_path / "out.bin", *PIPELINE_ARGS,
            "--runs-dir", registry, *extra,
        )

    def test_identical_runs_share_a_fingerprint_and_drift_passes(
        self, payload, tmp_path, capsys
    ):
        registry = tmp_path / "registry"
        assert self._pipeline(payload, tmp_path, registry) == 0
        assert self._pipeline(payload, tmp_path, registry) == 0
        capsys.readouterr()
        assert run("runs", "list", "--dir", registry, "--json") == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert len({record["fingerprint"] for record in records}) == 1
        assert run("runs", "drift", "--dir", registry) == 0
        assert "OK (no regressions)" in capsys.readouterr().out

    def test_seed_change_makes_a_new_fingerprint(
        self, payload, tmp_path, capsys
    ):
        registry = tmp_path / "registry"
        assert self._pipeline(payload, tmp_path, registry) == 0
        assert self._pipeline(payload, tmp_path, registry, "--seed", 9) == 0
        capsys.readouterr()
        run("runs", "list", "--dir", registry, "--json")
        records = json.loads(capsys.readouterr().out)
        assert len({record["fingerprint"] for record in records}) == 2
        # The perturbed run has no same-fingerprint history: OK + warning.
        assert run("runs", "drift", "--dir", registry) == 0
        assert "first run of this configuration" in capsys.readouterr().out

    def test_injected_regression_exits_drift_code(
        self, payload, tmp_path, capsys
    ):
        registry = tmp_path / "registry"
        assert self._pipeline(payload, tmp_path, registry) == 0
        capsys.readouterr()
        # Corrupt the newest record's quality in place: the drift gate
        # must flag it against the (identical-fingerprint) history.
        assert self._pipeline(payload, tmp_path, registry) == 0
        log = registry / "runs.jsonl"
        lines = log.read_text().splitlines()
        doctored = json.loads(lines[-1])
        doctored["metrics"]["success"] = 0.0
        lines[-1] = json.dumps(doctored)
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("runs", "drift", "--dir", registry) == 4
        assert "regression(s)" in capsys.readouterr().out

    def test_no_record_skips_the_registry(self, payload, tmp_path):
        registry = tmp_path / "registry"
        assert self._pipeline(payload, tmp_path, registry, "--no-record") == 0
        assert not (registry / "runs.jsonl").exists()

    def test_sample_interval_attaches_series(self, payload, tmp_path, capsys):
        registry = tmp_path / "registry"
        assert (
            self._pipeline(
                payload, tmp_path, registry, "--sample-interval", "0.01"
            ) == 0
        )
        capsys.readouterr()
        run("runs", "list", "--dir", registry, "--json")
        (record,) = json.loads(capsys.readouterr().out)
        samples = record["samples"]
        assert len(samples) >= 2
        times = [sample["t"] for sample in samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_show_and_diff_and_gc(self, payload, tmp_path, capsys):
        registry = tmp_path / "registry"
        assert self._pipeline(payload, tmp_path, registry) == 0
        assert self._pipeline(payload, tmp_path, registry) == 0
        capsys.readouterr()
        run("runs", "list", "--dir", registry, "--json")
        records = json.loads(capsys.readouterr().out)
        a, b = records[1]["run_id"], records[0]["run_id"]
        assert run("runs", "show", a[:17], "--dir", registry) == 0
        assert "drift-gated" in capsys.readouterr().out
        assert run("runs", "diff", a, b, "--dir", registry) == 0
        assert "OK (no regressions)" in capsys.readouterr().out
        assert run("runs", "gc", "--max-count", 1, "--dir", registry) == 0
        assert "kept 1, removed 1" in capsys.readouterr().out
        run("runs", "list", "--dir", registry, "--json")
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_unknown_run_id_is_usage_error(self, tmp_path, capsys):
        registry = tmp_path / "registry"
        assert run("runs", "show", "nope", "--dir", registry) == 2
        assert "no run matches" in capsys.readouterr().err

    def test_gc_without_policy_is_usage_error(self, tmp_path, capsys):
        assert run("runs", "gc", "--dir", tmp_path / "registry") == 2
        assert "max-age-days" in capsys.readouterr().err

    def test_empty_registry_lists_cleanly(self, tmp_path, capsys):
        assert run("runs", "list", "--dir", tmp_path / "registry") == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_default_dir_comes_from_environment(self, payload, tmp_path, capsys):
        # conftest sets $REPRO_RUNS_DIR; recording without --runs-dir and
        # reading without --dir must agree on that location.
        assert (
            run("pipeline", payload, tmp_path / "out.bin", *PIPELINE_ARGS) == 0
        )
        capsys.readouterr()
        assert run("runs", "list", "--json") == 0
        assert len(json.loads(capsys.readouterr().out)) == 1


class TestExitCodeEpilog:
    def test_help_documents_the_contract(self, capsys):
        with pytest.raises(SystemExit):
            run("--help")
        output = capsys.readouterr().out
        assert "exit codes:" in output
        assert "bench regression" in output
        assert "run-registry drift" in output
