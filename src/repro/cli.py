"""Command-line interface: ``python -m repro <command>``.

Each pipeline stage is exposed as a subcommand operating on plain text
files (one strand/read per line), so stages can be chained, inspected and
swapped from the shell exactly as the library allows from Python:

    python -m repro encode  photo.jpg strands.txt
    python -m repro simulate strands.txt reads.txt --channel nanopore --coverage 10
    python -m repro cluster  reads.txt clusters.txt
    python -m repro reconstruct reads.txt clusters.txt consensus.txt
    python -m repro decode   consensus.txt recovered.jpg --params strands.txt.params.json
    python -m repro pipeline photo.jpg recovered.jpg        # all of the above
    python -m repro density  --payload-bytes 30 --parity-columns 20

``encode`` writes a ``<output>.params.json`` sidecar capturing the encoding
parameters; ``decode`` reads it back so the two ends always agree.

Every subcommand accepts ``--trace PATH`` to record an observability trace
(nested spans + counters, JSONL); ``python -m repro trace PATH`` renders a
saved trace as a per-stage latency/counter report.  ``--trace-out PATH``
writes the same run as Chrome Trace Event JSON (one lane per worker
process — open in Perfetto or ``chrome://tracing``), ``repro trace PATH
--chrome OUT`` converts a saved JSONL trace, and ``--profile`` adds
tracemalloc memory / GC attributes to the top-level stage spans.
``pipeline`` also accepts ``--provenance PATH`` to record the per-strand
lineage ledger; ``python -m repro why PATH`` renders its root-cause
forensics (add ``--strand ID`` for one strand's full timeline).

``pipeline`` and ``bench --suite`` runs append a
:class:`~repro.observability.runs.RunRecord` to the persistent run
registry (default ``.repro/runs/``; redirect with ``--runs-dir`` or
``$REPRO_RUNS_DIR``, disable with ``--no-record``).  ``python -m repro
runs`` works the registry: ``list``/``show`` browse history, ``diff``
compares two runs, ``drift`` gates the newest run against its trailing
same-fingerprint window (exit 4 — distinct from ``bench --compare``'s
exit 3 — so CI can tell the two gates apart), ``gc`` prunes by age/count.
``pipeline --sample-interval S`` additionally runs a background telemetry
sampler whose counter/gauge/RSS time-series lands in the RunRecord.

Diagnostics go through the structured ``repro.*`` loggers; the global
``--log-level/-v`` and ``--log-format`` flags control their verbosity and
shape (compact human lines or JSONL).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import density_report, format_table
from repro.clustering import ClusteringConfig, RashtchianClusterer
from repro.codec import DNADecoder, DNAEncoder, EncodingParameters
from repro.codec.layout import make_layout
from repro.observability import (
    ProvenanceLedger,
    RunRegistry,
    TelemetrySampler,
    Tracer,
    as_tracer,
    configure_logging,
    default_runs_dir,
    detect_drift,
    diff_runs,
    get_logger,
    load_ledger,
    load_trace,
    pipeline_run_record,
    render_report,
    render_strand_timeline,
    render_tracer_report,
    render_why_summary,
    resolve_level,
    write_chrome_trace,
    write_ledger,
    write_trace,
)
from repro.parallel import WorkerPool
from repro.pipeline import Pipeline, PipelineConfig
from repro.reconstruction import (
    BMAReconstructor,
    DoubleSidedBMAReconstructor,
    NWConsensusReconstructor,
    WindowedPOAReconstructor,
)
from repro.simulation import (
    ConstantCoverage,
    IIDChannel,
    SOLQCChannel,
    WetlabReferenceChannel,
    sequence_pool,
)

_RECONSTRUCTORS = {
    "bma": BMAReconstructor,
    "dbma": DoubleSidedBMAReconstructor,
    "nwa": NWConsensusReconstructor,
    # Windowed/banded/batched POA: the kb-scale variant of "nwa".  Short
    # strands delegate to the scalar path, so it is byte-identical to
    # "nwa" at the paper's default lengths and only diverges (for a >5x
    # speedup) on strands longer than one window.
    "nww": WindowedPOAReconstructor,
}

# Exit-code contract (documented in the --help epilog).  The two
# regression gates use distinct codes so CI scripts can tell "the bench
# baseline regressed" apart from "the run registry drifted".
EXIT_OK = 0
#: operation failed (decode/round-trip failure, screen violations)
EXIT_FAILURE = 1
#: usage or unreadable-input error
EXIT_USAGE = 2
#: ``repro bench --compare`` found a regression against the baseline
EXIT_BENCH_REGRESSION = 3
#: ``repro runs drift``/``repro runs diff`` found metric drift
EXIT_DRIFT = 4

_EXIT_CODE_EPILOG = """\
exit codes:
  0  success
  1  operation failure (decode/round-trip failure, screen violations)
  2  usage or input error
  3  bench regression (`repro bench --compare`)
  4  run-registry drift (`repro runs drift`, `repro runs diff`)
"""

#: Diagnostics (file-written notices, bench progress) go through the
#: structured logger; primary command output stays on plain ``print``.
_log = get_logger("cli")


def _channel_from_args(args) -> object:
    if args.channel == "iid":
        return IIDChannel.from_total_rate(args.error_rate)
    if args.channel == "solqc":
        return SOLQCChannel()
    if args.channel == "illumina":
        return WetlabReferenceChannel.illumina()
    if args.channel == "nanopore":
        return WetlabReferenceChannel.nanopore()
    raise ValueError(f"unknown channel {args.channel!r}")


def _encoding_from_args(args) -> EncodingParameters:
    return EncodingParameters(
        payload_bytes=args.payload_bytes,
        data_columns=args.data_columns,
        parity_columns=args.parity_columns,
        index_bytes=args.index_bytes,
        layout=make_layout(args.layout),
    )


def _params_path(strands_path: str) -> Path:
    return Path(f"{strands_path}.params.json")


def _save_params(strands_path: str, parameters: EncodingParameters, num_units: int) -> None:
    payload = {
        "payload_bytes": parameters.payload_bytes,
        "data_columns": parameters.data_columns,
        "parity_columns": parameters.parity_columns,
        "index_bytes": parameters.index_bytes,
        "layout": parameters.layout.name,
        "randomize": parameters.randomize,
        "randomizer_seed": parameters.randomizer_seed,
        "num_units": num_units,
    }
    _params_path(strands_path).write_text(json.dumps(payload, indent=2))


def _load_params(path: str):
    data = json.loads(Path(path).read_text())
    num_units = data.pop("num_units", None)
    layout = make_layout(data.pop("layout", "baseline"))
    return EncodingParameters(layout=layout, **data), num_units


def _read_lines(path: str) -> List[str]:
    return [
        line.strip()
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def _write_lines(path: str, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def _start_trace(args) -> Optional[Tracer]:
    """A recording tracer when ``--trace``/``--trace-out``/``--profile``
    asked for one, else None."""
    wants_trace = (
        getattr(args, "trace", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "profile", False)
    )
    if not wants_trace:
        return None
    return Tracer(profile=bool(getattr(args, "profile", False)))


def _finish_trace(args, tracer: Optional[Tracer]) -> None:
    if tracer is None:
        return
    if getattr(args, "trace", None):
        path = write_trace(tracer, args.trace)
        _log.info("trace written to %s", path)
    if getattr(args, "trace_out", None):
        path = write_chrome_trace(tracer, args.trace_out)
        _log.info(
            "chrome trace written to %s (open in Perfetto or chrome://tracing)",
            path,
        )
    if getattr(args, "profile", False) and not getattr(args, "trace", None):
        # --profile without --trace still deserves its numbers: render the
        # live tracer (stage table + fan-out balance + gauges) to stdout.
        print(render_tracer_report(tracer, title="profile report"))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_encode(args) -> int:
    tracer = _start_trace(args)
    parameters = _encoding_from_args(args)
    data = Path(args.input).read_bytes()
    with as_tracer(tracer).span("pipeline.encoding", input_bytes=len(data)) as span:
        pool = DNAEncoder(parameters).encode(data)
        span.set("strands", len(pool.references))
    _write_lines(args.output, pool.references)
    _save_params(args.output, parameters, pool.num_units)
    print(
        f"encoded {len(data)} B into {len(pool.references)} strands "
        f"({pool.num_units} unit(s)); parameters -> {_params_path(args.output)}"
    )
    _finish_trace(args, tracer)
    return 0


def cmd_decode(args) -> int:
    tracer = _start_trace(args)
    parameters, num_units = _load_params(args.params)
    strands = _read_lines(args.input)
    with as_tracer(tracer).span("pipeline.decoding", strands=len(strands)):
        data, report = DNADecoder(parameters).decode(
            strands, expected_units=num_units, tracer=tracer
        )
    Path(args.output).write_bytes(data)
    _finish_trace(args, tracer)
    status = "OK" if report.success else "FAILED (best effort written)"
    print(
        f"decoded {len(data)} B [{status}] — rows: {report.clean_rows} clean, "
        f"{report.corrected_rows} corrected, {report.failed_rows} failed; "
        f"{report.missing_columns} molecules missing"
    )
    return 0 if report.success else 1


def cmd_simulate(args) -> int:
    tracer = _start_trace(args)
    strands = _read_lines(args.input)
    channel = _channel_from_args(args)
    with as_tracer(tracer).span(
        "pipeline.simulation", strands=len(strands), coverage=args.coverage
    ) as span, WorkerPool(args.workers, tracer=tracer) as pool:
        run = sequence_pool(
            strands,
            channel,
            ConstantCoverage(args.coverage),
            seed=args.seed,
            pool=pool,
        )
        span.set("reads", len(run.reads))
        span.set("dropouts", len(run.dropouts))
        span.set("shards", pool.last_shards)
    _write_lines(args.output, run.reads)
    print(
        f"sequenced {len(strands)} strands at coverage {args.coverage} "
        f"through {args.channel}: {len(run.reads)} reads "
        f"({len(run.dropouts)} dropouts)"
    )
    _finish_trace(args, tracer)
    return 0


def cmd_cluster(args) -> int:
    tracer = _start_trace(args)
    reads = _read_lines(args.input)
    config = ClusteringConfig(signature=args.signature, seed=args.seed)
    with as_tracer(tracer).span(
        "pipeline.clustering", reads=len(reads)
    ), WorkerPool(args.workers, tracer=tracer) as pool:
        result = RashtchianClusterer(config).cluster(reads, tracer=tracer, pool=pool)
    _write_lines(
        args.output,
        (" ".join(str(i) for i in cluster) for cluster in result.clusters),
    )
    print(
        f"clustered {len(reads)} reads into {len(result.clusters)} clusters "
        f"in {result.total_seconds:.1f}s "
        f"({result.edit_comparisons} edit-distance calls; "
        f"theta=({result.theta_low:.1f}, {result.theta_high:.1f}))"
    )
    _finish_trace(args, tracer)
    return 0


def cmd_reconstruct(args) -> int:
    tracer = _start_trace(args)
    reads = _read_lines(args.reads)
    clusters = [
        [int(token) for token in line.split()] for line in _read_lines(args.clusters)
    ]
    reconstructor = _RECONSTRUCTORS[args.algorithm]()
    kept = [
        [reads[i] for i in cluster]
        for cluster in clusters
        if len(cluster) >= args.min_cluster_size
    ]
    with as_tracer(tracer).span(
        "pipeline.reconstruction", clusters=len(kept)
    ), WorkerPool(args.workers, tracer=tracer) as pool:
        consensus = reconstructor.reconstruct_all(
            kept, args.length, tracer=tracer, pool=pool
        )
    _write_lines(args.output, consensus)
    print(
        f"reconstructed {len(consensus)} strands with {args.algorithm} "
        f"(expected length {args.length})"
    )
    _finish_trace(args, tracer)
    return 0


def cmd_pipeline(args) -> int:
    tracer = _start_trace(args)
    data = Path(args.input).read_bytes()
    config = PipelineConfig(
        encoding=_encoding_from_args(args),
        channel=_channel_from_args(args),
        coverage=ConstantCoverage(args.coverage),
        clustering=ClusteringConfig(signature=args.signature, seed=args.seed),
        reconstructor=_RECONSTRUCTORS[args.algorithm](),
        seed=args.seed,
        workers=args.workers,
        quality_sample=args.quality_sample,
    )
    ledger = ProvenanceLedger() if args.provenance else None
    recording = not args.no_record
    # Recording and sampling need a live metrics registry even when no
    # --trace was requested; a private tracer changes no output.
    run_tracer = tracer
    if run_tracer is None and (recording or args.sample_interval):
        run_tracer = Tracer()
    sampler = (
        TelemetrySampler(run_tracer.metrics, interval=args.sample_interval)
        if args.sample_interval
        else None
    )
    result = Pipeline(config).run(
        data, tracer=run_tracer, ledger=ledger, sampler=sampler
    )
    Path(args.output).write_bytes(result.data)
    if recording:
        registry = RunRegistry(args.runs_dir)
        record = registry.append(
            pipeline_run_record(
                config,
                result,
                data_bytes=len(data),
                label=str(args.input),
                samples=sampler.samples if sampler is not None else (),
                tracer=run_tracer,
            )
        )
        # Debug level: the default (no-flag) stdout must stay identical
        # to the unrecorded output.
        _log.debug("run %s recorded to %s", record.run_id, registry.root)
    if ledger is not None and result.provenance is not None:
        path = write_ledger(result.provenance, args.provenance)
        _log.info("provenance ledger written to %s (render with `repro why`)", path)
    rows = [
        [stage, f"{seconds:.2f}"]
        for stage, seconds in result.timings.as_dict().items()
    ]
    print(format_table(["stage", "seconds"], rows, title="pipeline latency"))
    match = result.data == data
    print(f"round trip: {'exact recovery' if match else 'MISMATCH'}")
    _finish_trace(args, tracer)
    return 0 if match else 1


def cmd_density(args) -> int:
    tracer = _start_trace(args)
    with as_tracer(tracer).span("analysis.density"):
        report = density_report(_encoding_from_args(args))
    print(format_table(["quantity", "value"], report.as_rows(), title="density"))
    _finish_trace(args, tracer)
    return 0


def cmd_trace(args) -> int:
    source = args.input or args.from_file
    if source is None or (args.input and args.from_file):
        print(
            "error: provide exactly one saved trace "
            "(positional PATH or --from PATH)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        trace = load_trace(source)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(render_report(trace, title=f"trace report ({source})"))
    if args.chrome:
        path = write_chrome_trace(trace, args.chrome)
        _log.info(
            "chrome trace written to %s (open in Perfetto or chrome://tracing)",
            path,
        )
    return 0


def cmd_why(args) -> int:
    try:
        report = load_ledger(args.input)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.strand is not None:
        record = report.strand(args.strand)
        if record is None:
            print(
                f"error: strand {args.strand} not in ledger "
                f"({len(report.strands)} strands recorded)",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(json.dumps(record.as_dict(), indent=2))
        else:
            unit = next(
                (u for u in report.units if u.unit == record.unit), None
            )
            print(render_strand_timeline(record, unit))
        return 0
    if args.json:
        print(json.dumps(report.summary.as_dict(), indent=2))
    else:
        print(render_why_summary(report, title=f"decode forensics ({args.input})"))
    return 0


def cmd_bench(args) -> int:
    from repro.benchmarking import (
        CompareThresholds,
        SUITES,
        compare_reports,
        load_bench_report,
        render_comparison,
        run_suite,
        write_bench_report,
    )
    from repro.benchmarking.report import default_output_path

    if args.list:
        from repro.benchmarking import get_suite

        for name in sorted(SUITES):
            workloads = get_suite(name)
            print(f"{name}: {', '.join(w.name for w in workloads)}")
        print("kernels: distance + signature kernel microbenchmarks (single thread)")
        return 0

    if args.compare:
        from repro.benchmarking import (
            KERNEL_BENCH_KIND,
            compare_kernel_reports,
            load_kernel_bench,
        )

        baseline_path, new_path = args.compare
        try:
            raw_baseline = json.loads(Path(baseline_path).read_text())
            raw_new = json.loads(Path(new_path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        kernel_kinds = [
            report.get("kind") == KERNEL_BENCH_KIND
            for report in (raw_baseline, raw_new)
        ]
        try:
            if any(kernel_kinds):
                if not all(kernel_kinds):
                    raise ValueError(
                        "cannot compare a kernel-bench report against a "
                        "pipeline bench report"
                    )
                # Kernel docs gate correctness exactly; timing only warns
                # (kernel timings do not transfer between machines).
                result = compare_kernel_reports(
                    load_kernel_bench(baseline_path), load_kernel_bench(new_path)
                )
            else:
                baseline = load_bench_report(baseline_path)
                new = load_bench_report(new_path)
                thresholds = CompareThresholds(
                    max_latency_ratio=args.max_latency_ratio,
                    quality_tolerance=args.quality_tolerance,
                    quality_only=args.quality_only,
                    identical_quality=args.identical_quality,
                )
                result = compare_reports(baseline, new, thresholds)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            render_comparison(
                result, title=f"bench comparison ({baseline_path} -> {new_path})"
            )
        )
        return EXIT_OK if result.ok else EXIT_BENCH_REGRESSION

    if not args.suite:
        print("error: provide --suite NAME, --compare BASE NEW, or --list",
              file=sys.stderr)
        return 2
    if args.suite == "kernels":
        # Kernel microbenchmarks produce their own document kind; they
        # measure the distance/signature kernels in isolation, single
        # threaded, so --workers does not apply.
        from repro.benchmarking.kernels import render_kernel_bench, run_kernel_bench

        report = run_kernel_bench()
        print(render_kernel_bench(report))
        path = Path(args.out or default_output_path("kernels"))
        path.write_text(json.dumps(report, indent=2) + "\n")
        _log.info("kernel bench report written to %s", path)
        return 0
    registry = None if args.no_record else RunRegistry(args.runs_dir)
    report = run_suite(
        args.suite, progress=_log.info, workers=args.workers, registry=registry
    )
    path = write_bench_report(report, args.out or default_output_path(args.suite))
    _log.info("bench report written to %s", path)
    if registry is not None:
        _log.debug("bench run recorded to %s", registry.root)
    return 0


def _run_summary_row(record) -> List[str]:
    return [
        record.run_id,
        record.kind,
        record.created_iso,
        record.fingerprint[:12],
        "-" if record.seed is None else str(record.seed),
        str(record.workers),
        f"{record.total_seconds:.2f}",
        record.label or "-",
    ]


def cmd_runs(args) -> int:
    from repro.benchmarking import render_comparison

    registry = RunRegistry(args.dir)
    action = args.runs_command

    if action == "list":
        records = registry.records()
        if args.limit and args.limit > 0:
            records = records[-args.limit :]
        records = list(reversed(records))  # newest first
        if args.json:
            print(json.dumps([record.as_dict() for record in records], indent=2))
            return EXIT_OK
        if not records:
            print(f"no runs recorded in {registry.root}")
            return EXIT_OK
        print(
            format_table(
                ["run id", "kind", "created (UTC)", "fingerprint", "seed",
                 "workers", "total s", "label"],
                [_run_summary_row(record) for record in records],
                title=f"run registry ({registry.root}, newest first)",
            )
        )
        return EXIT_OK

    if action == "show":
        try:
            record = registry.get(args.run_id)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return EXIT_USAGE
        if args.json:
            print(json.dumps(record.as_dict(), indent=2))
            return EXIT_OK
        rows = [
            ["run id", record.run_id],
            ["kind", record.kind],
            ["created (UTC)", record.created_iso],
            ["git sha", record.git_sha],
            ["fingerprint", record.fingerprint],
            ["label", record.label or "-"],
            ["seed", "-" if record.seed is None else str(record.seed)],
            ["workers", str(record.workers)],
            ["total seconds", f"{record.total_seconds:.3f}"],
            ["peak RSS", f"{record.peak_rss_bytes / 1e6:.1f} MB"],
            ["telemetry samples", str(len(record.samples))],
        ]
        print(format_table(["field", "value"], rows, title=f"run {record.run_id}"))
        if record.timings:
            print()
            print(
                format_table(
                    ["stage", "seconds"],
                    [[k, f"{v:.3f}"] for k, v in record.timings.items()],
                    title="timings (informational, never drift-gated)",
                )
            )
        if record.metrics:
            print()
            print(
                format_table(
                    ["metric", "value"],
                    [[k, f"{v:g}"] for k, v in sorted(record.metrics.items())],
                    title="metrics (drift-gated)",
                )
            )
        if record.load_imbalance:
            print()
            print(
                format_table(
                    ["fan-out site", "max/mean"],
                    [[k, f"{v:.3f}"] for k, v in sorted(record.load_imbalance.items())],
                    title="load imbalance",
                )
            )
        return EXIT_OK

    if action == "diff":
        try:
            run_a = registry.get(args.run_a)
            run_b = registry.get(args.run_b)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return EXIT_USAGE
        result = diff_runs(run_a, run_b, tolerance=args.tolerance)
        print(
            render_comparison(
                result, title=f"run diff ({run_a.run_id} -> {run_b.run_id})"
            )
        )
        return EXIT_OK if result.ok else EXIT_DRIFT

    if action == "drift":
        run = None
        if args.run_id is not None:
            try:
                run = registry.get(args.run_id)
            except KeyError as error:
                print(f"error: {error.args[0]}", file=sys.stderr)
                return EXIT_USAGE
        result = detect_drift(
            registry, run=run, window=args.window, tolerance=args.tolerance
        )
        print(render_comparison(result, title=f"drift check ({registry.root})"))
        return EXIT_OK if result.ok else EXIT_DRIFT

    if action == "gc":
        if args.max_age_days is None and args.max_count is None:
            print(
                "error: provide --max-age-days and/or --max-count",
                file=sys.stderr,
            )
            return EXIT_USAGE
        kept, removed = registry.gc(
            max_age_days=args.max_age_days, max_count=args.max_count
        )
        print(f"runs gc: kept {kept}, removed {removed} ({registry.root})")
        return EXIT_OK

    raise AssertionError(f"unhandled runs action {action!r}")


def cmd_stats(args) -> int:
    from repro.analysis.poolstats import pool_statistics

    tracer = _start_trace(args)
    strands = _read_lines(args.input)
    with as_tracer(tracer).span("analysis.poolstats", strands=len(strands)):
        stats = pool_statistics(strands, max_run=args.max_run)
    rows = [
        ["strands", str(stats.strands)],
        ["GC mean / min / max", f"{stats.gc_mean:.3f} / {stats.gc_min:.3f} / {stats.gc_max:.3f}"],
        ["GC violations", str(stats.gc_violations)],
        ["longest homopolymer", str(stats.homopolymer_max)],
        [f"runs > {args.max_run}", str(stats.homopolymer_violations)],
        ["verdict", "clean" if stats.clean else "screen violations present"],
    ]
    print(format_table(["quantity", "value"], rows, title="pool statistics"))
    _finish_trace(args, tracer)
    return 0 if stats.clean else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_encoding_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--payload-bytes", type=int, default=30)
    parser.add_argument("--data-columns", type=int, default=60)
    parser.add_argument("--parity-columns", type=int, default=20)
    parser.add_argument("--index-bytes", type=int, default=3)
    parser.add_argument(
        "--layout", choices=("baseline", "gini", "dnamapper"), default="baseline"
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the parallel stages (default 1: in-process; "
        "outputs are identical at any worker count)",
    )


def _add_channel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--channel",
        choices=("iid", "solqc", "illumina", "nanopore"),
        default="iid",
    )
    parser.add_argument("--error-rate", type=float, default=0.06)
    parser.add_argument("--coverage", type=int, default=10)


def _add_record_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip appending this run to the run registry",
    )
    parser.add_argument(
        "--runs-dir",
        metavar="DIR",
        default=None,
        help="run registry location (default $REPRO_RUNS_DIR or .repro/runs)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DNA Storage Toolkit command line",
        epilog=_EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    encode = commands.add_parser("encode", help="file -> strands")
    encode.add_argument("input")
    encode.add_argument("output")
    _add_encoding_arguments(encode)
    encode.set_defaults(handler=cmd_encode)

    decode = commands.add_parser("decode", help="strands -> file")
    decode.add_argument("input")
    decode.add_argument("output")
    decode.add_argument(
        "--params",
        required=True,
        help="params sidecar written by `encode` (…/strands.txt.params.json)",
    )
    decode.set_defaults(handler=cmd_decode)

    simulate = commands.add_parser("simulate", help="strands -> noisy reads")
    simulate.add_argument("input")
    simulate.add_argument("output")
    _add_channel_arguments(simulate)
    simulate.add_argument("--seed", type=int, default=0)
    _add_workers_argument(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    cluster = commands.add_parser("cluster", help="reads -> clusters")
    cluster.add_argument("input")
    cluster.add_argument("output")
    cluster.add_argument("--signature", choices=("qgram", "wgram"), default="qgram")
    cluster.add_argument("--seed", type=int, default=0)
    _add_workers_argument(cluster)
    cluster.set_defaults(handler=cmd_cluster)

    reconstruct = commands.add_parser(
        "reconstruct", help="reads + clusters -> consensus strands"
    )
    reconstruct.add_argument("reads")
    reconstruct.add_argument("clusters")
    reconstruct.add_argument("output")
    reconstruct.add_argument("--algorithm", choices=sorted(_RECONSTRUCTORS), default="nwa")
    reconstruct.add_argument("--length", type=int, required=True)
    reconstruct.add_argument("--min-cluster-size", type=int, default=2)
    _add_workers_argument(reconstruct)
    reconstruct.set_defaults(handler=cmd_reconstruct)

    pipeline = commands.add_parser("pipeline", help="full round trip")
    pipeline.add_argument("input")
    pipeline.add_argument("output")
    _add_encoding_arguments(pipeline)
    _add_channel_arguments(pipeline)
    pipeline.add_argument("--signature", choices=("qgram", "wgram"), default="qgram")
    pipeline.add_argument("--algorithm", choices=sorted(_RECONSTRUCTORS), default="nwa")
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument(
        "--quality-sample",
        type=int,
        default=64,
        metavar="READS",
        help="reads aligned against their origin strands for the channel "
        "quality section (quadratic in strand length; 0 skips it — "
        "recommended for kb-scale strands)",
    )
    pipeline.add_argument(
        "--provenance",
        metavar="PATH",
        default=None,
        help="record the per-strand provenance ledger to PATH as JSONL "
        "(render with `repro why PATH`)",
    )
    _add_workers_argument(pipeline)
    _add_record_arguments(pipeline)
    pipeline.add_argument(
        "--sample-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sample counters/gauges/RSS every SECONDS in a background "
        "thread; the time-series lands in the recorded RunRecord",
    )
    pipeline.set_defaults(handler=cmd_pipeline)

    density = commands.add_parser("density", help="information-density report")
    _add_encoding_arguments(density)
    density.set_defaults(handler=cmd_density)

    stats = commands.add_parser(
        "stats", help="synthesis-screen statistics for a strands file"
    )
    stats.add_argument("input")
    stats.add_argument("--max-run", type=int, default=6)
    stats.set_defaults(handler=cmd_stats)

    trace = commands.add_parser(
        "trace", help="render a saved trace (latency + counters report)"
    )
    trace.add_argument(
        "input", nargs="?", default=None, help="JSONL trace written by --trace"
    )
    trace.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        default=None,
        help="render the saved JSONL trace at FILE (alias for the "
        "positional PATH; provide exactly one)",
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help="also convert the trace to Chrome Trace Event JSON at PATH "
        "(open in Perfetto or chrome://tracing)",
    )
    trace.set_defaults(handler=cmd_trace)

    why = commands.add_parser(
        "why",
        help="decode-failure forensics from a saved provenance ledger",
    )
    why.add_argument(
        "input", help="JSONL ledger written by `pipeline --provenance`"
    )
    why.add_argument(
        "--strand",
        type=int,
        default=None,
        metavar="ID",
        help="show one strand's full lineage timeline instead of the summary",
    )
    why.add_argument(
        "--json",
        action="store_true",
        help="emit the summary (or strand record) as JSON for scripting",
    )
    why.set_defaults(handler=cmd_why)

    bench = commands.add_parser(
        "bench",
        help="run a benchmark suite (BENCH_<suite>.json) or compare two runs",
    )
    bench.add_argument(
        "--suite", default=None, help="suite to run (see --list)"
    )
    bench.add_argument(
        "--out",
        default=None,
        help="output path for the bench report (default BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "NEW"),
        default=None,
        help="compare two bench reports; exits 3 on regression",
    )
    bench.add_argument(
        "--max-latency-ratio",
        type=float,
        default=1.5,
        help="flag when new total p50 latency exceeds baseline by this factor",
    )
    bench.add_argument(
        "--quality-tolerance",
        type=float,
        default=0.10,
        help="relative tolerance applied to every quality metric",
    )
    bench.add_argument(
        "--quality-only",
        action="store_true",
        help="skip latency comparison (for cross-machine baselines, e.g. CI)",
    )
    bench.add_argument(
        "--identical-quality",
        action="store_true",
        help="require byte-identical quality sections (worker-count sweeps)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list suites and their workloads"
    )
    _add_workers_argument(bench)
    _add_record_arguments(bench)
    bench.set_defaults(handler=cmd_bench)

    runs = commands.add_parser(
        "runs",
        help="browse the run registry, diff runs, gate on drift, prune",
        epilog=_EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_commands.add_parser(
        "list", help="recorded runs, newest first"
    )
    runs_list.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="show only the newest N runs (default: all)",
    )
    runs_list.add_argument(
        "--json", action="store_true", help="emit the records as JSON"
    )

    runs_show = runs_commands.add_parser(
        "show", help="one record in full (accepts a unique id prefix)"
    )
    runs_show.add_argument("run_id", help="run id or unique prefix")
    runs_show.add_argument(
        "--json", action="store_true", help="emit the record as JSON"
    )

    runs_diff = runs_commands.add_parser(
        "diff", help="diff two runs' metric maps (exits 4 past tolerance)"
    )
    runs_diff.add_argument("run_a", help="baseline run id (or unique prefix)")
    runs_diff.add_argument("run_b", help="new run id (or unique prefix)")
    runs_diff.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative tolerance applied to every metric (default 0.10)",
    )

    runs_drift = runs_commands.add_parser(
        "drift",
        help="gate the newest run against its trailing same-fingerprint "
        "window (exits 4 on drift; OK with a warning when no history)",
    )
    runs_drift.add_argument(
        "--run",
        dest="run_id",
        default=None,
        metavar="RUN_ID",
        help="check this run instead of the newest record",
    )
    runs_drift.add_argument(
        "--window",
        type=int,
        default=8,
        metavar="N",
        help="trailing same-fingerprint runs to average (default 8)",
    )
    runs_drift.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative tolerance applied to every metric (default 0.10)",
    )

    runs_gc = runs_commands.add_parser(
        "gc", help="prune old records by age and/or count"
    )
    runs_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="drop records older than DAYS",
    )
    runs_gc.add_argument(
        "--max-count",
        type=int,
        default=None,
        metavar="N",
        help="keep only the newest N records",
    )

    for runs_sub in (runs_list, runs_show, runs_diff, runs_drift, runs_gc):
        runs_sub.add_argument(
            "--dir",
            metavar="DIR",
            default=None,
            help="registry location (default $REPRO_RUNS_DIR or .repro/runs)",
        )
    runs.set_defaults(handler=cmd_runs)

    # Global observability flags: every subcommand (except the renderers
    # and the bench harness, which manage their own tracers) can record
    # its run as a JSONL trace and/or a Chrome (Perfetto) timeline, and
    # opt into per-stage resource profiling.
    for name, subparser in commands.choices.items():
        if name not in ("trace", "why", "bench", "runs"):
            subparser.add_argument(
                "--trace",
                metavar="PATH",
                default=None,
                help="record spans + counters to PATH as JSONL "
                "(render with `repro trace PATH`)",
            )
            subparser.add_argument(
                "--trace-out",
                metavar="PATH",
                default=None,
                help="record the run as Chrome Trace Event JSON at PATH — "
                "one lane per worker process; open in Perfetto or "
                "chrome://tracing",
            )
            subparser.add_argument(
                "--profile",
                action="store_true",
                help="profile top-level stages (tracemalloc current/peak "
                "memory + GC counts as span attributes); implies tracing",
            )

    # Global logging flags: the CLI defaults to info-level diagnostics;
    # -v raises to debug, --log-level overrides outright.  The `runs`
    # sub-subcommands get their own copies so the flags work after the
    # action word too (`repro runs list -v`).
    logging_parsers = list(commands.choices.values()) + [
        runs_list, runs_show, runs_diff, runs_drift, runs_gc
    ]
    for subparser in logging_parsers:
        subparser.add_argument(
            "--log-level",
            choices=("debug", "info", "warning", "error"),
            default=None,
            help="diagnostic verbosity (default info)",
        )
        subparser.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="raise diagnostic verbosity (-v = debug)",
        )
        subparser.add_argument(
            "--log-format",
            choices=("human", "json"),
            default="human",
            help="diagnostic format: compact lines or JSONL records",
        )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # The CLI runs one verbosity step above the library default (info,
    # not warning) so file-written notices are visible; diagnostics go to
    # stdout so they interleave with the primary output they annotate.
    configure_logging(
        resolve_level(args.log_level, args.verbose + 1),
        fmt=args.log_format,
        stream=sys.stdout,
    )
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
