"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload nw-table3 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs every object untraced and traced, checks both produced
the same outputs, writes the spans to ``perfbench/out/`` and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table.  Exit codes: 0 done (failed objects are counted,
not fatal), 2 the checkout has no ``src/repro`` to benchmark, 3 a
benchmark fault (traced outputs differ, or a set-up probe failed).

``setup_s`` is the median of several set-ups: this process's, and one
fresh interpreter's after each measured object (``--setup-only``).  A
single set-up is ~0.4 s, nearly all imports, and its spread across seeds
on a shared 2-vCPU host was ~0.3; set-ups spread over the measuring window
smooth the host's speed swings within a run.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("nw-table3", "bma-bulk", "codec-bulk")
EXIT_NO_PROGRAM = 2
EXIT_FAULT = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up time as JSON and exit (the set-up probe)",
    )
    return parser.parse_args(argv)


def _import_program():
    """Import the benchmark modules against this checkout's ``src/``."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        return None
    from perfbench import harness, tracing, workloads

    return harness, tracing, workloads


def _probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running this script's set-up."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _print_result(title, rows, attempted, failed, metrics, units) -> None:
    width = max(len(name) for name, _, _ in rows)
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    args = _parse(argv)
    modules = _import_program()
    if modules is None:
        print(f"error: no repro package under {ROOT / 'src'} to benchmark", file=sys.stderr)
        return EXIT_NO_PROGRAM
    harness, tracing, workloads = modules
    runner = workloads.Runner(workloads.WORKLOADS[args.workload], args.seed)
    runner.warm_up()
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        recorder = tracing.SpanRecorder()
        try:
            plain, traced, tracers, cpu = harness.measure_traced(
                runner, args.seconds, recorder
            )
            metrics = harness.per_layer(recorder, plain, traced, tracers, cpu)
        except harness.OutputMismatch as fault:
            print(f"benchmark fault: {fault}", file=sys.stderr)
            return EXIT_FAULT
        recorder.write(ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json")
        failed = sum(not o.ok for o in traced)
        rows = [(name, value, harness.PER_LAYER[name]) for name, value in metrics.items()]
        title = f"{args.workload} seed {args.seed}: per-layer, {len(traced)} traced objects"
        _print_result(title, rows, len(traced), failed, metrics, harness.PER_LAYER)
        return 0

    setups = [setup_s]
    try:
        outcomes = harness.measure(
            runner, args.seconds, between=lambda: setups.append(_probe_setup(args))
        )
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as fault:
        print(f"benchmark fault: {fault}", file=sys.stderr)
        return EXIT_FAULT
    rss_mb = harness.peak_rss_mb()
    metrics = harness.end_to_end(outcomes, statistics.median(setups), rss_mb)
    failed = sum(not o.ok for o in outcomes)
    rows = [(name, value, harness.END_TO_END[name]) for name, value in metrics.items()]
    rows += [(name, value, harness.EXTRAS[name]) for name, value in harness.extras(outcomes).items()]
    title = f"{args.workload} seed {args.seed}: {len(outcomes)} objects (object_p50_s samples)"
    _print_result(title, rows, len(outcomes), failed, metrics, harness.END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
