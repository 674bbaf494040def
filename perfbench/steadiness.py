"""Steadiness check: is each end-to-end metric steady enough for its bound?

Runs ``perfbench/run.py --trace 0`` on every workload once per seed, in
``--sets`` independent sets of ``--seeds`` seeds each (set *k* uses seeds
``1 + 1000*k + i``), then reports per set, workload and metric the median,
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  A metric is flagged when its spread exceeds its
``bound`` from ``BENCHMARK.json``, or when a later set's median is worse
than the first set's by more than the bound.  Spreads above a third of
the bound are marked ``~`` as a warning.  Exits 1 when anything is flagged.

    python3 perfbench/steadiness.py --seeds 10 --sets 2
    python3 perfbench/steadiness.py --workloads bma-bulk --seeds 5 --sets 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} objects failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values):
    """Median, quartiles and relative spread of one metric's values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def _worse_by(first: float, later: float, better: str) -> float:
    """Relative worsening of *later* against *first* (negative = better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def check(sets, metrics):
    """Flag lines for *sets* (``[{workload: [metric dicts]}]``) and the table."""
    lines, flags = [], []
    for workload in sets[0]:
        for metric in metrics:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            summaries = [summarize([run[name] for run in s[workload]]) for s in sets]
            for index, summary in enumerate(summaries):
                drift = _worse_by(summaries[0]["median"], summary["median"], better)
                mark = " "
                if summary["spread"] > bound:
                    mark = "!"
                    flags.append(
                        f"{workload} {name} set {index}: spread "
                        f"{summary['spread']:.3f} > bound {bound}"
                    )
                elif summary["spread"] > bound / 3:
                    mark = "~"
                lines.append(
                    f"{mark} {workload:<11} {name:<14} set {index}  "
                    f"median {summary['median']:>14.6g}  q1 {summary['q1']:>14.6g}  "
                    f"q3 {summary['q3']:>14.6g}  spread {summary['spread']:.3f}  "
                    + (f"worse than set 0 by {drift:+.3f}  " if index else "")
                    + f"(bound {bound})"
                )
                if drift > bound:
                    flags.append(
                        f"{workload} {name} set {index}: median worse than set 0 "
                        f"by more than {bound}"
                    )
    return lines, flags


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to compute quartiles")

    sets = []
    for set_index in range(args.sets):
        runs = {workload: [] for workload in args.workloads}
        for offset in range(args.seeds):
            seed = 1 + 1000 * set_index + offset
            for workload in args.workloads:
                runs[workload].append(_run(workload, seed, args.seconds))
                print(f"set {set_index} seed {seed} {workload}: {runs[workload][-1]}", flush=True)
        sets.append(runs)

    lines, flags = check(sets, benchmark["end_to_end"])
    print("\n".join(lines))
    out = ROOT / "perfbench" / "out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"sets": sets, "flags": flags}, indent=1))
    for flag in flags:
        print(f"FLAG {flag}")
    print("steady" if not flags else f"{len(flags)} flags")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
