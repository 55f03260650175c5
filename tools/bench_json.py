"""Write BENCH_<PR>.json: the benchmark's end-to-end and per-layer metrics.

Usage, from anywhere:

    python3 tools/bench_json.py --checkout DIR [--baseline DIR] --out BENCH_8.json

For every workload declared in the checkout's BENCHMARK.json, the script runs
the checkout's own ``benchmark/run.py`` with ``--trace 0`` (end-to-end view)
and ``--trace 1`` (per-layer view), RUNS (10) times each with seed SEED, for
the run length the checkout's BENCHMARK.json sets, and records every run's
value of each metric with their median and quartiles. With ``--baseline`` the
same runs are made in the baseline checkout too, in pairs whose order swaps
from one pair to the next, so that neither side always runs first. RUNS is
ten because a gain is judged on at least ten alternating pairs, and because
three runs could not tell a change in ``setup_s`` from its spread. Each metric
then also gets the baseline's median and quartiles, the relative change of
the medians and whether the two sides' quartile ranges overlap, so a change
can be read against the baseline's spread. The report also records, for
each checkout, the line counts of its ``src/qwjoin/*.py`` files, one per
file and their total, as ``wc -l`` counts them, so that source size is
tracked next to time. A run that reports ``correct:
false`` or a failed call stops the script with exit status 1 and a message
naming the workload, the view, the side and the run index; no report is
written then. The benchmark files are only read and run,
never written; the runs leave their outputs in each checkout's ignored
``benchmark/out/``.

Make both checkouts the same way, for example both with ``git archive``:
the same source run from a git working tree and from a fresh copy of its
files has shown ``peak_rss_mb`` about 0.3 MB apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

VIEWS = {0: "end_to_end", 1: "per_layer"}
RUNS = 10
SEED = 53


def source_lines(checkout: Path) -> dict:
    """The newline count of each src/qwjoin/*.py file of the checkout, and their total."""
    files = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted((checkout / "src" / "qwjoin").glob("*.py"))
    }
    return {"total": sum(files.values()), "files": files}


def run_once(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """One benchmark run; its last output line is the result object."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """The values in run order, their median and their first and third quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(results: list[dict]) -> dict:
    """Each metric's runs and spread, with the runs' correctness and failures."""
    names = results[0]["metrics"]
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {
            name: {
                **spread([r["metrics"][name]["value"] for r in results]),
                "unit": results[0]["metrics"][name]["unit"],
            }
            for name in names
        },
    }


def compare(change: dict, base: dict) -> None:
    """Put the baseline's spread and the relative change of the medians next to the change's.

    ranges_overlap says whether the change's and the baseline's quartile
    ranges [q1, q3] overlap. When they do, the runs' spread covers the
    relative change, which then reads as noise rather than a difference.
    """
    for name, metric in change["metrics"].items():
        before = base["metrics"][name]
        metric["baseline"] = {key: before[key] for key in ("median", "q1", "q3")}
        median = before["median"]
        metric["relative_change"] = (metric["median"] - median) / median if median else None
        metric["ranges_overlap"] = metric["q1"] <= before["q3"] and before["q1"] <= metric["q3"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    roles = [("change", args.checkout.resolve())]
    if args.baseline:
        roles.insert(0, ("baseline", args.baseline.resolve()))
    report: dict = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "settings": {"runs": RUNS, "seconds": seconds, "seed": SEED},
        "source_lines": {role: source_lines(path) for role, path in roles},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        entry = report["workloads"][workload] = {}
        for trace, view in VIEWS.items():
            results: dict[str, list[dict]] = {role: [] for role, _ in roles}
            for run in range(RUNS):
                for role, path in roles if run % 2 == 0 else roles[::-1]:
                    result = run_once(path, workload, seconds, trace)
                    if not result["correct"] or result["failed"]:
                        sys.exit(
                            f"{workload} {view}: {role} run {run} is not clean "
                            f"(correct {result['correct']}, {result['failed']} failed calls)"
                        )
                    results[role].append(result)
            summaries = {role: summarize(runs) for role, runs in results.items()}
            if args.baseline:
                compare(summaries["change"], summaries["baseline"])
            entry[view] = summaries
            print(f"{workload} {view}: done", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
