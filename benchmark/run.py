"""Benchmark of qwjoin: part certificates, large-cone confirmation and CLI sweeps.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports qwjoin from ``src/`` of the checkout, builds the workload's inputs
from the seed, runs one untimed warm-up round, then times whole rounds until
S seconds have passed, and finally checks every output outside the timed
region. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Run outputs (span files, the CLI's reports) go to ``benchmark/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread (nproc is 2 on the reference host); QWJOIN_THREADS stays
# unset so threshold_transfer_search runs its sequential default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QWJOIN_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

WORKLOAD_NAMES = ("part_certificates", "cone_confirm", "search_cli")
SETUP_REPEATS = 7
TAIL = 90  # percentile; every run makes at least MIN_CALLS calls, so ten lie beyond it
MIN_CALLS = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> None:
    """Child process: time the import of qwjoin plus building the inputs."""
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ref = statistics.median(reference.python_kernel() for _ in range(3))
        start = time.perf_counter()
        import workloads

        workloads.build(args.workload, args.seed, Path(tmp))
        elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed * reference.NOMINAL_S["python"] / ref}))


def measure_setup(args) -> float:
    """Median of SETUP_REPEATS fresh processes, each normalized by its kernel."""
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def invoke(call):
    """Run one call; for the CLI, capture exit code and printed output."""
    if call.func != "cli":
        return call.run()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = call.run()
    return code, buf.getvalue()


def outcome(call, result):
    """What a call produced, with CLI files read back, for checking and comparing."""
    if call.func != "cli":
        return result
    code, text = result
    return code, text, [Path(f).read_text() for f in call.files]


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if not (SRC / "qwjoin" / "__init__.py").is_file():
        print(f"qwjoin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qwjoin
    import workloads

    if Path(qwjoin.__file__).resolve().parent != (SRC / "qwjoin").resolve():
        print(f"imported qwjoin from {qwjoin.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        return run(args, workloads.build(args.workload, args.seed, workdir), setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, calls, setup_s: float | None) -> int:
    # warm-up round: untimed; its outputs are the ones checked, and every
    # timed round must reproduce them
    expected, problems = [], []
    for call in calls:
        reference.KERNELS[call.kernel]()
        try:
            expected.append(outcome(call, invoke(call)))
        except Exception as exc:  # a failed call is counted, not fatal
            expected.append(exc)
    expected_repr = [repr(e) for e in expected]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    records = []  # (round, call index, seconds, slowdown factor, span lo, span hi)
    attempted = failed = 0
    clock = time.perf_counter
    start = clock()
    rnd = 0
    try:
        while clock() - start < args.seconds or attempted < MIN_CALLS:
            for i, call in enumerate(calls):
                slowdown = reference.KERNELS[call.kernel]() / reference.NOMINAL_S[call.kernel]
                lo = len(tracer.spans) if tracer else 0
                t0 = clock()
                try:
                    result = invoke(call)
                    ok = True
                except Exception:
                    ok = False
                elapsed = clock() - t0
                hi = len(tracer.spans) if tracer else 0
                attempted += 1
                if not ok:
                    failed += 1
                elif repr(outcome(call, result)) != expected_repr[i]:
                    problems.append(f"{call.label}: round {rnd} output differs from the warm-up round")
                records.append((rnd, i, elapsed, slowdown, lo, hi))
            rnd += 1
    finally:
        if tracer:
            tracer.uninstall()

    # metrics first, so that peak_rss_mb does not include scipy and the checks
    if tracer:
        metrics = layer_metrics(args, tracer, records, rnd)
    else:
        metrics = end_to_end_metrics(records, rnd, setup_s)

    import checks

    for call, result in zip(calls, expected):
        if isinstance(result, Exception):
            continue
        try:
            checks.check(call, result)
        except checks.CheckError as exc:
            problems.append(str(exc))
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {rnd} rounds of {len(calls)} calls, "
          f"{attempted} calls attempted, {failed} failed; call_tail_ms is p{TAIL}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(records, rounds: int, setup_s: float) -> dict:
    """Times are divided by each call's slowdown factor: seconds at nominal host speed."""
    per_call = [r[2] / r[3] for r in records]
    per_round = [0.0] * rounds
    for r, t in zip(records, per_call):
        per_round[r[0]] += t
    ordered = sorted(per_call)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "round_s": {"value": statistics.median(per_round), "unit": "s"},
        "call_p50_ms": {"value": percentile(ordered, 50) * 1e3, "unit": "ms"},
        "call_tail_ms": {"value": percentile(ordered, TAIL) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


UNITS = {"_calls": "count", "_s": "s", "_n3": "count", "_ratio": "ratio", "_bytes": "bytes",
         "edges": "count", "calls": "count", "spans": "count"}
PER_LAYER = (
    "spectral.decompose_calls", "spectral.decompose_s", "spectral.decompose_n3",
    "spectral.decompose_distinct_ratio", "walk.expm_calls", "walk.expm_s", "walk.expm_n3",
    "walk.entries_calls", "graphs.build_calls", "graphs.build_s", "graphs.cross_edges",
    "graphs.matrix_calls", "graphs.matrix_s", "arith.calls", "arith.self_s",
    "transfer.pattern_calls", "transfer.self_s", "bounds.self_s", "graphio.report_s",
    "graphio.report_bytes", "cli.self_s", "graphs.self_s", "spectral.self_s", "walk.self_s",
    "graphio.self_s", "trace.round_s", "trace.spans",
)


def layer_metrics(args, tracer, records, rounds: int) -> dict:
    """Median over rounds of each per-layer figure; times normalized like round_s."""
    import tracing

    per_round = [dict() for _ in range(rounds)]
    for rnd, _, elapsed, slowdown, lo, hi in records:
        totals = tracing.layer_totals(tracer.spans, tracer.digests, lo, hi)
        totals["trace.round_s"] = elapsed
        acc = per_round[rnd]
        for name, value in totals.items():
            acc[name] = acc.get(name, 0.0) + (value / slowdown if name.endswith("_s") else value)
    for acc in per_round:
        calls = acc.get("spectral.decompose_calls", 0.0)
        acc["spectral.decompose_distinct_ratio"] = acc.get("spectral.decompose_distinct", 0.0) / calls if calls else 1.0
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    metrics = {}
    for name in PER_LAYER:
        unit = next(u for suffix, u in UNITS.items() if name.endswith(suffix))
        metrics[name] = {"value": statistics.median(acc.get(name, 0.0) for acc in per_round), "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
