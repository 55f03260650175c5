"""Time two checkouts call by call in one process, interleaved.

Usage, from anywhere:

    python3 tools/ab_calls.py --baseline DIR_A --checkout DIR_B [--workload NAME ...]
        [--seed N ...] [--rounds R] [--label SUBSTR ...]

Separate benchmark processes run seconds apart meet different host speed
states, so a change of a few percent in one call type can be lost between
them. This script imports both checkouts' ``qwjoin`` into one process, each
under its own modules, and builds each side's calls with that checkout's
``benchmark/workloads.py``. Every round runs call i of A and call i of B
back to back, in an order that swaps from one round to the next, and runs
the benchmark's reference kernel for the call (A's ``benchmark/reference.py``)
just before each of them. A call's time is divided by its kernel's slowdown,
as ``benchmark/run.py`` divides it.

For each workload and seed it prints every call's median normalized time on
both sides with the ratio B/A, then the simulated ``call_p50_ms``,
``call_tail_ms`` (p90) and ``round_s`` of each side, computed as
``benchmark/run.py`` computes them, with their ratios. One untimed round
first compares the two sides' outputs (``repr``, with each side's work
directory replaced by one placeholder) and prints how many calls differ.
The benchmark files are only read, never written; CLI calls write their
reports under a temporary directory that is removed at the end.

``--label SUBSTR`` (repeatable) times only the calls whose label contains
one of the given substrings, so more rounds fit in the same time; outputs
are still compared for every call. The simulated figures need whole
rounds, so they are printed only when no label is given.

Make both checkouts the same way, for example both with ``git archive``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QWJOIN_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

TAIL = 90


def load_module(name: str, path: Path):
    """The module at path, imported and registered under name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


def load_side(checkout: Path, tag: str):
    """(qwjoin, workloads) of one checkout, with its qwjoin modules kept out of sys.modules.

    The package is imported under its own name, so that its absolute and
    relative imports resolve inside the checkout; the workloads module binds
    that package at import. Both are then taken out of sys.modules, so the
    other checkout imports its own.
    """
    for name in [n for n in sys.modules if n == "qwjoin" or n.startswith("qwjoin.")]:
        del sys.modules[name]
    sys.path.insert(0, str(checkout / "src"))
    try:
        package = importlib.import_module("qwjoin")
        if Path(package.__file__).resolve().parent != (checkout / "src" / "qwjoin").resolve():
            sys.exit(f"imported qwjoin from {package.__file__}, not from {checkout}")
        workloads = load_module(f"workloads_{tag}", checkout / "benchmark" / "workloads.py")
    finally:
        sys.path.remove(str(checkout / "src"))
        for name in [n for n in sys.modules if n == "qwjoin" or n.startswith("qwjoin.")]:
            del sys.modules[name]
    return package, workloads


def invoke(call):
    """Run one call; a CLI call's exit code and printed output are its result."""
    if call.func != "cli":
        return call.run()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = call.run()
    return code, buf.getvalue()


def shown(call, result, workdir: Path) -> str:
    """A call's result as compared between the sides: CLI files read back, paths masked."""
    if call.func == "cli":
        code, text = result
        result = code, text, [Path(f).read_text() for f in call.files]
    return repr(result).replace(str(workdir), "<workdir>")


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an ascending list, as benchmark/run.py takes it."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(times: list[list[float]]) -> dict:
    """Simulated end-to-end figures of one side; times[r][i] is call i of round r, in seconds."""
    ordered = sorted(t for row in times for t in row)
    return {
        "call_p50_ms": percentile(ordered, 50) * 1e3,
        "call_tail_ms": percentile(ordered, TAIL) * 1e3,
        "round_s": statistics.median(sum(row) for row in times),
    }


def compare(
    sides, reference, workload: str, seed: int, rounds: int, scratch: Path, filters: list[str]
) -> None:
    calls, dirs = [], []
    for tag, (_, workloads) in sides.items():
        workdir = scratch / f"{tag}-{workload}-{seed}"
        workdir.mkdir()
        calls.append(workloads.build(workload, seed, workdir))
        dirs.append(workdir)
    labels = [call.label for call in calls[0]]
    timed = [i for i, label in enumerate(labels) if not filters or any(f in label for f in filters)]
    if not timed:
        sys.exit(f"no {workload} call has a label containing any of {filters}")
    differ = 0
    for pair in zip(*calls):
        seen = []
        for call, workdir in zip(pair, dirs):
            reference.KERNELS[call.kernel]()
            try:
                seen.append(shown(call, invoke(call), workdir))
            except Exception as exc:  # noqa: BLE001 - compared as its type and message
                seen.append(f"raises {type(exc).__name__}: {exc}")
        differ += seen[0] != seen[1]
    times = [[[0.0] * len(labels) for _ in range(rounds)] for _ in sides]
    clock = time.perf_counter
    for rnd in range(rounds):
        order = (0, 1) if rnd % 2 == 0 else (1, 0)
        for i in timed:
            for side in order:
                call = calls[side][i]
                slowdown = reference.KERNELS[call.kernel]() / reference.NOMINAL_S[call.kernel]
                t0 = clock()
                invoke(call)
                times[side][rnd][i] = (clock() - t0) / slowdown
    print(f"\n{workload}, seed {seed}: {rounds} rounds of {len(timed)} calls; {differ} of "
          f"{len(labels)} calls give different outputs on the two sides")
    print(f"  {'call':<40} {'A ms':>10} {'B ms':>10} {'B/A':>7}")
    for i in timed:
        a, b = (statistics.median(t[r][i] for r in range(rounds)) * 1e3 for t in times)
        print(f"  {labels[i]:<40} {a:10.4f} {b:10.4f} {b / a:7.3f}")
    if filters:
        return
    a, b = (summary(t) for t in times)
    for name in a:
        print(f"  {name:<40} {a[name]:10.4f} {b[name]:10.4f} {b[name] / a[name]:7.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True, help="checkout A")
    parser.add_argument("--checkout", type=Path, required=True, help="checkout B")
    parser.add_argument("--workload", nargs="+", default=["part_certificates"])
    parser.add_argument("--seed", type=int, nargs="+", default=[53])
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument(
        "--label", action="append", default=[], metavar="SUBSTR",
        help="time only the calls whose label contains SUBSTR (repeatable)",
    )
    args = parser.parse_args(argv)
    baseline, checkout = args.baseline.resolve(), args.checkout.resolve()
    reference = load_module("reference_a", baseline / "benchmark" / "reference.py")
    sides = {"a": load_side(baseline, "a"), "b": load_side(checkout, "b")}
    print(f"A = {baseline}\nB = {checkout}")
    scratch = Path(tempfile.mkdtemp(prefix="ab_calls-"))
    try:
        for workload in args.workload:
            for seed in args.seed:
                compare(sides, reference, workload, seed, args.rounds, scratch, args.label)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
