"""Golden corpus: fixed CLI runs replayed and compared byte for byte.

Each run in RUNS calls qwjoin.cli.main in-process from an empty working
directory. Its exit code, stdout and stderr are compared with
tests/golden/<name>.txt, and the --out report it writes (always named
report.json) with tests/golden/<name>.json. A --csv sweep is compared
through its SHA-256, recorded in the .txt file, to keep the corpus small.
No field is left out of the comparison: every transcript and report is
byte-deterministic. Trace or timing fields added to the reports later must
be excluded here by name.

The corpus pins the reports a refactor must reproduce. Regenerate it only
for a change that is meant to alter output, either whole or run by run:

    PYTHONPATH=src python tests/test_golden.py --regenerate
    PYTHONPATH=src python tests/test_golden.py --regenerate NAME...

Before regenerating, see what moved. --diff replays the runs (all, or the
named ones) and writes nothing; for each run whose bytes moved it prints
every changed report leaf with its JSON path, old and new value (and |Δ|
for numbers) and every changed transcript line, and exits 1 if any run
moved:

    PYTHONPATH=src python tests/test_golden.py --diff [NAME...]
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from qwjoin.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# graph files that runs read as parts; every other file is a run's output
INPUTS = ("two_K2", "weighted_P3")

_OUT = ["--out", "report.json"]


def _join(left, right, pair, matrix="laplacian", *extra):
    return ["join", "--left", left, "--right", right, "--pair", *map(str, pair),
            "--matrix", matrix, *extra, *_OUT]


def _self(part, r, pair, matrix):
    return ["join", "--left", part, "--self", str(r), "--pair", *map(str, pair),
            "--matrix", matrix, *_OUT]


def _iterated(plan, j, pair):
    return ["join", "--iterated", plan, "--part", str(j), "--pair", *map(str, pair), *_OUT]


def _analyze(family, pair, matrix):
    return ["analyze", "--family", family, "--pair", *map(str, pair), "--matrix", matrix, *_OUT]


MATRICES = ("laplacian", "adjacency")

RUNS: dict[str, list[str]] = {
    # the README examples
    "readme_analyze_C4": ["analyze", "--family", "C 4", "--pair", "0", "2", *_OUT],
    "readme_join_K4_K4_ratio": ["join", "--left", "K 4", "--right", "K 4", "--pair", "0", "1",
                                "--ratio", *_OUT],
    "readme_join_iterated": _iterated("O2 v O2 u O4 v O4", 1, (0, 1)),
    "readme_join_self_P3": ["join", "--left", "P 3", "--self", "4", "--pair", "0", "2", *_OUT],
    "readme_pst_search_double_cone": ["pst-search", "--mode", "double-cone", "--n-max", "20"],
    "readme_bound_sweep": ["bound-sweep", "--left", "C 4", "--right", "O 2", "--pair", "0", "2",
                           "--csv", "sweep.csv"],
}

# named families under both matrices, each with a pair and its cone probes
for _name, _family, _pair in [
    ("O4", "O 4", (0, 1)),
    ("O_loops3", "O_loops 3 2", (0, 1)),
    ("K4", "K 4", (0, 1)),
    ("P4", "P 4", (0, 3)),
    ("C6", "C 6", (0, 3)),
    ("CP6", "CP 6", (0, 3)),
    ("Q3", "Q 3", (0, 7)),
    ("K_minus_e4", "K_minus_e 4", (0, 1)),
    ("K_bipartite23", "K_bipartite 2 3", (0, 1)),
]:
    for _matrix in MATRICES:
        RUNS[f"analyze_{_name}_{_matrix}"] = _analyze(_family, _pair, _matrix)

for _matrix in MATRICES:
    RUNS.update({
        # the isolated pair: double cones with and without transfer
        f"join_O2_O6_{_matrix}": _join("O 2", "O 6", (0, 1), _matrix),
        f"join_O2_O4_{_matrix}": _join("O 2", "O 4", (0, 1), _matrix),
        f"join_O2_O6_right_{_matrix}": _join("O 6", "O 2", (6, 7), _matrix),
        # disconnected parts
        f"join_Kb22_O4_right_{_matrix}": _join("K_bipartite 2 2", "O 4", (4, 5), _matrix),
        f"join_Kb22_O4_left_{_matrix}": _join("K_bipartite 2 2", "O 4", (0, 2), _matrix),
        f"join_two_K2_O2_{_matrix}": _join("{golden}/two_K2.json", "O 2", (0, 2), _matrix),
        f"join_two_K2_K2_{_matrix}": _join("{golden}/two_K2.json", "K 2", (0, 1), _matrix),
        # cross pairs: the single edge, and a pair that is never cospectral
        f"join_O1_O1_{_matrix}": _join("O 1", "O 1", (0, 1), _matrix),
        f"join_C4_O2_cross_{_matrix}": _join("C 4", "O 2", (0, 4), _matrix),
        # transfer within a part, kept or lost by the join
        f"join_C4_O2_{_matrix}": _join("C 4", "O 2", (0, 2), _matrix, "--ratio"),
        f"join_C4_O4_{_matrix}": _join("C 4", "O 4", (0, 2), _matrix, "--ratio"),
        f"join_Q3_O4_{_matrix}": _join("Q 3", "O 4", (0, 7), _matrix),
        f"join_CP6_O2_{_matrix}": _join("CP 6", "O 2", (6, 7), _matrix),
        f"join_K3_O2_{_matrix}": _join("K 3", "O 2", (0, 1), _matrix, "--ratio"),
        f"join_O4_C4_ratio_right_{_matrix}": _join("O 4", "C 4", (4, 6), _matrix, "--ratio"),
        # a ratio that is not defined: exit 2 after the join lines
        f"join_O2_O6_ratio_{_matrix}": _join("O 2", "O 6", (0, 1), _matrix, "--ratio"),
    })

RUNS.update({
    # a flipping eigenvalue lands on a fresh one
    "join_K2_O3_collision_laplacian": _join("K 2", "O 3", (0, 1)),
    "join_K2_K3_collision_adjacency": _join("K 2", "K 3", (0, 1), "adjacency"),
    "join_P3_O2_laplacian": _join("P 3", "O 2", (0, 2), "laplacian", "--ratio"),
    "join_P3_weighted_O2_laplacian": _join("{golden}/weighted_P3.json", "O 2", (0, 2)),
    # period ratios of disconnected parts, and more adjacency ratio cases
    "join_two_K2_O1_ratio_laplacian": _join("{golden}/two_K2.json", "O 1", (0, 1), "laplacian",
                                            "--ratio"),
    "join_two_K2_O3_ratio_adjacency": _join("{golden}/two_K2.json", "O 3", (0, 1), "adjacency",
                                            "--ratio"),
    "join_K2_O3_ratio_adjacency": _join("K 2", "O 3", (0, 1), "adjacency", "--ratio"),
    "join_C4_O6_ratio_adjacency": _join("C 4", "O 6", (0, 2), "adjacency", "--ratio"),
    "join_C6_K2_ratio_adjacency": _join("C 6", "K 2", (0, 3), "adjacency", "--ratio"),
    # adjacency apexes with loops
    "join_O_loops2_O3_adjacency": _join("O_loops 2 1", "O 3", (0, 1), "adjacency"),
    "join_O_loops2_O7_adjacency": _join("O_loops 2 1", "O 7", (0, 1), "adjacency"),
    "join_O_loops1_O_loops1_adjacency": _join("O_loops 1 2", "O_loops 1 2", (0, 1), "adjacency"),
    # preconditions: loops under the Laplacian, an irregular part under the adjacency
    "join_O_loops2_O3_laplacian": _join("O_loops 2 1", "O 3", (0, 1)),
    "join_P3_O2_adjacency": _join("P 3", "O 2", (0, 2), "adjacency"),
})

for _r in (2, 3, 4):
    for _matrix in MATRICES:
        RUNS[f"self_C4_r{_r}_{_matrix}"] = _self("C 4", _r, (0, 2), _matrix)
        RUNS[f"self_O2_r{_r}_{_matrix}"] = _self("O 2", _r, (0, 1), _matrix)
        RUNS[f"self_Q3_r{_r}_{_matrix}"] = _self("Q 3", _r, (0, 7), _matrix)
        RUNS[f"self_K2_r{_r}_{_matrix}"] = _self("K 2", _r, (0, 1), _matrix)
    RUNS[f"self_P3_r{_r}_laplacian"] = _self("P 3", _r, (0, 2), "laplacian")
    RUNS[f"self_O_loops2_r{_r}_adjacency"] = _self("O_loops 2 1", _r, (0, 1), "adjacency")

for _tag, _plan, _j, _pair in [
    ("O2O2O4O4_p2", "O2 v O2 u O4 v O4", 2, (0, 1)),
    ("O2O2O4O4_p3", "O2 v O2 u O4 v O4", 3, (0, 1)),
    ("O2O6O4O4_p1", "O2 v O6 u O4 v O4", 1, (0, 1)),
    ("O2K2O1K3_p1", "O2 v K2 u O1 v K3", 1, (0, 1)),
    ("O2K2O1K3_p2", "O2 v K2 u O1 v K3", 2, (0, 1)),
    ("O2K2O1K3_p4", "O2 v K2 u O1 v K3", 4, (0, 2)),
    ("C4O2O3_p1", "C4 u O2 v O3", 1, (0, 2)),
    ("C4O2O3_p2", "C4 u O2 v O3", 2, (0, 1)),
    ("C4O2O3_p3", "C4 u O2 v O3", 3, (0, 1)),
    ("P3O1C4O2O2_p1", "P3 u O1 v C4 u O2 v O2", 1, (0, 2)),
    ("P3O1C4O2O2_p3", "P3 u O1 v C4 u O2 v O2", 3, (1, 3)),
    ("P3O1C4O2O2_p4", "P3 u O1 v C4 u O2 v O2", 4, (0, 1)),
]:
    RUNS[f"iterated_{_tag}"] = _iterated(_plan, _j, _pair)

RUNS.update({
    "pst_search_double_cone_adjacency_all": ["pst-search", "--mode", "double-cone", "--n-max",
                                             "12", "--all", "--matrix", "adjacency"],
    "pst_search_cp_join": ["pst-search", "--mode", "cp-join"],
    "pst_search_cp_join_adjacency_all": ["pst-search", "--mode", "cp-join", "--m-max", "12",
                                         "--all", "--matrix", "adjacency"],
    "pst_search_threshold": ["pst-search", "--mode", "threshold"],
    "pst_search_threshold_small": ["pst-search", "--mode", "threshold", "--max-parts", "3",
                                   "--max-size", "4"],
})


def _replay(name: str, workdir: Path) -> tuple[str, str | None]:
    """(transcript, report) of one run, executed from workdir."""
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in RUNS[name]]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    transcript = f"exit {code}\n--- stdout ---\n{out.getvalue()}--- stderr ---\n{err.getvalue()}"
    csv = workdir / "sweep.csv"
    if csv.exists():
        transcript += f"--- sweep.csv sha256 ---\n{hashlib.sha256(csv.read_bytes()).hexdigest()}\n"
    report = workdir / "report.json"
    return transcript, report.read_text() if report.exists() else None


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run(name, tmp_path):
    transcript, report = _replay(name, tmp_path)
    assert transcript == (GOLDEN / f"{name}.txt").read_text()
    expected = GOLDEN / f"{name}.json"
    assert report == (expected.read_text() if expected.exists() else None)


def test_golden_corpus_has_no_stray_files():
    stems = {p.stem for p in GOLDEN.iterdir()}
    assert stems - set(INPUTS) == set(RUNS)


def _regenerate(names) -> None:
    """Rewrite the files of the named runs, or the whole corpus when none is named."""
    for stale in GOLDEN.iterdir():
        if stale.stem not in INPUTS and (not names or stale.stem in names):
            stale.unlink()
    for name in sorted(names or RUNS):
        with tempfile.TemporaryDirectory() as workdir:
            transcript, report = _replay(name, Path(workdir))
        (GOLDEN / f"{name}.txt").write_text(transcript)
        if report is not None:
            (GOLDEN / f"{name}.json").write_text(report)


def _leaf_changes(old, new, path: str = ""):
    """(path, old, new) for every JSON leaf that differs; a missing side is reported as None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from _leaf_changes(old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _leaf_changes(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _diff(names) -> int:
    """Print what moved in each named run (every run when none is named); 1 if any moved."""
    moved = 0
    for name in sorted(names or RUNS):
        with tempfile.TemporaryDirectory() as workdir:
            transcript, report = _replay(name, Path(workdir))
        old_transcript = (GOLDEN / f"{name}.txt").read_text()
        expected = GOLDEN / f"{name}.json"
        old_report = expected.read_text() if expected.exists() else None
        if transcript == old_transcript and report == old_report:
            continue
        moved += 1
        print(f"{name}:")
        lines = difflib.unified_diff(
            old_transcript.splitlines(), transcript.splitlines(), lineterm="", n=0
        )
        for line in lines:
            if not line.startswith(("---", "+++")):
                print(f"  transcript {line}")
        if report != old_report:
            if report is None or old_report is None:
                print(f"  report.json {'removed' if report is None else 'added'}")
                continue
            old_data, new_data = json.loads(old_report), json.loads(report)
            for path, a, b in _leaf_changes(old_data, new_data):
                numbers = all(isinstance(z, (int, float)) and not isinstance(z, bool) for z in (a, b))
                delta = f"  |Δ| {abs(b - a):.3g}" if numbers else ""
                print(f"  {path}: {a!r} -> {b!r}{delta}")
            if old_data == new_data:
                print("  report.json: same values, different bytes")
    print(f"{moved} of {len(names or RUNS)} runs moved")
    return 1 if moved else 0


if __name__ == "__main__":
    mode, named = sys.argv[1:2], set(sys.argv[2:])
    unknown = sorted(named - set(RUNS))
    if mode not in (["--regenerate"], ["--diff"]) or unknown:
        sys.exit(
            "usage: PYTHONPATH=src python tests/test_golden.py --regenerate|--diff [NAME...]"
            + (f"\nunknown runs: {' '.join(unknown)}" if unknown else "")
        )
    if mode == ["--diff"]:
        sys.exit(_diff(named))
    _regenerate(named)
