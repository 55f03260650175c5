import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)


def _side(values):
    return {"metrics": {"round_s": {**bench_json.spread(values), "unit": "s"}}}


@pytest.mark.parametrize(
    "change, overlap",
    [
        ([1.00, 1.04, 1.08], True),  # 1.02-1.06, inside the baseline's range
        ([1.04, 1.10, 1.20], True),  # q1 = 1.07, inside the baseline's 1.0-1.075
        ([1.10, 1.20, 1.30], False),  # above the baseline's q3
        ([0.50, 0.60, 0.70], False),  # below the baseline's q1
    ],
)
def test_compare_marks_whether_the_quartile_ranges_overlap(change, overlap):
    base, new = _side([0.95, 1.05, 1.10]), _side(change)
    bench_json.compare(new, base)
    metric = new["metrics"]["round_s"]
    assert metric["ranges_overlap"] is overlap
    assert metric["baseline"] == pytest.approx({"median": 1.05, "q1": 1.0, "q3": 1.075})


def _checkout(root, sources):
    package = root / "src" / "qwjoin"
    package.mkdir(parents=True)
    for name, text in sources.items():
        (package / name).write_text(text)
    (package / "notes.txt").write_text("not counted\n")
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_source_lines_count_newlines_per_file_as_wc_does():
    root = Path(__file__).resolve().parents[1]
    counted = bench_json.source_lines(root)
    files = sorted((root / "src" / "qwjoin").glob("*.py"))
    assert counted["files"] == {p.name: p.read_text().count("\n") for p in files}
    assert counted["total"] == sum(counted["files"].values())


def test_the_report_records_the_source_lines_of_both_checkouts(tmp_path, monkeypatch):
    change = _checkout(tmp_path / "change", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3"})
    base = _checkout(tmp_path / "base", {"a.py": "x = 1\n"})
    metric = {"value": 1.0, "unit": "s"}
    result = {"correct": True, "failed": 0, "attempted": 1, "metrics": {"round_s": metric}}
    monkeypatch.setattr(bench_json, "run_once", lambda *args: result)
    out = tmp_path / "BENCH.json"
    assert bench_json.main(["--checkout", str(change), "--baseline", str(base),
                            "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["source_lines"] == {
        "change": {"total": 2, "files": {"a.py": 2, "b.py": 0}},
        "baseline": {"total": 1, "files": {"a.py": 1}},
    }
