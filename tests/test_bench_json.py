import importlib.util
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
