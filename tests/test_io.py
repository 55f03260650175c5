import argparse
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qwjoin.cli as cli
import qwjoin.transfer as transfer
from qwjoin import (
    WeightedGraph,
    family,
    from_jsonable,
    parse_iterated_spec,
    join_pst,
    load_graph,
    report_from_json,
    report_to_json,
    save_graph,
    to_jsonable,
)
from qwjoin.bounds import BoundReport, bound_sweep
from qwjoin.cli import main
from qwjoin.graphio import AnalysisReport, graph_from_dict, graph_to_dict
from qwjoin.transfer import SupportPartition, SymbolicTime

from conftest import with_wrong_time


def test_graph_round_trip(tmp_path):
    g = WeightedGraph(4, [(0, 1, 1.5), (2, 3, 1.0)], loops=[(1, -3.0)])
    path = tmp_path / "g.json"
    save_graph(g, path)
    again = load_graph(path)
    assert again == g
    # a second dump is byte-identical
    first = path.read_text()
    save_graph(again, path)
    assert path.read_text() == first


def test_graph_dict_validation():
    good = graph_to_dict(family("P", 3))
    assert good["simple"] is True
    with pytest.raises(ValueError):
        graph_from_dict({**good, "mystery": 1})
    with pytest.raises(ValueError):
        graph_from_dict({**good, "simple": True, "loops": [[0, 2.0]]})
    with pytest.raises(ValueError):
        graph_from_dict({"order": 2, "simple": True, "edges": [[0, 1]]})


def test_jsonable_scalars():
    payload = {
        "fraction": Fraction(3, 7),
        "complexval": 1 + 2j,
        "time": SymbolicTime(1, 2, 6),
        "graph": family("K", 2),
        "array": np.arange(3.0),
        "npint": np.int64(5),
    }
    encoded = json.loads(json.dumps(to_jsonable(payload)))
    decoded = from_jsonable(encoded)
    assert decoded["fraction"] == Fraction(3, 7)
    assert decoded["complexval"] == 1 + 2j
    assert decoded["time"] == SymbolicTime(1, 2, 6)
    assert decoded["graph"] == family("K", 2)
    assert np.array_equal(decoded["array"], np.arange(3.0))
    assert decoded["npint"] == 5


def test_certificate_report_round_trip():
    cert = join_pst(family("O", 2), family("O", 2), 0, 1)
    report = AnalysisReport(kind="join-pst", payload={"certificate": cert})
    text = report_to_json(report)
    back = report_from_json(text)
    assert back.kind == "join-pst"
    assert back.payload["certificate"] == cert
    assert report_to_json(back) == text


def test_partition_survives_json():
    part = SupportPartition([4.0, 0.0], [2.0])
    report = AnalysisReport(kind="partition", payload={"partition": part})
    assert report_from_json(report_to_json(report)).payload["partition"] == part


# floats json spells its own way, and floats either side of the points where
# repr switches between fixed and exponent notation
_EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 9999999999999998.0, -1e16,
    1e-5, 9.999999999999999e-06, 0.0001, 5e-324, 1.7976931348623157e308,
])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(), st.floats().map(np.float64))
_TEXT = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f\n\t\"\\", "\u00e9\u2028\ud800", "\U0001f600"]))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _FLOATS,
    _TEXT,
    st.lists(_FLOATS, max_size=6),  # the one-join path
    st.fractions(),
    st.just([]),
    st.just({}),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        # keys like __fraction__ are the format's type tags, not payload keys
        st.dictionaries(_TEXT.filter(lambda key: not key.startswith("__")), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(kind=_TEXT, payload=_VALUES)
def test_report_writer_matches_json_dumps_byte_for_byte(kind, payload):
    report = AnalysisReport(kind=kind, payload=payload)
    text = report_to_json(report)
    doc = {"kind": kind, "payload": to_jsonable(payload)}
    assert text == json.dumps(doc, sort_keys=True, indent=2)
    back = report_from_json(text)
    assert back.kind == kind
    assert report_to_json(back) == text


def test_cli_analyze_exits_cleanly(capsys):
    assert main(["analyze", "--family", "C4", "--pair", "0", "2"]) == 0
    out = capsys.readouterr().out
    assert "perfect state transfer" in out
    assert "pi/2" in out


def test_cli_join_modes(capsys, tmp_path):
    assert main(["join", "--left", "K 4", "--right", "K 4", "--pair", "0", "1", "--ratio"]) == 0
    out = capsys.readouterr().out
    assert "connected-single-special" in out
    report_path = tmp_path / "report.json"
    assert main([
        "join", "--left", "O2", "--right", "O2", "--pair", "0", "1",
        "--out", str(report_path),
    ]) == 0
    report = report_from_json(report_path.read_text())
    assert report.payload["pst"].pst


def test_cli_self_and_iterated(capsys):
    assert main(["join", "--left", "P3", "--self", "4", "--pair", "0", "2"]) == 0
    assert "pi/2" in capsys.readouterr().out
    assert main([
        "join", "--iterated", "C4 v O2 u O4 v O2", "--part", "1", "--pair", "0", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "False" in out
    assert "more than one dyadic valuation" in out


def test_cli_join_mode_exclusivity(capsys):
    code = main([
        "join", "--left", "K2", "--right", "K2", "--self", "3", "--pair", "0", "1",
    ])
    assert code == 2


def test_cli_pst_search_jsonl(capsys):
    assert main(["pst-search", "--mode", "double-cone", "--n-min", "1", "--n-max", "8"]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert [rec["n"] for rec in lines] == [2, 6]
    assert all(rec["pst"] and rec["time"] == [1, 2, 1] for rec in lines)


def test_cli_bound_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "bound-sweep", "--left", "C4", "--right", "O2", "--pair", "0", "1",
        "--samples", "64", "--csv", str(csv_path),
    ]) == 0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "t,mag_join,mag_base,F"
    assert len(rows) >= 65
    # every row parses as four floats
    for row in rows[1:4]:
        assert len([float(cell) for cell in row.split(",")]) == 4


def _reference_csv(report) -> str:
    """The sweep CSV written one row at a time, as a plain loop would."""
    rows = ["t,mag_join,mag_base,F\n"]
    for t, mj, mb, f in zip(
        report.times, report.join_magnitudes, report.part_magnitudes, report.deviation
    ):
        rows.append(f"{float(t)!r},{float(mj)!r},{float(mb)!r},{float(f)!r}\n")
    return "".join(rows)


def _report_with_rows(rows: int) -> BoundReport:
    """Random columns of mixed magnitude, with every fifth row set to awkward floats.

    The awkward values take turns across the columns, so each column meets
    every one of them, NaN and both infinities included, once it has 35 rows.
    """
    rng = np.random.default_rng(rows)
    cols = rng.standard_normal((4, rows)) * 10.0 ** rng.integers(-30, 30, (4, rows))
    awkward = np.array([-0.0, 5e-324, 1e-05, 1e16, np.nan, np.inf, -np.inf])
    turns = np.add.outer(np.arange(4), np.arange(cols[:, ::5].shape[1]))
    cols[:, ::5] = awkward[turns % awkward.size]
    return BoundReport(
        matrix="laplacian", pair=(0, 2), bound=1.0, times=cols[0],
        join_magnitudes=cols[1], part_magnitudes=cols[2], deviation=cols[3],
        max_abs_deviation=0.0, argmax_time=0.0, equality_possible=None,
        equality_times=[], structured_times=[],
    )


@pytest.mark.parametrize(
    "rows",
    [1, cli._CSV_SLAB_ROWS - 1, cli._CSV_SLAB_ROWS, cli._CSV_SLAB_ROWS + 1,
     2 * cli._CSV_SLAB_ROWS + 3],
)
def test_cli_bound_sweep_csv_matches_the_per_row_writer(tmp_path, capsys, monkeypatch, rows):
    report = _report_with_rows(rows)
    monkeypatch.setattr(cli, "bound_sweep", lambda *args, **kwargs: report)
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "bound-sweep", "--left", "C4", "--right", "O2", "--pair", "0", "2",
        "--csv", str(csv_path),
    ]) == 0
    assert csv_path.read_bytes() == _reference_csv(report).encode()


@pytest.mark.parametrize(
    "argv, sweep",
    [
        (["--left", "C4", "--right", "O2", "--pair", "0", "2"],
         lambda: bound_sweep(family("C", 4), family("O", 2), 0, 2)),
        # no lattice: the adjacency offsets of C4 v O1 are not integers
        (["--left", "C4", "--right", "O1", "--pair", "0", "2", "--matrix", "adjacency",
          "--samples", "1"],
         lambda: bound_sweep(family("C", 4), family("O", 1), 0, 2, "adjacency", samples=1)),
    ],
    ids=["default", "one-sample"],
)
def test_cli_bound_sweep_csv_of_a_real_sweep(tmp_path, capsys, argv, sweep):
    csv_path = tmp_path / "sweep.csv"
    assert main(["bound-sweep", *argv, "--csv", str(csv_path)]) == 0
    assert csv_path.read_bytes() == _reference_csv(sweep()).encode()


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    seen = []
    for argv in (
        ["analyze", "--family", "C 4"],
        ["pst-search", "--mode", "double-cone", "--n-max", "4"],
        ["analyze", "--family", "P 3"],
    ):
        assert main(argv) == 0
        seen.append(len(built))
    assert seen[0] > 0 and seen == [seen[0]] * 3
    assert cli.build_parser.cache_info().misses == 1


def test_cli_parse_state_does_not_leak_between_calls(capsys):
    search = ["pst-search", "--mode", "double-cone", "--n-max", "8"]
    assert main([*search, "--all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert main(search) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec["n"] for rec in lines] == [2, 6] and all(rec["pst"] for rec in lines)

    join_k4 = ["join", "--left", "K 4", "--right", "K 4", "--pair", "0", "1"]
    assert main([*join_k4, "--ratio"]) == 0
    assert "period ratio" in capsys.readouterr().out
    assert main(join_k4) == 0
    assert "period ratio" not in capsys.readouterr().out


def test_cli_parser_survives_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--pair", "0", "1"])
    assert exc.value.code == 2
    assert "one of the arguments --graph --family is required" in capsys.readouterr().err
    assert main(["analyze", "--family", "C 4", "--pair", "0", "2"]) == 0
    assert "pair (0, 2): strongly cospectral" in capsys.readouterr().out


SWEEP_C4 = ["bound-sweep", "--left", "C4", "--right", "O2", "--pair", "0", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SWEEP_C4, "--csv", "{missing}/x.csv"], "cannot write"),
        (["analyze", "--family", "C 4", "--out", "{missing}/x.json"], "cannot write"),
        ([*SWEEP_C4, "--t-max", "inf"], "finite and positive"),
        ([*SWEEP_C4, "--t-max", "nan"], "finite and positive"),
        ([*SWEEP_C4, "--t-max", "0"], "finite and positive"),
        ([*SWEEP_C4, "--t-max", "-1"], "finite and positive"),
        ([*SWEEP_C4, "--t-max", "1e9"], "lattice times"),
        (["analyze", "--family", "C 4.5"], "must be an integer"),
        (["pst-search", "--mode", "threshold", "--matrix", "adjacency"], "Laplacian only"),
        (["pst-search", "--mode", "threshold", "--all"], "--all"),
    ],
    ids=["csv-unwritable", "out-unwritable", "t-max-inf", "t-max-nan", "t-max-0",
         "t-max-negative", "t-max-huge", "family-count-4.5", "threshold-adjacency",
         "threshold-all"],
)
def test_cli_bad_outputs_and_sweep_inputs_exit_2(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing"
    assert main([a.format(missing=missing) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ") and message in err


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["join", "--left", "{path}", "--right", "O 1", "--pair", "0", "2"],
         "pair (0, 2): not strongly cospectral in the join\n"),
        (["analyze", "--graph", "{path}", "--pair", "0", "2"],
         "pair (0, 2): not strongly cospectral\n"),
    ],
    ids=["join", "analyze"],
)
def test_cli_near_tie_is_not_strongly_cospectral(tmp_path, capsys, argv, verdict):
    # P3 with weights 1 and 1 + 1e-8: L[0, 0] and L[2, 2] differ, so the pair
    # is not cospectral, though its eigenbasis rows differ by about 1e-9 only
    path = tmp_path / "p3.json"
    save_graph(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.00000001)]), path)
    assert main([a.format(path=path) for a in argv]) == 0
    out = capsys.readouterr().out
    assert verdict in out
    assert "perfect state transfer 0 <-> 2: False" in out


def test_cli_prints_large_support_values_apart(capsys):
    # the join support of O2 v O_n at 0 is n + 2, n and 0; ten digits printed
    # n + 2 as 4e+10, the same as n
    assert main(["join", "--left", "O 2", "--right", "O 40000000000", "--pair", "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "plus [40000000002.0, 0.0], minus [40000000000.0]" in out


def test_fmt_keeps_ten_digits_below_1e10():
    for value in (0.0, 1e-10, -2.5e-5, 1 / 3, math.pi / 2, 123456.789, 9999999999.4, -9999999999.6):
        assert cli._fmt(value) == (f"{value:.10g}" if abs(value) >= 1e-9 else "0")
    assert cli._fmt(40000000002.0) == "40000000002"
    assert cli._fmt(-123456789012.5) == "-123456789012"
    assert cli._fmt(2.0**80) == "1.2089258196146292e+24"  # 17 digits tell doubles apart
    assert (cli._fmt(math.inf), cli._fmt(math.nan)) == ("inf", "nan")


def test_cli_precondition_exit_code(capsys):
    # unknown family token
    assert main(["analyze", "--family", "Z9"]) == 2
    assert "precondition violated" in capsys.readouterr().err
    # laplacian join with a loop graph on the left
    assert main([
        "join", "--left", "O_loops 2 1.0", "--right", "O2", "--pair", "0", "1",
    ]) == 2


def _lying_ratio_table(*args):
    return "connected-general", Fraction(9), 1


def test_cli_inconsistency_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(transfer, "_ratio_formula", _lying_ratio_table)
    code = main([
        "join", "--left", "K 4", "--right", "K 4", "--pair", "0", "1", "--ratio",
    ])
    assert code == 3
    assert "internal cross-check failed" in capsys.readouterr().err


def test_cli_inconsistency_exit_code_adjacency(capsys, monkeypatch):
    monkeypatch.setattr(transfer, "_ratio_formula", _lying_ratio_table)
    code = main([
        "join", "--left", "Q 3", "--right", "Q 3", "--pair", "0", "1", "--ratio",
        "--matrix", "adjacency",
    ])
    assert code == 3
    assert "internal cross-check failed" in capsys.readouterr().err


def test_cli_integer_overflow_exit_code(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 2, "edges": [[0, 1, 1e19]]}))
    assert main(["analyze", "--graph", str(path), "--pair", "0", "1"]) == 2
    assert "64-bit range" in capsys.readouterr().err


def test_cli_eigenvalues_past_the_float_range_exit_2(tmp_path, capsys):
    # the Laplacian's eigenvalue 2e308 overflows: no eigenvalue line is printed
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 2, "edges": [[0, 1, 1e308]]}))
    assert main(["analyze", "--graph", str(path), "--pair", "0", "1"]) == 2
    captured = capsys.readouterr()
    assert "eigenvalues" not in captured.out
    assert "too large" in captured.err
    # the adjacency eigenvalues +-1e308 are representable and printed as such
    argv = ["analyze", "--graph", str(path), "--pair", "0", "1", "--matrix", "adjacency"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "eigenvalues: 1e+308 (x1), -1e+308 (x1)" in captured.out
    assert "64-bit range" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["join", "--left", "P 3", "--right", "O 2", "--part", "1", "--pair", "0", "1"], "--part"),
        (["join", "--left", "P 3", "--self", "2", "--part", "1", "--pair", "0", "2"], "--part"),
        (["join", "--left", "P 3", "--self", "2", "--ratio", "--pair", "0", "2"], "--ratio"),
        (["join", "--iterated", "O2 v O2", "--part", "1", "--ratio", "--pair", "0", "1"],
         "--ratio"),
        (["join", "--iterated", "O2 v O2", "--left", "P 3", "--part", "1", "--pair", "0", "1"],
         "--left"),
        # a flag given picks its mode, whatever its value
        (["join", "--left", "P 3", "--right", "O 2", "--self", "0", "--pair", "0", "1"],
         "pick exactly one"),
        (["join", "--left", "P 3", "--right", "", "--self", "3", "--pair", "0", "1"],
         "pick exactly one"),
        (["join", "--left", "P 3", "--self", "0", "--pair", "0", "1"],
         "a self-join needs at least two copies"),
        (["join", "--left", "P 3", "--right", "", "--pair", "0", "1"],
         "no such file and no such family: ''"),
    ],
    ids=["part-with-right", "part-with-self", "ratio-with-self", "ratio-with-iterated",
         "left-with-iterated", "right-with-self-0", "empty-right-with-self", "self-0",
         "empty-right"],
)
def test_cli_join_flags_of_another_mode_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_pair_checked_before_any_work(capsys):
    assert main(["analyze", "--family", "P 3", "--pair", "0", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--pair" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["join", "--left", "P 3", "--right", "O 2", "--pair", "0", "9"],
        ["join", "--left", "P 3", "--self", "3", "--pair", "0", "3"],
        ["join", "--iterated", "O2 v O2 u O4 v O4", "--part", "3", "--pair", "1", "4"],
    ],
    ids=["two-part", "self", "iterated"],
)
def test_cli_join_pair_checked_before_any_output(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--pair" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["join", "--left", "O 2", "--right", "O 6", "--pair", "0", "1", "--ratio"],
         "single eigenvalue"),
        (["join", "--left", "O 4", "--right", "C 4", "--pair", "4", "6", "--ratio",
          "--matrix", "adjacency"], "join walk is not periodic"),
    ],
    ids=["single-eigenvalue", "join-not-periodic"],
)
def test_cli_join_ratio_checked_before_any_output(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_analyze_52_bit_discriminant(tmp_path, capsys):
    # the discriminant 1 + 4 * 30000020**2 is a 52-bit prime, which trial
    # division up to its square root took over a minute to certify squarefree
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"order": 2, "edges": [[0, 1, 30000020.0]], "loops": [[0, 1.0]]}
    ))
    started = time.perf_counter()
    assert main(["analyze", "--graph", str(path), "--matrix", "adjacency"]) == 0
    assert time.perf_counter() - started < 2.0
    support = "support [30000020.5, -30000019.5]; periodic, minimum period"
    assert capsys.readouterr().out == (
        "graph: order 2, 1 edges, 1 loops, connected\n"
        "matrix: adjacency\n"
        "eigenvalues: 30000020.5 (x1), -30000019.5 (x1)\n"
        "all vertices periodic: True\n"
        f"vertex 0: {support} 2*pi/sqrt(3600004800001601)\n"
        f"vertex 1: {support} 2*pi/sqrt(3600004800001601)\n"
    )


@pytest.mark.parametrize(
    "closed_form, argv",
    [
        ("_join_certificate", ["join", "--left", "O 2", "--right", "O 6", "--pair", "0", "1"]),
        ("_join_certificate", ["join", "--left", "O 2", "--self", "4", "--pair", "0", "1"]),
        (
            "_evaluate_pattern",
            ["join", "--iterated", "O2 v K2", "--part", "1", "--pair", "0", "1"],
        ),
        ("_evaluate_pattern", ["analyze", "--family", "C 4", "--pair", "0", "2"]),
        ("_exact_min_period", ["analyze", "--family", "K 2"]),
    ],
    ids=["two-part", "self", "iterated", "analyze-pair", "analyze-period"],
)
def test_cli_wrong_transfer_time_exit_code(capsys, monkeypatch, closed_form, argv):
    monkeypatch.setattr(transfer, closed_form, with_wrong_time(getattr(transfer, closed_form)))
    assert main(argv) == 3
    assert "only reaches magnitude" in capsys.readouterr().err


def test_cli_adjacency_self_join_of_a_weighted_k4(tmp_path, capsys):
    # a regular part whose pair has two flipping eigenvalues
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"order": 4, "edges": [
        [0, 1, 1.0], [2, 3, 1.0], [0, 2, 7.0], [1, 3, 7.0], [0, 3, 3.0], [1, 2, 3.0],
    ]}))
    argv = ["join", "--left", str(path), "--self", "2", "--pair", "0", "1", "--matrix", "adjacency"]
    assert main(argv) == 0
    assert "perfect state transfer 0 <-> 1: True" in capsys.readouterr().out


@pytest.mark.parametrize("token", ["O1", "O3", "K4", "P3", "C5", "Q2", "CP6", "K_minus_e4"])
def test_family_and_iterated_plans_read_the_same_tokens(token, capsys):
    alone = cli._parse_graph_arg(token)
    in_plan = parse_iterated_spec(f"{token} v O2").parts[0][0]
    assert np.array_equal(alone.adjacency(), in_plan.adjacency())
    assert main(["analyze", "--family", token, "--pair", "0", "0"]) == 2
    assert main(["join", "--iterated", f"{token} v O2", "--part", "1", "--pair", "0", "0"]) == 2
    assert "--pair needs two distinct vertices" in capsys.readouterr().err


def test_family_and_iterated_plans_refuse_the_same_tokens(capsys):
    for token, message in (("O_loops2", '"O_loops n k"'), ("Z3", "no such family")):
        assert main(["analyze", "--family", token, "--pair", "0", "1"]) == 2
        assert message in capsys.readouterr().err
    # a plan's tokens are split on whitespace, so it cannot hold "O_loops n k"
    for token, message in (("O_loops2", "plan parts must be simple graphs"), ("Z3", "unknown graph token")):
        argv = ["join", "--iterated", f"{token} v O2", "--part", "1", "--pair", "0", "1"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
