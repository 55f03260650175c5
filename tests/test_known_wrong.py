"""Every known wrong answer on valid input, pinned as a strict xfail.

Each test asserts the right answer, through the CLI or the API, and its
reason names the ROADMAP item that mends it. While the answer is wrong the
test is reported xfailed; once it is mended the test passes, which pytest
reports as a strict XPASS failure, and the mending change drops the marker
so that the test runs as a plain test from then on. A newly found wrong
answer on valid input adds its strict xfail here.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from qwjoin import cli
from qwjoin import transfer as transfer_module
from qwjoin.errors import InconsistencyError
from qwjoin.graphs import family
from qwjoin.transfer import SymbolicTime, join_pst


def _run(capsys, argv):
    """(exit status, printed lines) of one CLI call."""
    status = cli.main(argv)
    return status, capsys.readouterr().out.splitlines()


def _graph_file(tmp_path, document):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.xfail(strict=True, reason=(
    "items 3 and 8: classify_eigenvalues reads 3000007.50000004 as the half-integer "
    "6000015/2, so analyze prints a wrong minimum period"))
def test_the_loop_and_edge_graph_prints_no_wrong_period(capsys, tmp_path):
    # a loop of weight 1 at vertex 0 and an edge of weight 3000007: the
    # adjacency eigenvalues are (1 +- sqrt(36000168000197)) / 2
    path = _graph_file(tmp_path, {"order": 2, "edges": [[0, 1, 3000007]], "loops": [[0, 1]]})
    status, lines = _run(capsys, ["analyze", "--graph", path, "--matrix", "adjacency"])
    assert status == 0
    assert not any("4*pi/(3*sqrt(16000074666754))" in line for line in lines)


@pytest.mark.xfail(strict=True, reason=(
    "items 3 and 8: the near-tie 1.000000005 is read as rational, so analyze calls "
    "vertices periodic, and vertex 1's support drops a component under SUPPORT_TOL"))
def test_the_p3_near_tie_prints_no_periodic_vertex(capsys, tmp_path):
    path = _graph_file(tmp_path, {"order": 3, "edges": [[0, 1, 1], [1, 2, 1.00000001]]})
    status, lines = _run(capsys, ["analyze", "--graph", path])
    assert status == 0
    vertices = [line for line in lines if line.startswith("vertex ")]
    assert len(vertices) == 3
    assert all(line.endswith("; not periodic") for line in vertices), vertices


@pytest.mark.xfail(strict=True, reason=(
    "item 12: the fixed confirmation gate refuses a valid positive whose float "
    "exponential loses about 1.7e-6 to its phase of about 6e10"))
def test_a_double_cone_over_ten_billion_and_two_confirms(capsys):
    status, lines = _run(
        capsys, ["join", "--left", "O 2", "--right", "O 10000000002", "--pair", "0", "1"])
    assert status == 0
    assert "perfect state transfer 0 <-> 1: True" in lines
    assert "  transfer time pi/2 = 1.570796327" in lines


@pytest.mark.xfail(strict=True, reason=(
    "items 12 and 15: |U(pi/2)[1, 0]| = 1 - 5.0e-7 on O2 v O_4000000 passes the "
    "fixed gate 1 - 1e-6, so a wrong positive is confirmed"))
def test_a_forced_positive_on_a_double_cone_over_four_million_is_refused(monkeypatch):
    certify = transfer_module._join_certificate

    def forced(x, u, v, params):
        cert = certify(x, u, v, params)
        assert not cert.pst  # n = 0 modulo 4: |U(pi/2)[1, 0]| = n / (n + 2)
        return replace(cert, pst=True, time=SymbolicTime(1, 2))

    monkeypatch.setattr(transfer_module, "_join_certificate", forced)
    with pytest.raises(InconsistencyError):
        join_pst(family("O", 2), family("O", 4_000_000), 0, 1, "laplacian")
