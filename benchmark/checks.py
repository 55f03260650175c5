"""Correctness checks for the benchmark's calls, independent of qwjoin's code.

Graphs are read as plain data (order, edge and loop dicts); every matrix,
join and spectrum here is rebuilt with numpy and scipy. Positive verdicts
are confirmed with ``scipy.linalg.expm`` on the built graph at the certified
time. Verdicts of either sign are compared with an oracle that diagonalizes
the built graph with ``scipy.linalg.eigh`` and applies the transfer and
periodicity characterizations in their gcd-parity form (Godsil; Coutinho),
which is not the dyadic-valuation form the package uses.

Run ``python3 benchmark/checks.py`` for the self-test: each check is fed a
deliberately wrong answer and must reject it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

GATE = 1 - 1e-6  # |exp(itM)[v, u]| a certified transfer or revival must reach
EIG_TOL = 1e-6  # grouping gap and projector-column tolerance
INT_TOL = 1e-6  # distance to an integer that still counts as one
TIME_TOL = 1e-9  # relative agreement of a certified time with the oracle's


class CheckError(AssertionError):
    """A call's output disagrees with the independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# matrices built from plain graph data
# ---------------------------------------------------------------------------


def adjacency(graph) -> np.ndarray:
    a = np.zeros((graph.order, graph.order))
    for (u, v), w in graph.edges.items():
        a[u, v] = a[v, u] = w
    for v, w in graph.loops.items():
        a[v, v] = w
    return a


def join_adjacency(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    m, n = len(ax), len(ay)
    return np.block([[ax, np.ones((m, n))], [np.ones((n, m)), ay]])


def union_adjacency(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    m, n = len(ax), len(ay)
    return np.block([[ax, np.zeros((m, n))], [np.zeros((n, m)), ay]])


def generator(a: np.ndarray, matrix: str) -> np.ndarray:
    if matrix == "adjacency":
        return a
    require(matrix == "laplacian", f"unknown matrix kind {matrix!r}")
    require(not np.any(np.diag(a)), "a Laplacian needs a loopless graph")
    return np.diag(a.sum(axis=1)) - a


def self_join_adjacency(a: np.ndarray, copies: int) -> np.ndarray:
    out = a
    for _ in range(copies - 1):
        out = join_adjacency(a, out)
    return out


def plan_adjacency(parts) -> np.ndarray:
    """Fold an alternating plan given as (graph, connective-or-None) pairs."""
    out = adjacency(parts[0][0])
    for graph, conn in parts[1:]:
        step = join_adjacency if conn.value == "join" else union_adjacency
        out = step(out, adjacency(graph))
    return out


def magnitude(m: np.ndarray, t: float, u: int, v: int) -> float:
    """|exp(itM)[v, u]| by scipy's Pade scaling and squaring."""
    return float(abs(scipy.linalg.expm(1j * t * m)[v, u]))


# ---------------------------------------------------------------------------
# the eigh oracle
# ---------------------------------------------------------------------------


def eigen_groups(m: np.ndarray):
    """(eigenvalue, eigenvector block) per distinct eigenvalue, from scipy's eigh."""
    w, vecs = scipy.linalg.eigh(m)
    tol = EIG_TOL * max(1.0, float(np.abs(w).max()))
    groups, start = [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            groups.append((float(np.mean(w[start:i])), vecs[:, start:i]))
            start = i
    return groups


def support(m: np.ndarray, u: int) -> list[float]:
    """Eigenvalues whose projector column at u is nonzero."""
    return [lam for lam, block in eigen_groups(m) if np.linalg.norm(block @ block[u]) > EIG_TOL]


def sign_partition(m: np.ndarray, u: int, v: int):
    """(plus, minus) when u and v are strongly cospectral, else None."""
    plus, minus = [], []
    for lam, block in eigen_groups(m):
        cu, cv = block @ block[u], block @ block[v]
        if np.linalg.norm(cu) <= EIG_TOL and np.linalg.norm(cv) <= EIG_TOL:
            continue
        if np.linalg.norm(cu - cv) <= EIG_TOL:
            plus.append(lam)
        elif np.linalg.norm(cu + cv) <= EIG_TOL:
            minus.append(lam)
        else:
            return None
    return plus, minus


def _squarefree(n: int) -> int:
    core, f = 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
        if n % f == 0:
            core *= f
            n //= f
        f += 1
    return core * n


def coordinates(values: list[float]):
    """Write each value as values[0] - e * sqrt(delta) / 2 with integer e.

    Returns (delta, e) with delta squarefree, or None when the values are
    neither all integers nor one quadratic family.
    """
    if all(abs(x - round(x)) <= INT_TOL for x in values):
        return 1, [round(2 * (values[0] - x)) for x in values]
    delta, es = None, []
    for x in values:
        d = values[0] - x
        if abs(d) <= INT_TOL:
            es.append(0)
            continue
        square = round(4 * d * d)
        if abs(4 * d * d - square) > INT_TOL * max(1.0, 4 * d * d):
            return None
        core = _squarefree(square)
        if delta not in (None, core):
            return None
        delta = core
        root = math.isqrt(square // core)
        if root * root * core != square:
            return None
        es.append(root if d > 0 else -root)
    if delta in (None, 1):
        return None
    return delta, es


def oracle_period(m: np.ndarray, u: int) -> float | None:
    """Minimum period of vertex u (0 for a one-point support), or None."""
    values = support(m, u)
    if len(values) <= 1:
        return 0.0
    coords = coordinates(values)
    if coords is None:
        return None
    delta, es = coords
    return 4 * math.pi / (math.gcd(*es) * math.sqrt(delta))


def oracle_transfer(m: np.ndarray, u: int, v: int) -> float | None:
    """Minimum perfect state transfer time from u to v, or None.

    u and v have transfer iff they are strongly cospectral, the support is
    integral or one quadratic family, and, with g the gcd of the coordinates
    relative to a plus eigenvalue, an eigenvalue is a plus one exactly when
    its coordinate over g is even; the time is then 2 pi / (g sqrt(delta)).
    """
    partition = sign_partition(m, u, v)
    if partition is None or not partition[0] or not partition[1]:
        return None
    plus, minus = partition
    coords = coordinates(plus + minus)
    if coords is None:
        return None
    delta, es = coords
    g = math.gcd(*es)
    if any((e // g) % 2 != (0 if i < len(plus) else 1) for i, e in enumerate(es)):
        return None
    return 2 * math.pi / (g * math.sqrt(delta))


# ---------------------------------------------------------------------------
# checks on certificates
# ---------------------------------------------------------------------------


def check_transfer(m: np.ndarray, u: int, v: int, pst: bool, time: float | None, what: str) -> None:
    """A transfer verdict against the eigh oracle, and a positive one against expm."""
    expected = oracle_transfer(m, u, v)
    require(pst == (expected is not None),
            f"{what}: verdict {pst} but the eigh oracle says {expected is not None}")
    if pst:
        require(abs(time - expected) <= TIME_TOL * expected,
                f"{what}: transfer time {time} but the eigh oracle gives {expected}")
        mag = magnitude(m, time, u, v)
        require(mag >= GATE, f"{what}: expm reaches only {mag} at the certified time {time}")


def check_period(m: np.ndarray, u: int, period: float, what: str) -> None:
    """A certified minimum period against the eigh oracle and expm."""
    expected = oracle_period(m, u)
    require(expected is not None and abs(period - expected) <= TIME_TOL * max(expected, 1.0),
            f"{what}: period {period} but the eigh oracle gives {expected}")
    mag = magnitude(m, period, u, u)
    require(mag >= GATE, f"{what}: expm revives vertex {u} only to {mag} at {period}")


def _time(cert) -> float | None:
    return cert.time.value if cert.pst else None


def _stacked_expected(parts, j: int) -> bool | None:
    """The stacked-cone congruences, for plans of empty parts probed in part 1."""
    sizes = [g.order for g, _ in parts]
    if j != 1 or sizes[0] != 2 or any(g.edges or g.loops for g, _ in parts):
        return None
    return len(sizes) % 2 == 0 and sizes[1] % 4 == 2 and all(s % 4 == 0 for s in sizes[2:])


def check_api(call, result) -> None:
    """Check the result of one API call of the benchmark."""
    kw = call.kwargs
    matrix = kw.get("matrix", "laplacian")
    what = call.label
    if call.func in ("join_pst", "pst_preserved"):
        x, y, u, v = call.args
        m = generator(join_adjacency(adjacency(x), adjacency(y)), matrix)
        check_transfer(m, u, v, result.pst, _time(result), what)
    elif call.func == "double_cone_pst":
        (y,) = call.args
        require(result.pst == (y.order % 4 == 2),
                f"{what}: double-cone verdict {result.pst} for n = {y.order}, "
                f"but hits are exactly n = 2 (mod 4)")
        m = generator(join_adjacency(np.zeros((2, 2)), adjacency(y)), matrix)
        check_transfer(m, 0, 1, result.pst, _time(result), what)
    elif call.func == "iterated_join_analysis":
        spec, j, u, v = call.args
        expected = _stacked_expected(spec.parts, j)
        require(expected is None or result.pst == expected,
                f"{what}: verdict {result.pst} breaks the stacked-cone congruences")
        offset = sum(g.order for g, _ in spec.parts[: j - 1])
        m = generator(plan_adjacency(spec.parts), "laplacian")
        check_transfer(m, offset + u, offset + v, result.pst, _time(result), what)
    elif call.func == "self_join_analysis":
        x, copies, u, v = call.args
        m = generator(self_join_adjacency(adjacency(x), copies), matrix)
        check_transfer(m, u, v, result.pst, _time(result), what)
    elif call.func == "pst_induced":
        x, y, u, v = call.args
        joined = generator(join_adjacency(adjacency(x), adjacency(y)), matrix)
        part = generator(adjacency(x), matrix)
        jc, pc = result.join_certificate, result.part_certificate
        check_transfer(joined, u, v, jc.pst, _time(jc), what + " (join)")
        check_transfer(part, u, v, pc.pst, _time(pc), what + " (part)")
        require(result.induced == (jc.pst and not pc.pst), f"{what}: induced flag contradicts its certificates")
    elif call.func == "join_period_ratio":
        x, y, u = call.args
        part = generator(adjacency(x), matrix)
        joined = generator(join_adjacency(adjacency(x), adjacency(y)), matrix)
        check_period(part, u, result.period_part.value, what + " (part)")
        check_period(joined, u, result.period_join.value, what + " (join)")
        ratio = result.period_join.value / result.period_part.value
        require(abs(result.value - ratio) <= TIME_TOL * ratio,
                f"{what}: ratio {result.value} but the periods give {ratio}")
    elif call.func == "graph_periodic":
        (g,) = call.args
        m = generator(adjacency(g), matrix)
        periods = [oracle_period(m, u) for u in range(g.order)]
        require(result == all(p is not None for p in periods),
                f"{what}: verdict {result} but the eigh oracle says {all(p is not None for p in periods)}")
        for u, p in enumerate(periods):
            if p:
                mag = magnitude(m, p, u, u)
                require(mag >= GATE, f"{what}: expm revives vertex {u} only to {mag} at {p}")
    else:
        raise CheckError(f"{what}: no check for {call.func}")


# ---------------------------------------------------------------------------
# checks on CLI commands
# ---------------------------------------------------------------------------


class _Graph:
    """Plain graph data decoded from a report or a graph file."""

    def __init__(self, doc: dict):
        self.order = doc["order"]
        self.edges = {(min(u, v), max(u, v)): w for u, v, w in doc.get("edges", [])}
        self.loops = {v: w for v, w in doc.get("loops", [])}


def _family_order(spec: str) -> int:
    """Order of a one-parameter family spec such as "C 4" or "Q 3"."""
    name, param = spec.split()
    return 1 << int(param) if name == "Q" else int(param)


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_report(path: str, kind: str, text: str) -> None:
    """A --out report parses as JSON, and its transfers and periods hold up."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckError(f"{path}: the report is not JSON ({exc})") from None
    require(isinstance(doc, dict) and doc.get("kind") == kind, f"{path}: report kind is not {kind!r}")
    payload = doc["payload"]
    if kind == "analyze":
        graph = _Graph(payload["graph"]["__graph__"])
        m = generator(adjacency(graph), payload["matrix"])
        for entry in payload["vertices"]:
            period = entry["period"]["fields"]
            if period["periodic"] and period["period"]:
                check_period(m, entry["vertex"], period["period"], f"{path} vertex {entry['vertex']}")
        if "pair" in payload:
            _check_report_pst(m, payload["pair"]["pst"]["fields"], path)
    elif "right" in payload:
        left = adjacency(_Graph(payload["left"]["__graph__"]))
        right = adjacency(_Graph(payload["right"]["__graph__"]))
        joined = generator(join_adjacency(left, right), payload["matrix"])
        fields = payload["pst"]["fields"]
        _check_report_pst(joined, fields, path)
        if "ratio" in payload:
            u, m = fields["u"], len(left)
            part, local = (left, u) if u < m else (right, u - m)
            ratio = payload["ratio"]["fields"]
            check_period(generator(part, payload["matrix"]), local, _value(ratio["period_part"]), f"{path} part")
            check_period(joined, u, _value(ratio["period_join"]), f"{path} join")
    elif "copies" in payload:
        fields = payload["pst"]["fields"]
        a = self_join_adjacency(adjacency(_Graph(payload["left"]["__graph__"])), payload["copies"])
        _check_report_pst(generator(a, fields["matrix"]), fields, path)
    elif "plan" in payload:
        fields = payload["pst"]["fields"]
        tokens = payload["plan"].split()
        require(all(re.fullmatch(r"O\d+", t) for t in tokens[::2]), f"{path}: only plans of empty parts are checked")
        a = np.zeros((int(tokens[0][1:]),) * 2)
        offset = 0
        for i in range(1, len(tokens), 2):
            if i // 2 + 1 < payload["part"]:
                offset = len(a)
            part = np.zeros((int(tokens[i + 1][1:]),) * 2)
            a = (join_adjacency if tokens[i] == "v" else union_adjacency)(a, part)
        m = generator(a, "laplacian")
        check_transfer(m, offset + fields["u"], offset + fields["v"], fields["pst"],
                       _value(fields["time"]) if fields["pst"] else None, path)


def _value(time: dict) -> float:
    p, q, d = time["__time__"]
    return math.pi * p / (q * math.sqrt(d))


def _check_report_pst(m, fields, path) -> None:
    value = _value(fields["time"]) if fields["pst"] else None
    check_transfer(m, fields["u"], fields["v"], fields["pst"], value, path)


def check_sweep_csv(path: str, text: str, m: int) -> None:
    """Every bound-sweep row stays within 2/m, recomputed from its magnitudes."""
    rows = list(csv.DictReader(text.splitlines()))
    require(len(rows) > 0, f"{path}: the sweep has no rows")
    for row in rows:
        dev = float(row["mag_join"]) - float(row["mag_base"])
        require(abs(dev - float(row["F"])) <= 1e-12, f"{path}: F = {row['F']} but the magnitudes give {dev}")
        require(abs(dev) <= 2.0 / m + 1e-9, f"{path}: |F| = {abs(dev)} exceeds 2/m = {2.0 / m} at t = {row['t']}")


def check_search_lines(argv, lines: list[dict]) -> None:
    """pst-search output against the congruences and the eigh oracle."""
    mode = _option(argv, "--mode")
    if mode == "double-cone":
        lo, hi = int(_option(argv, "--n-min") or 1), int(_option(argv, "--n-max") or 20)
        if "--all" in argv:
            require([ln["n"] for ln in lines] == list(range(lo, hi + 1)), "double-cone: missing sizes")
            require(all(ln["pst"] == (ln["n"] % 4 == 2) for ln in lines),
                    "double-cone: hits are not exactly n = 2 (mod 4)")
        else:
            require([ln["n"] for ln in lines] == [n for n in range(lo, hi + 1) if n % 4 == 2],
                    "double-cone: hits are not exactly n = 2 (mod 4)")
        for ln in lines:
            if ln["pst"]:
                m = generator(join_adjacency(np.zeros((2, 2)), np.zeros((ln["n"], ln["n"]))), "laplacian")
                p, q, d = ln["time"]
                check_transfer(m, 0, 1, True, math.pi * p / (q * math.sqrt(d)), f"double-cone n={ln['n']}")
    elif mode == "threshold":
        parts, size = int(_option(argv, "--max-parts") or 4), int(_option(argv, "--max-size") or 6)
        hits = [
            list(s) for count in range(2, parts + 1)
            for s in itertools.product(range(1, size + 1), repeat=count)
            if len(s) % 2 == 0 and s[0] == 2 and s[1] % 4 == 2 and all(x % 4 == 0 for x in s[2:])
        ]
        require([ln["sizes"] for ln in lines] == hits, "threshold: hits break the stacked-cone congruences")
        require(all(ln["time"] == [1, 2, 1] for ln in lines), "threshold: a stacked-cone time is not pi/2")
    elif mode == "cp-join":
        emitted = {ln["m"]: ln for ln in lines}
        for size in range(4, 21, 2):
            a = np.ones((size, size)) - np.eye(size)
            for i in range(size // 2):
                a[i, i + size // 2] = a[i + size // 2, i] = 0.0
            antipodal = oracle_transfer(generator(a, "laplacian"), 0, size // 2) is not None
            joined = generator(join_adjacency(a, np.zeros((2, 2))), "laplacian")
            cone = oracle_transfer(joined, size, size + 1) is not None
            if antipodal or cone:
                ln = emitted.get(size)
                require(ln is not None and ln["antipodal_pst"] == antipodal and ln["cone_pair_pst"] == cone,
                        f"cp-join m={size}: line {ln} but expected antipodal {antipodal}, cone {cone}")
            else:
                require(size not in emitted, f"cp-join m={size}: emitted without a transfer")


def check_cli(call, result) -> None:
    """Exit code, stdout and written files of one CLI command."""
    code, stdout, files = result
    argv = list(call.args)
    require(code == 0, f"{call.label}: exit code {code}")
    if argv[0] == "pst-search":
        lines = [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]
        check_search_lines(argv, lines)
    for path, text in zip(call.files, files):
        if path.endswith(".csv"):
            check_sweep_csv(path, text, _family_order(_option(argv, "--left")))
        else:
            check_report(path, argv[0], text)


def check(call, result) -> None:
    if call.func == "cli":
        check_cli(call, result)
    else:
        check_api(call, result)


# ---------------------------------------------------------------------------
# self-test: every check must reject a deliberately wrong answer
# ---------------------------------------------------------------------------


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckError:
        return True
    return False


def self_test() -> int:
    import contextlib
    import dataclasses
    import io
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import qwjoin
    from workloads import Call

    F = qwjoin.family
    q3, o2, o4 = F("Q", 3), F("O", 2), F("O", 4)
    hit = Call("join_pst Q3+O4", "join_pst", (q3, o4, 0, 7))
    cert = hit.run()
    assert cert.pst
    miss_call = Call("join_pst Q3+O2", "join_pst", (q3, o2, 0, 7))
    miss = miss_call.run()
    late = dataclasses.replace(cert, time=qwjoin.SymbolicTime(1, 3, 1))
    cone = Call("double_cone_pst O8", "double_cone_pst", (F("O", 8),))
    cone_miss = cone.run()
    stacked = Call("stacked", "iterated_join_analysis", (qwjoin.parse_iterated_spec("O2 v O4 u O4 v O8"), 1, 0, 1))
    ratio_call = Call("ratio Q3+O3", "join_period_ratio", (q3, F("O", 3), 0))
    ratio = ratio_call.run()
    bad_ratio = dataclasses.replace(ratio, period_join=qwjoin.SymbolicTime(1, 3, 1))
    sweep = "t,mag_join,mag_base,F\n0.5,0.9,0.2,0.7\n"
    cases = {
        "correct answers pass": not any(
            _rejects(check, c, c.run()) for c in (hit, miss_call, cone, stacked, ratio_call)
        ),
        "perturbed transfer time": _rejects(check, hit, late),
        "expm at a perturbed time": _rejects(
            check_transfer, generator(join_adjacency(adjacency(q3), adjacency(o4)), "laplacian"),
            0, 7, True, cert.time.value * 1.01, "perturbed"),
        "flipped positive verdict": _rejects(check, hit, dataclasses.replace(cert, pst=False)),
        "flipped negative verdict": _rejects(check, miss_call, dataclasses.replace(
            miss, pst=True, time=qwjoin.SymbolicTime(1, 2, 1))),
        "double-cone hit off n = 2 (mod 4)": _rejects(check, cone, dataclasses.replace(
            cone_miss, pst=True, time=qwjoin.SymbolicTime(1, 2, 1))),
        "stacked-cone congruence broken": _rejects(check, stacked, dataclasses.replace(
            stacked.run(), pst=True, time=qwjoin.SymbolicTime(1, 2, 1))),
        "wrong join period": _rejects(check, ratio_call, bad_ratio),
        "sweep row above 2/m": _rejects(check_sweep_csv, "sweep.csv", sweep, 4),
        "sweep column F inconsistent": _rejects(check_sweep_csv, "sweep.csv", "t,mag_join,mag_base,F\n0,1,1,0.1\n", 4),
        "report that is not JSON": _rejects(check_report, "r.json", "analyze", "{not json"),
        "threshold hit off the congruences": _rejects(
            check_search_lines, ["pst-search", "--mode", "threshold"],
            [{"sizes": [2, 6, 4, 4], "time": [1, 2, 1]}]),
        "double-cone search with an extra hit": _rejects(
            check_search_lines, ["pst-search", "--mode", "double-cone", "--n-max", "6"],
            [{"n": 2, "pst": True, "time": [1, 2, 1]}, {"n": 4, "pst": True, "time": [1, 2, 1]},
             {"n": 6, "pst": True, "time": [1, 2, 1]}]),
    }
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        report = Path(tmp) / "r.json"
        with contextlib.redirect_stdout(io.StringIO()):
            qwjoin.cli.main(["join", "--left", "Q 3", "--right", "O 4", "--pair", "0", "7", "--out", str(report)])
        text = report.read_text()
        doc = json.loads(text)
        doc["payload"]["pst"]["fields"]["time"]["__time__"] = [1, 3, 1]
        cases["report passes"] = not _rejects(check_report, str(report), "join", text)
        cases["report with a perturbed time"] = _rejects(check_report, str(report), "join", json.dumps(doc))
    width = max(map(len, cases))
    for name, ok in cases.items():
        print(f"{name:<{width}}  {'ok' if ok else 'FAILED'}")
    return 0 if all(cases.values()) else 1


if __name__ == "__main__":
    sys.exit(self_test())
