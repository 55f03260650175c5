"""The three benchmark workloads: seeded inputs and the fixed call list of one round.

Each workload builds its inputs once from the seed, then returns the list of
top-level calls that make up one round. A round is replayed unchanged for
the whole run, so every run attempts whole rounds of the same operations.

Call counts per round are 25, 15 and 15. With K calls repeated over R
rounds, the median of the per-call latencies sits in the middle of the R
repeats of the ceil(0.5 K)-th cheapest call, and the 90th percentile in the
middle of the ceil(0.9 K)-th, because 0.5 K and 0.9 K end in .5; the lists
are composed so that those calls have neighbours of similar cost.

Each call names the reference kernel (see ``reference.py``) that matches
its dominant kind of work: ``dense`` for cone hits and the double-cone
search over n = 100..140, whose time is the dense confirmation on built
joins, ``interp`` for everything else.

Calls resolve their function through the ``qwjoin`` package (or
``qwjoin.cli``) at call time, so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import qwjoin
import qwjoin.cli
from qwjoin import WeightedGraph, family, join, parse_iterated_spec

F = family


@dataclass
class Call:
    """One top-level call: an API function name with arguments, or a CLI argv."""

    label: str
    func: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    kernel: str = "interp"

    @property
    def files(self) -> list[str]:
        """The files a CLI call writes (its --out and --csv values)."""
        return [self.args[i + 1] for i, a in enumerate(self.args) if self.func == "cli" and a in ("--out", "--csv")]

    def run(self):
        if self.func == "cli":
            return qwjoin.cli.main(list(self.args))
        return getattr(qwjoin, self.func)(*self.args, **self.kwargs)


def circulant(rng: random.Random, order: int, connections: int) -> WeightedGraph:
    """Unweighted circulant on ``order`` vertices with seeded connection set."""
    steps = rng.sample(range(1, order // 2 + 1), connections)
    pairs = {
        (min(u, (u + s) % order), max(u, (u + s) % order))
        for s in steps
        for u in range(order)
    }
    return WeightedGraph(order, [(a, b, 1.0) for a, b in sorted(pairs)])


def part_certificates(rng: random.Random, workdir: Path) -> list[Call]:
    """Certificates on parts of order 8-64; the part eigensolver dominates.

    Vertex-transitive families (Q, CP, C, K, K_bipartite sides) get a seeded
    vertex, which changes the outputs but not the matrices decomposed, so the
    cost of a round does not depend on the seed. The seeded circulant of
    order 10 is the only seeded matrix; it is kept small because the Jacobi
    sweep count, and so its cost, varies with the connection set.
    """
    q5, q4, q3 = F("Q", 5), F("Q", 4), F("Q", 3)
    cp16, cp8 = F("CP", 16), F("CP", 8)
    kb8, kb32 = F("K_bipartite", 8, 8), F("K_bipartite", 32, 32)
    c16 = F("C", 16)
    o2, o3, o4, o6, o8 = (F("O", n) for n in (2, 3, 4, 6, 8))
    circ = circulant(rng, 10, 2)
    c8_cone = join(F("C", 8), o8)
    a5, a4, a3 = rng.randrange(32), rng.randrange(16), rng.randrange(8)
    b16, b8, c = rng.randrange(16), rng.randrange(8), rng.randrange(16)
    k1, k2 = rng.sample(range(8), 2)  # two vertices on one side of K_8,8
    adj = {"matrix": "adjacency"}
    return [
        Call("join_pst Q5+O4", "join_pst", (q5, o4, a5, a5 ^ 31)),
        Call("join_pst Q4+K4 adj", "join_pst", (q4, F("K", 4), a4, a4 ^ 15), adj),
        Call("join_pst Q3+K2 adj", "join_pst", (q3, F("K", 2), a3, a3 ^ 7), adj),
        Call("join_pst CP16+O4", "join_pst", (cp16, o4, b16, (b16 + 8) % 16)),
        Call("join_pst C16+O2", "join_pst", (c16, o2, c, (c + 8) % 16)),
        Call("join_pst K8,8+O2", "join_pst", (kb8, o2, k1, k2)),
        Call("join_pst P8+O6", "join_pst", (F("P", 8), o6, 0, 7)),
        Call("join_pst circ10+O2", "join_pst", (circ, o2, 0, 5)),
        Call("join_period_ratio Q5+O3", "join_period_ratio", (q5, o3, a5)),
        Call("join_period_ratio K16+K16", "join_period_ratio", (F("K", 16), F("K", 16), b16)),
        Call("join_period_ratio CP16+O4", "join_period_ratio", (cp16, o4, b16)),
        Call("join_period_ratio K8,8+O4", "join_period_ratio", (kb8, o4, k1)),
        Call("join_period_ratio Q3+Q3 adj", "join_period_ratio", (q3, q3, a3), adj),
        Call("pst_preserved Q4+O4", "pst_preserved", (q4, o4, a4, a4 ^ 15)),
        Call("pst_preserved Q3+O8", "pst_preserved", (q3, o8, a3, a3 ^ 7)),
        Call("pst_induced CP8+O2", "pst_induced", (cp8, o2, b8, (b8 + 4) % 8)),
        Call("pst_induced K8,8+O2", "pst_induced", (kb8, o2, k1, k2)),
        Call("self_join_analysis Q3 x3", "self_join_analysis", (q3, 3, a3, a3 ^ 7)),
        Call("self_join_analysis CP16 x4", "self_join_analysis", (cp16, 4, b16, (b16 + 8) % 16)),
        Call("self_join_analysis Q4 x2", "self_join_analysis", (q4, 2, a4, a4 ^ 15)),
        Call("graph_periodic Q5", "graph_periodic", (q5,)),
        Call("graph_periodic C16", "graph_periodic", (c16,)),
        Call("graph_periodic K32,32", "graph_periodic", (kb32,)),
        Call("graph_periodic C8+O8", "graph_periodic", (c8_cone,)),
        Call("graph_periodic circ10", "graph_periodic", (circ,)),
    ]


def _stacked_miss(rng: random.Random) -> tuple[int, ...]:
    """Stacked-cone sizes (2, a, b, c) with a not 2 modulo 4, so no transfer."""
    while True:
        sizes = (2, rng.randrange(2, 130), rng.randrange(4, 130, 4), rng.randrange(4, 250, 4))
        if sizes[1] % 4 != 2:
            return sizes


def _plan(sizes) -> str:
    """Alternating plan text "O2 v Oa u Ob v Oc ..." ending with a join."""
    count = len(sizes)
    text = f"O{sizes[0]}"
    for idx, size in enumerate(sizes[1:], start=2):
        text += (" v " if idx % 2 == count % 2 else " u ") + f"O{size}"
    return text


def cone_confirm(rng: random.Random, workdir: Path) -> list[Call]:
    """Cones with built orders of about 100-512: nine hits and six misses.

    The hits are fixed, because the dense confirmation on the built graph
    costs the cube of its order. The seed picks the misses (double cones
    with n not 2 modulo 4, stacked cones off the congruences, a self-join of
    C8), which skip confirmation and cost about a millisecond or less, and
    the pairs inside the self-joined parts.
    """
    q3, cp8, c4, c8 = F("Q", 3), F("CP", 8), F("C", 4), F("C", 8)
    a3, b8, c, d8 = rng.randrange(8), rng.randrange(8), rng.randrange(4), rng.randrange(8)

    def cone(n, kernel="interp"):
        return Call(f"double_cone_pst O{n}", "double_cone_pst", (F("O", n),), kernel=kernel)

    def stacked(sizes, kernel="interp"):
        plan = _plan(sizes)
        return Call(f"iterated_join_analysis {plan}", "iterated_join_analysis",
                    (parse_iterated_spec(plan), 1, 0, 1), kernel=kernel)

    calls = [cone(n, "dense") for n in (510, 382, 254, 126)]
    calls += [stacked(s, "dense") for s in [(2, 62, 64, 256), (2, 2, 4, 4, 8, 236)]]
    calls += [
        Call("self_join_analysis C4 x31", "self_join_analysis", (c4, 31, c, (c + 2) % 4)),
        Call("self_join_analysis Q3 x16", "self_join_analysis", (q3, 16, a3, a3 ^ 7)),
        Call("self_join_analysis CP8 x16", "self_join_analysis", (cp8, 16, b8, (b8 + 4) % 8)),
    ]
    calls += [cone(n) for n in rng.sample([n for n in range(100, 513) if n % 4 != 2], 3)]
    calls += [stacked(_stacked_miss(rng)) for _ in range(2)]
    r = rng.randrange(9, 41)
    calls.append(Call(f"self_join_analysis C8 x{r}", "self_join_analysis", (c8, r, d8, (d8 + 4) % 8)))
    return calls


def search_cli(rng: random.Random, workdir: Path) -> list[Call]:
    """The README's CLI commands plus searches and sweeps, run in-process.

    The seed picks the pairs inside vertex-transitive parts, including the
    graph file given to ``analyze --graph``: the circulant on 8 vertices with
    steps 1 and 4. Relabelling that graph instead would change the Jacobi
    sweeps, and so the cost of the call, by up to 15% between seeds.
    """
    graph_file = workdir / "graph.json"
    graph_file.write_text(json.dumps({
        "order": 8,
        "edges": sorted({(min(u, (u + s) % 8), max(u, (u + s) % 8), 1.0) for u in range(8) for s in (1, 4)}),
    }))
    a3, b8, g8 = rng.randrange(8), rng.randrange(8), rng.randrange(8)

    def out(name: str) -> str:
        return str(workdir / name)

    def cli(label, *argv, kernel="interp"):
        return Call(label, "cli", argv, kernel=kernel)

    return [
        cli("analyze C4", "analyze", "--family", "C 4", "--pair", "0", "2",
            "--out", out("analyze-c4.json")),
        cli("join K4+K4 ratio", "join", "--left", "K 4", "--right", "K 4", "--pair", "0", "1",
            "--ratio", "--out", out("join-k4.json")),
        cli("join iterated", "join", "--iterated", "O2 v O2 u O4 v O4", "--part", "1",
            "--pair", "0", "1", "--out", out("join-iterated.json")),
        cli("join self P3 x4", "join", "--left", "P 3", "--self", "4", "--pair", "0", "2",
            "--out", out("join-self.json")),
        cli("pst-search double-cone 1-20", "pst-search", "--mode", "double-cone", "--n-max", "20"),
        cli("bound-sweep C4+O2", "bound-sweep", "--left", "C 4", "--right", "O 2", "--pair", "0", "2",
            "--csv", out("sweep-c4.csv")),
        cli("pst-search threshold", "pst-search", "--mode", "threshold"),
        cli("pst-search cp-join", "pst-search", "--mode", "cp-join"),
        cli("pst-search double-cone 100-140", "pst-search", "--mode", "double-cone",
            "--n-min", "100", "--n-max", "140", "--all", kernel="dense"),
        cli("bound-sweep K4+K4 adj", "bound-sweep", "--left", "K 4", "--right", "K 4", "--pair", "0", "1",
            "--matrix", "adjacency", "--csv", out("sweep-k4.csv")),
        cli("bound-sweep Q3+O4", "bound-sweep", "--left", "Q 3", "--right", "O 4",
            "--pair", str(a3), str(a3 ^ 7), "--csv", out("sweep-q3.csv")),
        cli("analyze Q3", "analyze", "--family", "Q 3", "--pair", str(a3), str(a3 ^ 7),
            "--out", out("analyze-q3.json")),
        cli("analyze graph file", "analyze", "--graph", str(graph_file),
            "--pair", str(g8), str((g8 + 4) % 8),
            "--out", out("analyze-file.json")),
        cli("join CP8+O2", "join", "--left", "CP 8", "--right", "O 2",
            "--pair", str(b8), str((b8 + 4) % 8), "--out", out("join-cp8.json")),
        cli("join Q3+Q3 adj ratio", "join", "--left", "Q 3", "--right", "Q 3", "--pair", "0", "7",
            "--matrix", "adjacency", "--ratio", "--out", out("join-q3.json")),
    ]


WORKLOADS = {
    "part_certificates": part_certificates,
    "cone_confirm": cone_confirm,
    "search_cli": search_cli,
}


def build(name: str, seed: int, workdir: Path) -> list[Call]:
    """The round's call list for a workload, built from the seed."""
    return WORKLOADS[name](random.Random(seed), workdir)
