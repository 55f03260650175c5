"""Weighted graphs, named families, and the join constructions.

Vertices are 0..order-1. Edges carry positive real weights; loops carry
nonzero real weights and only matter for adjacency-matrix analyses (the
Laplacian routines require simple graphs). When two graphs are joined, the
left operand keeps its vertex labels and the right operand is shifted, so
vertex u of X is vertex u of join(X, Y).

A JoinTree keeps a join or union as structure instead of an edge list: it
multiplies by the built graph's matrix without building it, at the cost of
the parts' edges plus the order.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import PreconditionError


class Connective(enum.Enum):
    JOIN = "join"
    UNION = "union"


def _normalize_edges(order: int, edges) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for item in edges:
        u, v, w = item
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) out of range for order {order}")
        if u == v:
            raise ValueError(f"loop ({u},{u}) must be supplied via loops, not edges")
        if not math.isfinite(w) or w <= 0:
            raise ValueError(f"edge ({u},{v}) needs a positive finite weight, got {w}")
        key = (u, v) if u < v else (v, u)
        if key in out:
            raise ValueError(f"duplicate edge {key}")
        out[key] = w
    return out


def _normalize_loops(order: int, loops) -> dict[int, float]:
    out: dict[int, float] = {}
    items = loops.items() if isinstance(loops, dict) else loops
    for item in items:
        v, w = item
        v, w = int(v), float(w)
        if not 0 <= v < order:
            raise ValueError(f"loop vertex {v} out of range for order {order}")
        if not math.isfinite(w) or w == 0:
            raise ValueError(f"loop at {v} needs a nonzero finite weight, got {w}")
        if v in out:
            raise ValueError(f"duplicate loop at {v}")
        out[v] = w
    return out


class WeightedGraph:
    """An undirected weighted graph with optional loops; immutable.

    edges and loops are read-only mappings. The adjacency and Laplacian
    matrices and the degree vector are built on first use and cached on the
    graph as read-only arrays; spectral.spectrum caches decompositions the
    same way.
    """

    __slots__ = ("order", "edges", "loops", "provenance", "_cache")

    def __init__(self, order: int, edges=(), loops=(), provenance=None):
        order = int(order)
        if order < 1:
            raise ValueError("a graph needs at least one vertex")
        init = object.__setattr__
        init(self, "order", order)
        init(self, "edges", MappingProxyType(_normalize_edges(order, edges)))
        init(self, "loops", MappingProxyType(_normalize_loops(order, loops)))
        init(self, "provenance", provenance)
        init(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightedGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"WeightedGraph is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.order == other.order
            and self.edges == other.edges
            and self.loops == other.loops
        )

    def __repr__(self) -> str:
        return (
            f"WeightedGraph(order={self.order}, edges={len(self.edges)}, "
            f"loops={len(self.loops)})"
        )

    def cached(self, key, build):
        """build(), computed on the first call for key and kept on this graph."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def weight(self, u: int, v: int) -> float:
        if u == v:
            return self.loops.get(u, 0.0)
        key = (u, v) if u < v else (v, u)
        return self.edges.get(key, 0.0)

    def degree(self, u: int) -> float:
        """Weighted degree: twice the loop weight plus incident edge weights."""
        if not 0 <= u < self.order:
            raise ValueError(f"vertex {u} out of range for order {self.order}")
        return float(self.degrees()[u])

    def degrees(self) -> np.ndarray:
        """All weighted degrees, as a read-only vector."""

        def build():
            weights, loop_at, loop_weights = self._index_arrays()[2:]
            out = self._edge_sums(weights, weights)
            out[loop_at] += 2.0 * loop_weights
            return _read_only(out)

        return self.cached("degrees", build)

    def _index_arrays(self):
        """Edge endpoints and weights, loop vertices and weights, as cached arrays."""

        def build():
            ends = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)
            arrays = (
                ends[:, 0],
                ends[:, 1],
                np.fromiter(self.edges.values(), float, len(self.edges)),
                np.fromiter(self.loops.keys(), np.intp, len(self.loops)),
                np.fromiter(self.loops.values(), float, len(self.loops)),
            )
            return tuple(_read_only(a) for a in arrays)

        return self.cached("index_arrays", build)

    def _edge_sums(self, at_rows, at_cols) -> np.ndarray:
        """Per-vertex sums of at_rows over first edge ends and at_cols over second ends."""
        rows, cols = self._index_arrays()[:2]
        out = np.zeros(self.order)
        out += np.bincount(rows, at_rows, self.order)
        out += np.bincount(cols, at_cols, self.order)
        return out

    def matvec(self, x: np.ndarray, kind: str) -> np.ndarray:
        """The adjacency or Laplacian matrix times the real vector x.

        Reads the edge and loop lists, so it costs O(edges + order) and
        never forms the dense matrix.
        """
        if kind not in ("adjacency", "laplacian"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        if kind == "laplacian" and self.loops:
            raise PreconditionError("the Laplacian is defined here for simple graphs only")
        rows, cols, weights, loop_at, loop_weights = self._index_arrays()
        x = np.asarray(x, dtype=float)
        out = self._edge_sums(weights * x[cols], weights * x[rows])
        if kind == "laplacian":
            return self.degrees() * x - out
        out[loop_at] += loop_weights * x[loop_at]
        return out

    def adjacency(self) -> np.ndarray:
        """The adjacency matrix, as a read-only array."""

        def build():
            a = np.zeros((self.order, self.order))
            for (u, v), w in self.edges.items():
                a[u, v] = a[v, u] = w
            for v, w in self.loops.items():
                a[v, v] = w
            return _read_only(a)

        return self.cached("adjacency", build)

    def laplacian(self) -> np.ndarray:
        """The Laplacian matrix of a simple graph, as a read-only array."""
        if self.loops:
            raise PreconditionError(
                "the Laplacian is defined here for simple graphs only"
            )
        return self.cached(
            "laplacian", lambda: _read_only(np.diag(self.degrees()) - self.adjacency())
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def is_simple(graph: WeightedGraph) -> bool:
    return not graph.loops


def is_regular(graph: WeightedGraph, tol: float = 1e-12) -> float | None:
    """Common adjacency row sum if the graph is regular, else None."""
    sums = graph.adjacency().sum(axis=1)
    k = float(sums[0])
    scale = max(1.0, float(np.abs(sums).max()))
    if np.max(np.abs(sums - k)) <= tol * scale:
        return k
    return None


def component_of(graph: WeightedGraph, u: int) -> list[int]:
    """Sorted vertex list of the connected component containing u."""
    if not 0 <= u < graph.order:
        raise ValueError(f"vertex {u} out of range for order {graph.order}")
    adj: dict[int, list[int]] = {v: [] for v in range(graph.order)}
    for (a, b) in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(seen)


def is_connected(graph: WeightedGraph) -> bool:
    return len(component_of(graph, 0)) == graph.order


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def family(name: str, *params) -> WeightedGraph:
    """Build a named unweighted family member.

    Names: O n (empty), O_loops n k (empty with weight-k loops), K n
    (complete), P n (path), C n (cycle, n >= 3), CP m (complete minus a
    perfect matching pairing i with i+m/2), Q p (p-cube), K_minus_e d
    (complete on d vertices minus one edge, the nonadjacent pair first),
    K_bipartite a b (complete bipartite).
    """
    if name == "O":
        (n,) = params
        return WeightedGraph(int(n))
    if name == "O_loops":
        n, k = params
        n = int(n)
        return WeightedGraph(n, loops=[(v, float(k)) for v in range(n)])
    if name == "K":
        (n,) = params
        n = int(n)
        return WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
    if name == "P":
        (n,) = params
        n = int(n)
        return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    if name == "C":
        (n,) = params
        n = int(n)
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    if name == "CP":
        (m,) = params
        m = int(m)
        if m < 2 or m % 2:
            raise ValueError("the cocktail party graph needs an even order >= 2")
        half = m // 2
        edges = [
            (u, v, 1.0)
            for u in range(m)
            for v in range(u + 1, m)
            if v - u != half
        ]
        return WeightedGraph(m, edges)
    if name == "Q":
        (p,) = params
        p = int(p)
        if p < 0:
            raise ValueError("the cube dimension must be nonnegative")
        n = 1 << p
        edges = [
            (u, u ^ (1 << bit), 1.0)
            for u in range(n)
            for bit in range(p)
            if u < (u ^ (1 << bit))
        ]
        return WeightedGraph(n, edges)
    if name == "K_minus_e":
        (d,) = params
        d = int(d)
        if d < 3:
            raise ValueError("complete-minus-an-edge needs at least 3 vertices")
        return join(family("O", 2), family("K", d - 2))
    if name == "K_bipartite":
        a, b = params
        a, b = int(a), int(b)
        edges = [(u, a + v, 1.0) for u in range(a) for v in range(b)]
        return WeightedGraph(a + b, edges)
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# join constructions
# ---------------------------------------------------------------------------


def join(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Join of two graphs: every cross pair gets an edge of weight 1."""
    m = x.order
    edges = [(u, v, w) for (u, v), w in x.edges.items()]
    edges += [(u + m, v + m, w) for (u, v), w in y.edges.items()]
    edges += [(u, m + v, 1.0) for u in range(m) for v in range(y.order)]
    loops = [(v, w) for v, w in x.loops.items()]
    loops += [(v + m, w) for v, w in y.loops.items()]
    return WeightedGraph(m + y.order, edges, loops, provenance=("join", x, y))


def disjoint_union(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    m = x.order
    edges = [(u, v, w) for (u, v), w in x.edges.items()]
    edges += [(u + m, v + m, w) for (u, v), w in y.edges.items()]
    loops = [(v, w) for v, w in x.loops.items()]
    loops += [(v + m, w) for v, w in y.loops.items()]
    return WeightedGraph(m + y.order, edges, loops, provenance=("union", x, y))


@dataclass(frozen=True, eq=False)
class JoinTree:
    """A join or disjoint union of parts, kept as structure, not as edges.

    children are WeightedGraphs or JoinTrees, numbered consecutively in the
    given order as join and disjoint_union number them, so
    JoinTree(Connective.JOIN, (x, y)) stands for join(x, y) and
    JoinTree(Connective.JOIN, (x,) * r) for self_join(x, r). matvec
    multiplies by the built graph's matrix in O(leaf edges + order); build
    materializes the graph.
    """

    connective: Connective
    children: tuple
    order: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("a join tree node needs at least two children")
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "order", sum(c.order for c in self.children))

    def matvec(self, x: np.ndarray, kind: str) -> np.ndarray:
        """The built graph's adjacency or Laplacian matrix times the real vector x.

        A union is block-diagonal. A join adds all-ones blocks between its
        children: with block sums s_i, total sum S and total order N, child i
        of order n_i gets (S - s_i) added under the adjacency matrix, and
        (N - n_i) x_i - (S - s_i) under the Laplacian.
        """
        x = np.asarray(x, dtype=float)
        joined = self.connective is Connective.JOIN
        total = float(x.sum())
        out = np.empty(self.order)
        lo = 0
        for child in self.children:
            hi = lo + child.order
            block = x[lo:hi]
            out[lo:hi] = child.matvec(block, kind)
            if joined:
                rest = total - float(block.sum())
                if kind == "laplacian":
                    out[lo:hi] += (self.order - child.order) * block - rest
                else:
                    out[lo:hi] += rest
            lo = hi
        return out

    def build(self) -> WeightedGraph:
        """The graph itself, through join or disjoint_union."""
        glue = join if self.connective is Connective.JOIN else disjoint_union
        parts = [c.build() if isinstance(c, JoinTree) else c for c in self.children]
        return functools.reduce(glue, parts)


def self_join(x: WeightedGraph, r: int) -> WeightedGraph:
    """r-fold join of x with itself; r = 1 returns x."""
    r = int(r)
    if r < 1:
        raise ValueError("the self-join count must be at least 1")
    return x if r == 1 else JoinTree(Connective.JOIN, (x,) * r).build()


@dataclass
class IteratedJoinSpec:
    """An alternating join/union build plan.

    parts is a list of (graph, connective) pairs; the first connective is
    None. Valid plans alternate strictly and end with a join, which pins the
    whole pattern: with N parts, part j (1-based) is joined when j has the
    same parity as N and merged by disjoint union otherwise.
    """

    parts: list[tuple[WeightedGraph, Connective | None]]

    def __post_init__(self) -> None:
        n = len(self.parts)
        if n < 2:
            raise ValueError("an iterated join needs at least two parts")
        first_graph, first_conn = self.parts[0]
        if first_conn is not None:
            raise ValueError("the first part takes no connective")
        for j, (part, conn) in enumerate(self.parts[1:], start=2):
            expected = Connective.JOIN if j % 2 == n % 2 else Connective.UNION
            if conn != expected:
                raise ValueError(
                    f"part {j} must use {expected.value} in an alternating "
                    f"{n}-part plan, got {conn.value if conn else None}"
                )

    @property
    def orders(self) -> list[int]:
        return [g.order for g, _ in self.parts]

    @property
    def graphs(self) -> list[WeightedGraph]:
        return [g for g, _ in self.parts]


def iterated_vertex(spec: IteratedJoinSpec, j: int, u: int) -> int:
    """Global index of vertex u of part j (1-based) in the built graph."""
    if not 1 <= j <= len(spec.parts):
        raise ValueError(f"part index {j} out of range")
    part = spec.parts[j - 1][0]
    if not 0 <= u < part.order:
        raise ValueError(f"vertex {u} out of range for part {j}")
    return sum(g.order for g, _ in spec.parts[: j - 1]) + u


def iterated_tree(spec: IteratedJoinSpec) -> JoinTree:
    """The plan as a left-nested JoinTree, numbered as iterated_vertex numbers it."""
    acc = spec.parts[0][0]
    for graph, conn in spec.parts[1:]:
        acc = JoinTree(conn, (acc, graph))
    return acc


def iterated_join(spec: IteratedJoinSpec) -> WeightedGraph:
    return iterated_tree(spec).build()


_SPEC_TOKEN = re.compile(r"^(O_loops|CP|O|K|P|C|Q)(\d+)$")
_JOIN_TOKENS = {"∨", "v", "join"}
_UNION_TOKENS = {"∪", "u", "union"}


def parse_iterated_spec(text: str) -> IteratedJoinSpec:
    """Parse a plan like "O2 ∨ K2 ∪ O1 ∨ K3" (ASCII v / u also accepted)."""
    tokens = text.split()
    if not tokens or len(tokens) % 2 == 0:
        raise ValueError(f"malformed iterated-join plan {text!r}")
    parts: list[tuple[WeightedGraph, Connective | None]] = []
    conn: Connective | None = None
    for i, tok in enumerate(tokens):
        if i % 2 == 0:
            m = _SPEC_TOKEN.match(tok)
            if not m:
                raise ValueError(f"unknown graph token {tok!r}")
            parts.append((family(m.group(1), int(m.group(2))), conn))
        else:
            if tok in _JOIN_TOKENS:
                conn = Connective.JOIN
            elif tok in _UNION_TOKENS:
                conn = Connective.UNION
            else:
                raise ValueError(f"unknown connective {tok!r}")
    return IteratedJoinSpec(parts)
