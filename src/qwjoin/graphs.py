"""Weighted graphs, named families, and the join constructions.

Vertices are 0..order-1. Edges carry positive real weights; loops carry
nonzero real weights and only matter for adjacency-matrix analyses (the
Laplacian routines require simple graphs). When two graphs are joined, the
left operand keeps its vertex labels and the right operand is shifted, so
vertex u of X is vertex u of join(X, Y).

A JoinTree keeps a join or union as structure instead of an edge list.
Seen from one vertex, the rest of a join acts through all-ones blocks
only, so a tree gives the equitable quotient at that vertex, whose order
is the vertex's part plus the nesting depth, and multiplies by it without
building the join: dense up to QUOTIENT_MAX_ORDER, matrix-free above it,
at the cost of the part's edges plus the quotient's order. Graphs and
quotients share one product kernel over a graph's edge arrays.
"""

from __future__ import annotations

import enum
import functools
import itertools
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

    __slots__ = ("order", "edges", "loops", "_cache")

    def __init__(self, order: int, edges=(), loops=()):
        order = int(order)
        if order < 1:
            raise ValueError("a graph needs at least one vertex")
        init = object.__setattr__
        init(self, "order", order)
        init(self, "edges", MappingProxyType(_normalize_edges(order, edges)))
        init(self, "loops", MappingProxyType(_normalize_loops(order, loops)))
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
        return self._edge_arrays().degrees

    def _edge_arrays(self) -> _EdgeArrays:
        """Edge endpoints and weights, loop vertices and weights, as cached arrays."""
        arrays = self._cache.get("edge_arrays")
        if arrays is None:
            ends = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)
            parts = (
                ends[:, 0],
                ends[:, 1],
                np.fromiter(self.edges.values(), float, len(self.edges)),
                np.fromiter(self.loops.keys(), np.intp, len(self.loops)),
                np.fromiter(self.loops.values(), float, len(self.loops)),
            )
            arrays = _EdgeArrays(self.order, *(_read_only(a) for a in parts))
            self._cache["edge_arrays"] = arrays
        return arrays

    def matvec(self, x: np.ndarray, kind: str) -> np.ndarray:
        """The adjacency or Laplacian matrix times the real vector x.

        Reads the edge and loop lists, so it costs O(edges + order) and
        never forms the dense matrix. x must have shape (order,).
        """
        return self._edge_arrays().matvec(x, kind)

    def _multiplier(self, kind: str):
        """matvec for one kind, checked now, as a function of a float (order,) vector."""
        arrays = self._edge_arrays()
        laplacian = arrays.is_laplacian(kind)
        return lambda x: arrays.apply(x, laplacian)

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


@dataclass(frozen=True, eq=False)
class _EdgeArrays:
    """A graph's edge and loop arrays, and the product they define.

    A graph keeps its own; a JoinTree's quotient reads those of the part
    that holds its vertex.
    """

    order: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    loop_at: np.ndarray
    loop_weights: np.ndarray

    def _edge_product(self, x: np.ndarray) -> np.ndarray:
        """The edges' part of the adjacency matrix times x, loops left out."""
        if not len(self.weights):  # cones over edgeless graphs skip the edge pass
            return np.zeros(self.order)
        out = np.bincount(self.rows, self.weights * x[self.cols], self.order)
        out += np.bincount(self.cols, self.weights * x[self.rows], self.order)
        return out

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        out = self._edge_product(np.ones(self.order))
        out[self.loop_at] += 2.0 * self.loop_weights
        return _read_only(out)

    def is_laplacian(self, kind: str) -> bool:
        """Whether kind names the Laplacian; raises unless the product kind applies."""
        if kind not in ("adjacency", "laplacian"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        if kind == "laplacian" and len(self.loop_at):
            raise PreconditionError("the Laplacian is defined here for simple graphs only")
        return kind == "laplacian"

    def operand(self, x) -> np.ndarray:
        """x as a float vector; raises unless its shape is (order,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.order,):
            raise ValueError(f"expected a vector of shape ({self.order},), got {x.shape}")
        return x

    def apply(self, x: np.ndarray, laplacian: bool) -> np.ndarray:
        """The product for a checked kind and a float vector of shape (order,).

        Without edges the Laplacian product is degrees * x: subtracting +0.0
        leaves every value, -0.0 included, as it is.
        """
        if laplacian:
            if not len(self.weights):
                return self.degrees * x
            return self.degrees * x - self._edge_product(x)
        out = self._edge_product(x)
        out[self.loop_at] += self.loop_weights * x[self.loop_at]
        return out

    def matvec(self, x: np.ndarray, kind: str) -> np.ndarray:
        """The adjacency or Laplacian matrix of these edges and loops times x."""
        laplacian = self.is_laplacian(kind)
        return self.apply(self.operand(x), laplacian)


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
    """Whether the graph is connected; computed once and cached on the graph."""
    return graph.cached("connected", lambda: len(component_of(graph, 0)) == graph.order)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def _count(value) -> int:
    """A family parameter that counts something: an integer, or a float equal to one."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"a family count must be an integer, got {value!r}")
    return int(value)


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
        return WeightedGraph(_count(n))
    if name == "O_loops":
        n, k = params
        n = _count(n)
        return WeightedGraph(n, loops=[(v, float(k)) for v in range(n)])
    if name == "K":
        (n,) = params
        n = _count(n)
        return WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
    if name == "P":
        (n,) = params
        n = _count(n)
        return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    if name == "C":
        (n,) = params
        n = _count(n)
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    if name == "CP":
        (m,) = params
        m = _count(m)
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
        p = _count(p)
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
        d = _count(d)
        if d < 3:
            raise ValueError("complete-minus-an-edge needs at least 3 vertices")
        return join(family("O", 2), family("K", d - 2))
    if name == "K_bipartite":
        a, b = params
        a, b = _count(a), _count(b)
        edges = [(u, a + v, 1.0) for u in range(a) for v in range(b)]
        return WeightedGraph(a + b, edges)
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# join constructions
# ---------------------------------------------------------------------------


def join(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Join of two graphs: every cross pair gets an edge of weight 1."""
    return JoinTree(Connective.JOIN, (x, y)).build()


def disjoint_union(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    return JoinTree(Connective.UNION, (x, y)).build()


# The largest quotient multiplied as a dense matrix; above it the quotient's
# multiplier never forms it. Measured at t = pi/2 on an Intel Xeon (one BLAS
# thread), dense against matrix-free: at quotient order 257 a product takes
# 9.3-9.6 us against 18-26 us, and krylov_entry 0.37 ms against 0.46 ms on
# Q8 v O4, 22.0 ms against 22.7 ms on C256 v O4 (Krylov dimension 130) and
# 85 ms against 90 ms on the 256-part stacked cone; at order 513 a product
# takes 46-53 us against 22-40 us, and krylov_entry 1.03 ms against 0.71 ms
# on Q9 v O4 and 209 ms against 195 ms on C512 v O4 (on the 512-part
# stacked cone, 0.91 s against 0.95 s, the Lanczos loop hides the product).
QUOTIENT_MAX_ORDER = 256


@dataclass(eq=False)
class _Quotient:
    """A tree's symmetrized equitable quotient B at a vertex, and where its cells lie.

    Cells 0..l-1 are the vertices of the vertex's leaf, whose edge arrays
    are arrays and whose first vertex is leaf; cell l + i holds the other
    children of the i-th ancestor, root first, which spans the vertices
    lo..hi-1 and whose cell has size vertices. With r_i the square root of
    that size, j_i = joins[i] (1 for a join, 0 for a union) and sigma = -1
    under the Laplacian, +1 under the adjacency matrix, B holds: the leaf's
    matrix with shift added to its diagonal; diagonal[i] at cell l + i;
    sigma j_i r_i between cell l + i and each leaf vertex; and
    sigma j_i r_i r_k between cells l + i and l + k for k > i.
    """

    arrays: _EdgeArrays
    laplacian: bool
    shift: int
    joins: list[bool]
    diagonal: list[float]
    leaf: int
    ancestors: tuple[tuple[int, int, int], ...]  # (lo, hi, size), root first

    @property
    def order(self) -> int:
        return self.arrays.order + len(self.ancestors)

    @property
    def dense(self) -> bool:
        """Whether B is multiplied as a dense matrix: up to QUOTIENT_MAX_ORDER."""
        return self.order <= QUOTIENT_MAX_ORDER

    def _roots(self) -> np.ndarray:
        return np.sqrt([size for _, _, size in self.ancestors])

    def matrix(self) -> np.ndarray:
        """B as a dense array."""
        arrays, l, q = self.arrays, self.arrays.order, self.order
        roots = self._roots()
        sign = -1.0 if self.laplacian else 1.0
        b = np.zeros((q, q))
        b[arrays.rows, arrays.cols] = b[arrays.cols, arrays.rows] = sign * arrays.weights
        b[arrays.loop_at, arrays.loop_at] = arrays.loop_weights  # none under the Laplacian
        for i, joined in enumerate(self.joins):
            if joined:  # all of the leaf and of every deeper cell
                c = l + i
                b[c, :l] = b[:l, c] = sign * roots[i]
                b[c, c + 1:] = b[c + 1:, c] = sign * roots[i] * roots[i + 1:]
        b.flat[l * (q + 1) :: q + 1] = self.diagonal
        if self.laplacian:
            b.flat[: l * (q + 1) : q + 1] = arrays.degrees + self.shift
        return b

    def multiplier(self):
        """B @ x as a function of a float vector x of shape (order,), never forming B.

        A product is one pass over the leaf's edges, then two cumulative
        sums over the cells: what each cell gets from the deeper cells it
        is joined to, and from the joins above it. So it makes a fixed
        number of NumPy calls, however deep the tree.
        """
        arrays, l, laplacian, shift = self.arrays, self.arrays.order, self.laplacian, self.shift
        roots = self._roots()
        links = roots * self.joins  # the j_i r_i
        diagonal = np.array(self.diagonal, dtype=float)
        sign = -1.0 if laplacian else 1.0

        def product(x: np.ndarray) -> np.ndarray:
            leaf, cells = x[:l], x[l:]
            linked = links * cells
            deeper = np.zeros(len(cells))  # sum over k > i of r_k x_k
            deeper[:-1] = np.cumsum((roots * cells)[:0:-1])[::-1]
            above = np.zeros(len(cells))  # sum over a < i of j_a r_a x_a
            above[1:] = np.cumsum(linked[:-1])
            out = np.empty(len(x))
            out[:l] = arrays.apply(leaf, laplacian)
            out[:l] += shift * leaf + sign * linked.sum()
            out[l:] = diagonal * cells + sign * (
                links * (leaf.sum() + deeper) + roots * above)
            return out

        return product

    def cell(self, v: int) -> tuple[int, int]:
        """The index and the size of the cell that holds vertex v."""
        l = self.arrays.order
        if self.leaf <= v < self.leaf + l:
            return v - self.leaf, 1
        for i in range(len(self.ancestors) - 1, -1, -1):  # the deepest range holding v
            lo, hi, size = self.ancestors[i]
            if lo <= v < hi:
                return l + i, size
        raise ValueError(f"vertex {v} is outside the tree")


def _common(values) -> float | None:
    """The one value all of values share, or None if they differ or one is None."""
    first = values[0]
    if first is None or any(x != first for x in values):
        return None
    return first


def _row_sum(root, known: dict) -> float | None:
    """The common adjacency row sum of a graph or tree, None when its rows differ.

    A join child of order n and row sum k has row sum k + (N - n) in its
    parent of order N; a union child keeps k. Sums are compared exactly.
    known maps id(node) to the sums found so far; the walk keeps its own
    stack, since iterated plans nest one level per part.
    """
    pending = [(root, False)]
    while pending:
        node, ready = pending.pop()
        if id(node) in known:
            continue
        if isinstance(node, WeightedGraph):
            sums = node._edge_arrays().apply(np.ones(node.order), False)
            known[id(node)] = float(sums[0]) if (sums == sums[0]).all() else None
        elif ready:
            sums = [known[id(c)] for c in node.children]
            if node.connective is Connective.JOIN and None not in sums:
                sums = [k + (node.order - c.order) for k, c in zip(sums, node.children)]
            known[id(node)] = _common(sums)
        else:
            pending.append((node, True))
            pending.extend((c, False) for c in node.children)
    return known[id(root)]


@dataclass(frozen=True, eq=False)
class JoinTree:
    """A join or disjoint union of parts, kept as structure, not as edges.

    children are WeightedGraphs or JoinTrees, numbered consecutively in the
    given order as join and disjoint_union number them, so
    JoinTree(Connective.JOIN, (x, y)) stands for join(x, y) and
    JoinTree(Connective.JOIN, (x,) * r) for self_join(x, r). build
    materializes the graph; _quotient(u, kind) gives the equitable quotient
    at u, of order |leaf of u| + depth, that krylov_entry multiplies in
    place of the built graph's matrix.
    """

    connective: Connective
    children: tuple
    order: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("a join tree node needs at least two children")
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "order", sum(c.order for c in self.children))

    def _postorder(self):
        """Every node with its first vertex, children before their parent, in order.

        The walk keeps its own stack rather than recursing, since iterated
        plans nest one level per part.
        """
        pending: list[tuple[JoinTree | WeightedGraph, int, bool]] = [(self, 0, False)]
        while pending:
            node, lo, expanded = pending.pop()
            if expanded or isinstance(node, WeightedGraph):
                yield node, lo
                continue
            pending.append((node, lo, True))
            offsets = itertools.accumulate((c.order for c in node.children[:-1]), initial=lo)
            pending.extend(reversed([(c, at, False) for c, at in zip(node.children, offsets)]))

    def _quotient(self, u: int, kind: str) -> _Quotient | None:
        """The symmetrized equitable quotient of the tree's matrix at vertex u, or None.

        The cells are the vertices of u's leaf, one each, and for every
        ancestor of that leaf the ancestor's other children. Every vertex of
        such a cell sees each other cell through all-ones blocks only: under
        a join it is adjacent to all of a cell deeper than its own, and to
        all of the ones whose ancestor is a join above it. So the partition
        is equitable, and the walk from e_u stays constant on every cell.
        With P the cells' normalized indicators, B = P^T M P couples leaf
        and cell sizes s_a, s_b by -+sqrt(s_a) and -+sqrt(s_a s_b) under a
        join (minus for the Laplacian) and not at all under a union, and
        exp(itM)[v, u] = exp(itB)[cell(v), cell(u)] / sqrt(|cell(v)|).

        It reads the orders and the leaf's edge arrays; under the adjacency
        matrix the other children must also be regular, with one row sum per
        cell, since a cell's own row sum is its diagonal. The kind, and
        loops under the Laplacian anywhere in the tree, are checked first.
        None when a cell is not regular, whatever the quotient's order.
        """
        if kind not in ("adjacency", "laplacian"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        laplacian = kind == "laplacian"
        if laplacian and any(leaf.loops for leaf in self._leaves()):
            raise PreconditionError("the Laplacian is defined here for simple graphs only")
        path = []  # (ancestor, its first vertex, index of the child holding u)
        node, lo = self, 0
        while isinstance(node, JoinTree):
            at = lo
            for index, child in enumerate(node.children):
                if u < at + child.order:
                    break
                at += child.order
            path.append((node, lo, index))
            node, lo = child, at
        sizes = [a.order - a.children[i].order for a, _, i in path]
        joins = [a.connective is Connective.JOIN for a, _, _ in path]
        diagonal = []
        seen = 0  # under the Laplacian, what a cell sees of the joins above it
        known: dict = {}
        for (ancestor, _, index), size, joined in zip(path, sizes, joins):
            if laplacian:
                diagonal.append(seen + joined * ancestor.children[index].order)
                seen += joined * size
                continue
            others = ancestor.children[:index] + ancestor.children[index + 1:]
            sums = [_row_sum(child, known) for child in others]
            if joined and None not in sums:
                sums = [k + (size - child.order) for k, child in zip(sums, others)]
            inner = _common(sums)
            if inner is None:
                return None
            diagonal.append(inner)
        ancestors = tuple((at, at + a.order, s) for (a, at, _), s in zip(path, sizes))
        return _Quotient(node._edge_arrays(), laplacian, seen, joins, diagonal, lo, ancestors)

    def _leaves(self):
        """Each distinct leaf graph once, however often the tree repeats it."""
        seen: set[int] = set()
        pending: list = [self]
        while pending:
            node = pending.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, WeightedGraph):
                yield node
            else:
                pending.extend(node.children)

    def build(self) -> WeightedGraph:
        """The graph itself; join and disjoint_union build through it.

        Each node folds its children left to right: a child's edges, then,
        at a join, the edges from every earlier child's vertex to it, so
        the edges and loops of a nested tree come out in the order that
        folding join and disjoint_union node by node gives. The lists are
        kept in the built graph's numbering and extended in place, so a
        left-nested plan builds in time linear in its edges, and the graph
        is made once.
        """
        built: list[tuple[list, list]] = []
        for node, lo in self._postorder():
            if isinstance(node, WeightedGraph):
                built.append((
                    [(u + lo, v + lo, w) for (u, v), w in node.edges.items()],
                    [(v + lo, w) for v, w in node.loops.items()],
                ))
                continue
            count = len(node.children)
            (edges, loops), *rest = built[-count:]
            at = lo + node.children[0].order
            for child, (more, more_loops) in zip(node.children[1:], rest):
                edges += more
                if node.connective is Connective.JOIN:
                    ends = range(at, at + child.order)
                    edges += [(u, v, 1.0) for u in range(lo, at) for v in ends]
                loops += more_loops
                at += child.order
            built[-count:] = [(edges, loops)]
        edges, loops = built[0]
        return WeightedGraph(self.order, edges, loops)


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
