"""Weighted graphs, named families, and the join constructions.

Vertices are 0..order-1. Edges carry positive real weights; loops carry
nonzero real weights and only matter for adjacency-matrix analyses (the
Laplacian routines require simple graphs). A graph is its order and the
arrays of its edges and loops, in the order they were given; every
numeric path reads the arrays. When two graphs are joined, the left
operand keeps its vertex labels and the right operand is shifted, so
vertex u of X is vertex u of join(X, Y).

equitable_partition finds, by colour refinement and an exact check, the
coarsest equitable partition of a graph in which one vertex is a cell of
its own; the walk from that vertex is constant on every cell.

A JoinTree keeps a join or union as structure instead of an edge list.
Seen from one vertex, the rest of a join acts through all-ones blocks
only, so equitable_quotient gives a tree's quotient at that vertex, whose
order is the number of cells of the vertex's part plus the nesting depth,
as a dense matrix, without building the join; a graph's quotient is its
partition's block.
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


def _table(items, width: int) -> np.ndarray:
    """items as a new float array, of shape (N, width) unless empty; raises on other shapes."""
    table = np.array(items if isinstance(items, np.ndarray) else list(items), dtype=float)
    if len(table) and (table.ndim != 2 or table.shape[1] != width):
        raise ValueError(f"expected items of {width} entries, got an array of shape {table.shape}")
    return table


def _repeats(keys) -> np.ndarray:
    """Which items have the key of an earlier item; an item's key is its entry in each of keys."""
    by_key = np.lexsort(keys[::-1])  # stable, so a key's copies keep their order
    tied = functools.reduce(np.logical_and, [key[by_key[1:]] == key[by_key[:-1]] for key in keys])
    out = np.zeros(len(by_key), dtype=bool)
    out[by_key[1:][tied]] = True
    return out


def _first_fault(faults) -> tuple[int, int] | None:
    """(check, item) of the first failure, checking item by item, each check in turn.

    faults holds a mask per check. A last check for repeats may flag items that
    repeat a failing item: such an item never fails first.
    """
    failed = functools.reduce(np.logical_or, faults)
    if not failed.any():
        return None
    i = int(failed.argmax())
    return next(check for check, mask in enumerate(faults) if mask[i]), i


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the columns of every graph with no edges or no loops: read-only, so shared
_NO_VERTICES = _read_only(np.empty(0, np.intp))
_NO_WEIGHTS = _read_only(np.empty(0))


def _edge_columns(order: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns (row < column) and weights of (u, v, w) edges, in the given order."""
    table = _table(edges, 3)
    if not len(table):  # most graphs that searches build are edgeless
        return _NO_VERTICES, _NO_VERTICES, _NO_WEIGHTS
    u, v, weights = np.trunc(table[:, 0]), np.trunc(table[:, 1]), table[:, 2]  # as int() does
    lo, hi = np.minimum(u, v), np.maximum(u, v)  # NaN if u or v is
    positive = (weights > 0) & (weights < math.inf)
    fault = _first_fault([~((lo >= 0) & (hi < order)), u == v, ~positive, _repeats([lo, hi])])
    if fault is not None:
        check, i = fault
        u, v, w = int(u[i]), int(v[i]), float(weights[i])
        raise ValueError((
            f"edge ({u},{v}) out of range for order {order}",
            f"loop ({u},{u}) must be supplied via loops, not edges",
            f"edge ({u},{v}) needs a positive finite weight, got {w}",
            f"duplicate edge {(min(u, v), max(u, v))}",
        )[check])
    rows, cols = _read_only(np.array((lo, hi), dtype=np.intp))  # rows of a read-only array
    return rows, cols, _read_only(np.ascontiguousarray(weights))


def _loop_columns(order: int, loops) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and weights of (v, w) loops, or of a {v: w} dict, in the given order."""
    table = _table(loops.items() if isinstance(loops, dict) else loops, 2)
    if not len(table):
        return _NO_VERTICES, _NO_WEIGHTS
    at, weights = np.trunc(table[:, 0]), table[:, 1]
    nonzero = (weights != 0) & (np.abs(weights) < math.inf)
    fault = _first_fault([~((at >= 0) & (at < order)), ~nonzero, _repeats([at])])
    if fault is not None:
        check, i = fault
        v, w = int(at[i]), float(weights[i])
        raise ValueError((
            f"loop vertex {v} out of range for order {order}",
            f"loop at {v} needs a nonzero finite weight, got {w}",
            f"duplicate loop at {v}",
        )[check])
    return _read_only(at.astype(np.intp)), _read_only(np.ascontiguousarray(weights))


class WeightedGraph:
    """An undirected weighted graph with optional loops; immutable.

    rows, cols (rows < cols) and weights hold the edges, loop_at and
    loop_weights the loops, as read-only arrays in the order given. edges
    ({(row, col): weight}) and loops ({vertex: weight}) are read-only
    mappings of them, built on first read. The matrices and degrees are
    built on first use and cached on the graph as read-only arrays;
    connectivity and regularity (is_connected, is_regular) are kept the
    same way, and spectral.spectrum caches decompositions.
    """

    __slots__ = ("order", "rows", "cols", "weights", "loop_at", "loop_weights", "_cache")

    def __init__(self, order: int, edges=(), loops=()):
        order = int(order)
        if order < 1:
            raise ValueError("a graph needs at least one vertex")
        rows, cols, weights = _edge_columns(order, edges)
        loop_at, loop_weights = _loop_columns(order, loops)
        put = object.__setattr__
        put(self, "order", order)
        put(self, "rows", rows)
        put(self, "cols", cols)
        put(self, "weights", weights)
        put(self, "loop_at", loop_at)
        put(self, "loop_weights", loop_weights)
        put(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightedGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"WeightedGraph is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.order, self.edges, self.loops) == (other.order, other.edges, other.loops)

    def __repr__(self) -> str:
        edges, loops = len(self.weights), len(self.loop_weights)
        return f"WeightedGraph(order={self.order}, edges={edges}, loops={loops})"

    def cached(self, key, build):
        """build(), computed on the first call for key and kept on this graph."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def edges(self) -> MappingProxyType:
        def build():
            ends = zip(self.rows.tolist(), self.cols.tolist())
            return MappingProxyType(dict(zip(ends, self.weights.tolist())))

        return self.cached("edges", build)

    @property
    def loops(self) -> MappingProxyType:
        def build():
            return MappingProxyType(dict(zip(self.loop_at.tolist(), self.loop_weights.tolist())))

        return self.cached("loops", build)

    def weight(self, u: int, v: int) -> float:
        if u == v:
            return self.loops.get(u, 0.0)
        return self.edges.get((min(u, v), max(u, v)), 0.0)

    def degree(self, u: int) -> float:
        """Weighted degree: twice the loop weight plus incident edge weights."""
        if not 0 <= u < self.order:
            raise ValueError(f"vertex {u} out of range for order {self.order}")
        return float(self.degrees()[u])

    def degrees(self) -> np.ndarray:
        """All weighted degrees, as a read-only vector."""

        def build():
            with np.errstate(over="ignore"):  # a row past the float range sums to inf
                out = self._edge_product(np.ones(self.order))
                out[self.loop_at] += 2.0 * self.loop_weights
            return _read_only(out)

        return self.cached("degrees", build)

    def _edge_product(self, x: np.ndarray) -> np.ndarray:
        """The edges' part of the adjacency matrix times x, loops left out."""
        if not len(self.weights):  # cones over edgeless graphs skip the edge pass
            return np.zeros(self.order)
        out = np.bincount(self.rows, self.weights * x[self.cols], self.order)
        out += np.bincount(self.cols, self.weights * x[self.rows], self.order)
        return out

    def _is_laplacian(self, kind: str) -> bool:
        """Whether kind names the Laplacian; raises unless the product kind applies."""
        if kind not in ("adjacency", "laplacian"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        if kind == "laplacian" and len(self.loop_at):
            raise PreconditionError("the Laplacian is defined here for simple graphs only")
        return kind == "laplacian"

    def _product(self, x: np.ndarray) -> np.ndarray:
        """The adjacency matrix, loops included, times a float vector of shape (order,)."""
        out = self._edge_product(x)
        out[self.loop_at] += self.loop_weights * x[self.loop_at]
        return out

    def adjacency(self) -> np.ndarray:
        """The adjacency matrix, as a read-only array."""

        def build():
            a = np.zeros((self.order, self.order))
            a[self.rows, self.cols] = a[self.cols, self.rows] = self.weights
            a[self.loop_at, self.loop_at] = self.loop_weights
            return _read_only(a)

        return self.cached("adjacency", build)

    def laplacian(self) -> np.ndarray:
        """The Laplacian matrix of a simple graph, as a read-only array."""
        self._is_laplacian("laplacian")
        return self.cached(
            "laplacian", lambda: _read_only(np.diag(self.degrees()) - self.adjacency())
        )


def is_simple(graph: WeightedGraph) -> bool:
    return not len(graph.loop_at)


def is_regular(graph: WeightedGraph, tol: float = 1e-12) -> float | None:
    """Common adjacency row sum if the graph is regular, else None.

    Computed once per tol and cached on the graph. Row sums past the float
    range compare as NaN, so such a graph is not regular.
    """

    def build():
        with np.errstate(over="ignore", invalid="ignore"):
            sums = graph._product(np.ones(graph.order))
            k = float(sums[0])
            scale = max(1.0, float(np.abs(sums).max()))
            return k if np.max(np.abs(sums - k)) <= tol * scale else None

    return graph.cached(("regular", tol), build)


def _component_labels(graph: WeightedGraph) -> np.ndarray:
    """Each vertex's label, the least vertex of its connected component.

    Every vertex starts as the root of its own label. Each round hooks
    every root to the least root across an edge from it, then jumps each
    vertex to its root, until no edge joins two labels. Hooks only point
    down, so no cycle forms, and each round with an edge between two
    labels removes a root. A walk of one BFS level per round would take
    a round per step along a long path; the jumps take a path whole.
    """
    ends = np.concatenate((graph.rows, graph.cols))
    across = np.concatenate((graph.cols, graph.rows))
    label = np.arange(graph.order)
    mine, theirs = ends, across  # the labels at each edge's ends
    while not (mine == theirs).all():
        np.minimum.at(label, mine, theirs)
        jumped = label[label]
        while not (jumped == label).all():
            label, jumped = jumped, jumped[jumped]
        mine, theirs = label[ends], label[across]
    return label


def is_connected(graph: WeightedGraph) -> bool:
    """Whether the graph is connected; computed once and cached on the graph.

    Below order - 1 edges it is not (most searched parts are edgeless), and
    above (order - 1)(order - 2)/2, the edges of K_{order-1} beside an
    isolated vertex, it is; only the counts in between label the components.
    """
    edges, n = len(graph.weights), graph.order
    return graph.cached("connected", lambda: edges >= n - 1 and (
        2 * edges > (n - 1) * (n - 2) or not _component_labels(graph).any()))


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def _count(value) -> int:
    """A family parameter that counts something: an integer, or a float equal to one."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"a family count must be an integer, got {value!r}")
    return int(value)


def _unit_edges(rows, cols) -> np.ndarray:
    """The edges (rows[i], cols[i]) of weight 1, as an (N, 3) array."""
    return np.column_stack((rows, cols, np.ones(len(rows))))


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (u, v) with 0 <= u < v < n, row by row, as two arrays."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


def _cross_edges(lo: int, mid: int, hi: int) -> np.ndarray:
    """Every edge from lo..mid-1 to mid..hi-1, of weight 1, row by row."""
    rows = np.repeat(np.arange(lo, mid), hi - mid)
    return _unit_edges(rows, np.tile(np.arange(mid, hi), mid - lo))


def family(name: str, *params) -> WeightedGraph:
    """Build a named unweighted family member.

    Names: O n (empty), O_loops n k (empty with weight-k loops), K n
    (complete), P n (path), C n (cycle, n >= 3), CP m (complete minus a
    perfect matching pairing i with i+m/2), Q p (p-cube), K_minus_e d
    (complete on d vertices minus one edge, the nonadjacent pair first),
    K_bipartite a b (complete bipartite).
    """
    if name == "O":
        (n,) = map(_count, params)
        return WeightedGraph(n)
    if name == "O_loops":
        n, k = params
        n = _count(n)
        vertices = np.arange(n)
        return WeightedGraph(n, loops=np.column_stack((vertices, np.full_like(vertices, k, float))))
    if name == "K":
        (n,) = map(_count, params)
        return WeightedGraph(n, _unit_edges(*_pairs(n)))
    if name == "P":
        (n,) = map(_count, params)
        return WeightedGraph(n, _unit_edges(np.arange(n - 1), np.arange(1, n)))
    if name == "C":
        (n,) = map(_count, params)
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return WeightedGraph(n, _unit_edges(np.arange(n), (np.arange(n) + 1) % n))
    if name == "CP":
        (m,) = map(_count, params)
        if m < 2 or m % 2:
            raise ValueError("the cocktail party graph needs an even order >= 2")
        rows, cols = _pairs(m)
        kept = cols - rows != m // 2
        return WeightedGraph(m, _unit_edges(rows[kept], cols[kept]))
    if name == "Q":
        (p,) = map(_count, params)
        if p < 0:
            raise ValueError("the cube dimension must be nonnegative")
        # u ~ u ^ 2**b for each bit b clear in u, u by u and b by b
        rows, bits = np.nonzero(((np.arange(1 << p)[:, None] >> np.arange(p)) & 1) == 0)
        return WeightedGraph(1 << p, _unit_edges(rows, rows ^ (1 << bits)))
    if name == "K_minus_e":
        (d,) = map(_count, params)
        if d < 3:
            raise ValueError("complete-minus-an-edge needs at least 3 vertices")
        return join(family("O", 2), family("K", d - 2))
    if name == "K_bipartite":
        a, b = map(_count, params)
        if a < 0 or b < 0:
            raise ValueError("the sides of a complete bipartite graph must be nonnegative")
        return WeightedGraph(a + b, _cross_edges(0, a, a + b))
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# join constructions
# ---------------------------------------------------------------------------


def join(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Join of two graphs: every cross pair gets an edge of weight 1."""
    return JoinTree(Connective.JOIN, (x, y)).build()


def disjoint_union(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    return JoinTree(Connective.UNION, (x, y)).build()


def _cell_weights(rng: np.random.Generator, count: int) -> np.ndarray:
    """One random integer per cell, as floats: a refinement round's hash weights.

    Integers keep a vertex's hash, the sum of its edge weights times its
    neighbours' cell weights, exact for integer and dyadic edge weights, so
    vertices alike in the partition hash alike whatever the order of their
    edges.
    """
    return rng.integers(1, 1 << 31, count).astype(float)


def _cell_rows(graph: WeightedGraph, cell: np.ndarray, count: int):
    """Each vertex's nonzero weight into each cell, loops included, sorted by vertex, then cell.

    Three arrays: the vertex, the cell and the weight, summed over the
    vertex's edges into that cell.
    """
    ends = np.concatenate((graph.rows, graph.cols, graph.loop_at))
    across = np.concatenate((graph.cols, graph.rows, graph.loop_at))
    weights = np.concatenate((graph.weights, graph.weights, graph.loop_weights))
    keys = ends * count + cell[across]
    by_key = np.argsort(keys, kind="stable")
    keys = keys[by_key]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(weights[by_key], starts) if len(keys) else weights
    keys = keys[starts][sums != 0]
    return keys // count, keys % count, sums[sums != 0]


@dataclass(frozen=True, eq=False)
class EquitablePartition:
    """An equitable partition of a graph's vertices, and its symmetrized quotient.

    cell[x] is the cell of vertex x, cells numbered in the order of their
    first vertices, and sizes[a] the size of cell a. With Q_ab the weight
    from any vertex of cell a into cell b, block is the graph on the cells
    with an edge of weight Q_ab sqrt(s_a / s_b) between cells a < b and a
    loop Q_aa at a, so that its adjacency matrix is P^T A P for P the
    cells' normalized indicators; laplacian_diagonal holds a cell's degree
    minus Q_aa, the diagonal of P^T L P. A partition into single vertices
    keeps the graph itself as its block.
    """

    cell: np.ndarray
    sizes: np.ndarray
    block: WeightedGraph
    laplacian_diagonal: np.ndarray


def _refine(graph: WeightedGraph, u: int) -> EquitablePartition:
    """The coarsest equitable partition with u alone in its cell; see equitable_partition."""
    n = graph.order
    rng = np.random.default_rng(u)
    cell = (np.arange(n) == u).astype(np.intp)
    count = min(n, 2)
    while count < n:
        while True:  # colour refinement: split by hashed rows until a round splits nothing
            # a hash past the float range (weights above about 8e298) is
            # NaN, which splits its vertex off; the exact check below still
            # proves the cells
            with np.errstate(over="ignore", invalid="ignore"):
                hashed = graph._product(_cell_weights(rng, count)[cell])
                keys = cell + 1j * hashed
            _, cell = np.unique(keys, return_inverse=True, equal_nan=False)
            split, count = count, int(cell.max()) + 1
            if count == split or count == n:
                break
        if count == n:
            break
        vertex, into, weight = _cell_rows(graph, cell, count)
        _, first = np.unique(cell, return_index=True)  # the least vertex of each cell
        per = np.bincount(vertex, minlength=n)
        start = np.cumsum(per) - per
        mine = first[cell[vertex]]
        offset = np.arange(len(vertex)) - start[vertex]
        partner = np.where(offset < per[mine], start[mine] + offset, 0)
        differs = (offset >= per[mine]) | (into != into[partner]) | (weight != weight[partner])
        unlike = (per != per[first[cell]]) | (np.bincount(vertex, differs, n) > 0)
        if not unlike.any():  # exactly equitable: every row equals its first vertex's
            break
        # a hash collision merged unlike rows: split them from their cell's first vertex
        _, cell = np.unique(cell * 2 + unlike, return_inverse=True)
        count = int(cell.max()) + 1
    if count == n:  # one cell per vertex: the graph is its own block
        return EquitablePartition(
            np.arange(n), np.ones(n, np.intp), graph, graph.degrees())
    _, first, inverse = np.unique(cell, return_index=True, return_inverse=True)
    rank = np.empty(count, np.intp)
    rank[np.argsort(first)] = np.arange(count)  # number the cells by their first vertex
    first = np.sort(first)
    cell = rank[inverse]
    sizes = np.bincount(cell, minlength=count)
    at_first = (np.arange(n) == first[cell])[vertex]
    a, b, q = cell[vertex[at_first]], rank[into[at_first]], weight[at_first]
    upper, inner = a < b, a == b
    weights = q[upper] * np.sqrt(sizes[a[upper]] / sizes[b[upper]])
    diagonal = np.zeros(count)
    diagonal[a[inner]] = q[inner]
    block = WeightedGraph(count, np.column_stack((a[upper], b[upper], weights)),
                          np.column_stack((a[inner], q[inner])))
    return EquitablePartition(
        cell, sizes, block, graph.degrees()[first] - diagonal)


def equitable_partition(graph: WeightedGraph, u: int) -> EquitablePartition:
    """The coarsest equitable partition of the graph in which u is a cell of its own.

    A partition is equitable when every vertex of a cell a has the same
    weight Q_ab into each cell b, loops counted once in their own cell.
    Then M P = P Q for the characteristic matrix P under the adjacency
    matrix and, since a degree is a row's sum, under the Laplacian, so
    exp(itM)e_u is constant on every cell (Godsil & Royle, Algebraic Graph
    Theory, 2001, section 9.3).

    Colour refinement proposes the partition: each round gives every cell
    a random integer weight, hashes each vertex by the adjacency product
    of those weights (one bincount over the edges), and splits cells by
    their hashes with one np.unique, until a round splits nothing. An
    exact check then proves it: each vertex's weights into the cells,
    summed per cell, must equal those of its cell's first vertex. A hash
    collision that merged unlike vertices fails the check; they are split
    from the first vertex and refinement resumes. One cell per vertex is
    always equitable, so a graph with no symmetry ends there. A vertex
    whose hash leaves the float range (edge weights above about 8e298)
    hashes to NaN and gets a cell of its own, so the partition may then be
    finer than the coarsest, but the check still proves it equitable. The
    result is computed once per vertex and kept on the graph.
    """
    if not 0 <= u < graph.order:
        raise ValueError(f"vertex {u} out of range for order {graph.order}")
    return graph.cached(("equitable_partition", u), lambda: _refine(graph, u))


@dataclass(eq=False)
class _Quotient:
    """A tree's symmetrized equitable quotient B at a vertex, and where its cells lie.

    Cells 0..l-1 are the cells of partition, the equitable partition of
    the leaf that holds the vertex with the vertex in a cell of its own;
    the leaf's first vertex in the tree is leaf. A graph is a tree of
    depth 0: its own leaf, at 0, with no ancestors. Cell l + i holds the
    other children of the i-th ancestor, root first, which spans the
    vertices lo..hi-1 and whose cell has size vertices. With r_i the
    square root of that size, j_i = joins[i] (1 for a join, 0 for a union),
    sigma = -1 under the Laplacian, +1 under the adjacency matrix, and s_a
    the size of leaf cell a, B holds: the partition's block with shift
    added to its diagonal; diagonal[i] at cell l + i; sigma j_i r_i
    sqrt(s_a) between cell l + i and leaf cell a; and sigma j_i r_i r_k
    between cells l + i and l + k for k > i.
    """

    partition: EquitablePartition
    laplacian: bool
    shift: int
    joins: list[bool]
    diagonal: list[float]
    leaf: int
    ancestors: tuple[tuple[int, int, int], ...]  # (lo, hi, size), root first

    @property
    def order(self) -> int:
        return self.partition.block.order + len(self.ancestors)

    def matrix(self) -> np.ndarray:
        """B as a dense array: its upper triangle, then mirrored."""
        block, l, q = self.partition.block, self.partition.block.order, self.order
        sign = -1.0 if self.laplacian else 1.0
        roots = np.sqrt(self.partition.sizes.tolist() + [size for *_, size in self.ancestors])
        b = np.zeros((q, q))
        if len(block.weights):  # an edgeless leaf block writes nothing
            b[block.rows, block.cols] = sign * block.weights
        for i, joined in enumerate(self.joins):
            if joined:  # all of the leaf and of every deeper cell
                c = l + i
                coupling = sign * roots[c]
                b[:l, c] = coupling * roots[:l]
                if c + 1 < q:  # the deepest cell has none deeper
                    b[c, c + 1:] = coupling * roots[c + 1:]
        b += b.T
        if self.laplacian:
            b.flat[: l * (q + 1) : q + 1] = self.partition.laplacian_diagonal + self.shift
        else:
            b[block.loop_at, block.loop_at] = block.loop_weights
        b.flat[l * (q + 1) :: q + 1] = self.diagonal
        return b

    def cell(self, v: int) -> tuple[int, int]:
        """The index and the size of the cell that holds vertex v."""
        partition = self.partition
        if self.leaf <= v < self.leaf + len(partition.cell):
            a = int(partition.cell[v - self.leaf])
            return a, int(partition.sizes[a])
        l = partition.block.order
        for i in range(len(self.ancestors) - 1, -1, -1):  # the deepest range holding v
            lo, hi, size = self.ancestors[i]
            if lo <= v < hi:
                return l + i, size
        raise ValueError(f"vertex {v} is outside the tree")


def _common(values) -> float | None:
    """The one value all of values share, or None if they differ or one is None."""
    first = values[0]
    return None if first is None or any(x != first for x in values) else first


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
            known[id(node)] = is_regular(node, 0.0)
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
    materializes the graph; equitable_quotient(tree, u, kind) gives the
    equitable quotient at u, of order (cells of u's leaf) + depth, that
    krylov_entry exponentiates whole in place of the built graph's matrix.
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

    def build(self) -> WeightedGraph:
        """The graph itself; join and disjoint_union build through it.

        Each node folds its children left to right: a child's edges, then,
        at a join, the edges from every earlier child's vertex to it, so
        the edges and loops of a nested tree come out in the order that
        folding join and disjoint_union node by node gives. The chunks of
        edge and loop arrays are listed in the built graph's numbering and
        joined once, so a plan builds in time linear in its edges.
        """
        built: list[tuple[list, list]] = []
        for node, lo in self._postorder():
            if isinstance(node, WeightedGraph):
                built.append((
                    [np.column_stack((node.rows + lo, node.cols + lo, node.weights))],
                    [np.column_stack((node.loop_at + lo, node.loop_weights))],
                ))
                continue
            count = len(node.children)
            (edges, loops), *rest = built[-count:]
            at = lo + node.children[0].order
            for child, (more, more_loops) in zip(node.children[1:], rest):
                edges += more
                if node.connective is Connective.JOIN:
                    edges.append(_cross_edges(lo, at, at + child.order))
                loops += more_loops
                at += child.order
            built[-count:] = [(edges, loops)]
        edges, loops = built[0]
        return WeightedGraph(self.order, np.concatenate(edges), np.concatenate(loops))


def _leaves(root):
    """Each distinct leaf graph of a tree or graph once, however often the tree repeats it."""
    seen: set[int] = set()
    pending: list = [root]
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, WeightedGraph):
            yield node
        else:
            pending.extend(node.children)


def equitable_quotient(root, u: int, kind: str) -> _Quotient | None:
    """The symmetrized equitable quotient of a tree's or graph's matrix at vertex u, or None.

    The cells are those of equitable_partition on u's leaf, with u in a
    cell of its own, and for every ancestor of that leaf the ancestor's
    other children; a graph is a tree of depth 0, its own leaf with no
    ancestors, so its quotient is its partition's block. Every vertex of
    an ancestor's cell sees each other cell through all-ones blocks only:
    under a join it is adjacent to all of a cell deeper than its own, and
    to all of the ones whose ancestor is a join above it; a leaf cell sees
    them the same way. So the partition is equitable, and the walk from
    e_u stays constant on every cell. With P the cells' normalized
    indicators, B = P^T M P couples cells of sizes s_a, s_b by
    -+sqrt(s_a s_b) under a join (minus for the Laplacian) and not at all
    under a union, holds the leaf's block within the leaf, and
    exp(itM)[v, u] = exp(itB)[cell(v), cell(u)] / sqrt(|cell(v)|).

    It reads the orders and the leaf's partition; under the adjacency
    matrix the other children must also be regular, with one row sum per
    cell, since a cell's own row sum is its diagonal. The kind, and
    loops under the Laplacian anywhere in the tree, are checked first.
    None when a cell is not regular, whatever the quotient's order; a
    graph always has a quotient.
    """
    laplacian = all([leaf._is_laplacian(kind) for leaf in _leaves(root)])  # checks each leaf
    path = []  # (ancestor, its first vertex, index of the child holding u)
    node, lo = root, 0
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
    partition = equitable_partition(node, u - lo)
    return _Quotient(partition, laplacian, seen, joins, diagonal, lo, ancestors)


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

    def part(self, j: int, *vertices: int) -> WeightedGraph:
        """Part j (1-based), once j and each of the part-local vertices are checked in range."""
        if not 1 <= j <= len(self.parts):
            raise ValueError(f"part index {j} out of range")
        part = self.parts[j - 1][0]
        for u in vertices:
            if not 0 <= u < part.order:
                raise ValueError(f"vertex {u} out of range for part {j}")
        return part


def iterated_vertex(spec: IteratedJoinSpec, j: int, u: int) -> int:
    """Global index of vertex u of part j (1-based) in the built graph."""
    spec.part(j, u)
    return sum(g.order for g, _ in spec.parts[: j - 1]) + u


def iterated_tree(spec: IteratedJoinSpec) -> JoinTree:
    """The plan as a left-nested JoinTree, numbered as iterated_vertex numbers it."""
    acc = spec.parts[0][0]
    for graph, conn in spec.parts[1:]:
        acc = JoinTree(conn, (acc, graph))
    return acc


def iterated_join(spec: IteratedJoinSpec) -> WeightedGraph:
    return iterated_tree(spec).build()


_FAMILY_TOKEN = re.compile(r"^(O_loops|K_minus_e|CP|O|K|P|C|Q)(\d+)$")
_JOIN_TOKENS = {"∨", "v", "join"}
_UNION_TOKENS = {"∪", "u", "union"}


def parse_family_token(token: str) -> WeightedGraph | None:
    """The graph a compact token such as "K4" or "K_minus_e5" names, else None.

    O_loops raises ValueError: its loop weight needs the form "O_loops n k".
    """
    match = _FAMILY_TOKEN.match(token)
    if match is None:
        return None
    name = match.group(1)
    if name == "O_loops":
        raise ValueError(f"{token!r} has no loop weight; write O_loops as \"O_loops n k\"")
    return family(name, int(match.group(2)))


def parse_iterated_spec(text: str) -> IteratedJoinSpec:
    """Parse a plan like "O2 ∨ K2 ∪ O1 ∨ K3" (ASCII v / u also accepted)."""
    tokens = text.split()
    if not tokens or len(tokens) % 2 == 0:
        raise ValueError(f"malformed iterated-join plan {text!r}")
    parts: list[tuple[WeightedGraph, Connective | None]] = []
    conn: Connective | None = None
    for i, tok in enumerate(tokens):
        if i % 2 == 0:
            if tok.startswith("O_loops"):
                raise ValueError(f"plan parts must be simple graphs, got {tok!r}")
            graph = parse_family_token(tok)
            if graph is None:
                raise ValueError(f"unknown graph token {tok!r}")
            parts.append((graph, conn))
        else:
            if tok in _JOIN_TOKENS:
                conn = Connective.JOIN
            elif tok in _UNION_TOKENS:
                conn = Connective.UNION
            else:
                raise ValueError(f"unknown connective {tok!r}")
    return IteratedJoinSpec(parts)
