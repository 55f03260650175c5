"""Spectral decompositions, eigenvalue supports and the join rule.

The eigensolver is LAPACK's symmetric solver (numpy.linalg.eigh). Repeated
eigenvalues are grouped by gap, and each distinct eigenvalue keeps the
orthonormal block of eigenvectors that spans its eigenspace. Supports and
sign partitions read rows of those blocks. spectrum() decomposes a graph's
matrix once and caches the result on the (immutable) graph.

JoinParams is the one record of a join, under either matrix, and
join_side the one reader of join vertex numbers. carry_join is the one
place where a part's support or sign partition is carried across a join;
carry_stage takes it across one stage of an iterated plan, and
carry_through_plan folds that over the whole plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import nearest_integer
from .errors import NumericError, PreconditionError
from .graphs import Connective, IteratedJoinSpec, WeightedGraph, is_connected, is_regular, is_simple

_GROUP_GAP_REL = 1e-7
SUPPORT_TOL = 1e-8


def graph_matrix(graph: WeightedGraph, kind: str) -> np.ndarray:
    if kind == "adjacency":
        return graph.adjacency()
    if kind == "laplacian":
        return graph.laplacian()
    raise ValueError(f"unknown matrix kind {kind!r}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending) with an orthonormal eigenbasis of each.

    bases[i] is the n x multiplicities[i] block V_i of eigenvectors, whose
    projector is V_i V_i^T. The matrix and the blocks are read-only arrays,
    because spectrum() hands one cached decomposition to every caller.
    """

    matrix: np.ndarray
    eigenvalues: list[float]
    multiplicities: list[int]
    bases: list[np.ndarray]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def projectors(self) -> list[np.ndarray]:
        """The read-only eigenprojector V_i V_i^T of each eigenvalue, formed on each access."""
        out = [basis @ basis.T for basis in self.bases]
        for proj in out:
            proj.flags.writeable = False
        return out

    def entry_vector(self, u: int, v: int) -> np.ndarray:
        """The (u, v) entry V_i[u] . V_i[v] of each projector, as one array."""
        return np.array([np.dot(basis[u], basis[v]) for basis in self.bases])


def decompose(matrix: np.ndarray) -> SpectralDecomposition:
    mat = np.array(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("decompose expects a square matrix")
    scale = float(np.abs(mat).max())  # NaN if an entry is
    if not scale < math.inf:
        raise ValueError("decompose expects finite entries")
    scale = max(1.0, scale)
    # entries near the float range can give differences, gaps and group means beyond it
    with np.errstate(over="ignore", invalid="ignore"):
        # mat - mat.T is antisymmetric, so its max is its largest magnitude; an
        # overflowing difference is asymmetry too
        asymmetry = float((mat - mat.T).max())
        if asymmetry > 1e-10 * scale:
            raise ValueError("decompose expects a symmetric matrix")
        if asymmetry:  # halve before adding: the sum of two entries near 1e308 overflows
            mat = mat / 2.0 + mat.T / 2.0
        try:
            raw_vals, raw_vecs = np.linalg.eigh(mat)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"the eigensolver failed ({exc}) on\n" + np.array2string(mat)
            ) from exc
        raw_vals = raw_vals[::-1]
        cuts = ((raw_vals[:-1] - raw_vals[1:]) > _GROUP_GAP_REL * scale).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), len(raw_vals)]
        groups = list(zip(bounds, bounds[1:]))
        values = raw_vals.tolist()  # a group of one is its own mean
        eigenvalues = [values[a] if b - a == 1 else _group_mean(raw_vals[a:b]) for a, b in groups]
    # C order: each block's rows are contiguous, so entry_vector's dots run in BLAS
    vectors = np.ascontiguousarray(raw_vecs[:, ::-1])
    for array in (mat, vectors):
        array.flags.writeable = False
    if not (all(map(math.isfinite, eigenvalues)) and np.isfinite(vectors).all()):
        raise ValueError("the matrix entries are too large: its eigenvalues leave the float range")
    multiplicities = [b - a for a, b in groups]
    bases = [vectors[:, a:b] for a, b in groups]
    return SpectralDecomposition(mat, eigenvalues, multiplicities, bases)


def _group_mean(values: np.ndarray) -> float:
    """np.mean of a group of eigenvalues, or twice the mean of their halves
    when only the sum overflows (finite values whose np.mean is not)."""
    mean = float(np.mean(values))
    if not math.isfinite(mean) and np.isfinite(values).all():
        mean = 2.0 * float(np.mean(values / 2.0))
    return mean


def spectrum(graph: WeightedGraph, kind: str) -> SpectralDecomposition:
    """The decomposition of a graph's adjacency or Laplacian matrix.

    It is computed on the first call for each kind and cached on the graph,
    so each (graph, matrix) pair is decomposed once.
    """
    return graph.cached(("spectrum", kind), lambda: decompose(graph_matrix(graph, kind)))


def _norm(row: np.ndarray) -> float:
    """np.linalg.norm of a contiguous real vector: it computes sqrt(row.dot(row))."""
    return math.sqrt(row.dot(row))


def eigenvalue_support(decomp: SpectralDecomposition, u: int) -> list[float]:
    """Eigenvalues whose projector sees vertex u, in descending order: those
    whose basis block's row u has norm ||P_i e_u|| above SUPPORT_TOL."""
    if not 0 <= u < decomp.size:
        raise ValueError(f"vertex {u} out of range")
    return [
        lam for lam, basis in zip(decomp.eigenvalues, decomp.bases) if _norm(basis[u]) > SUPPORT_TOL
    ]


def vertex_supports(decomp: SpectralDecomposition) -> tuple[list[list[float]], np.ndarray]:
    """eigenvalue_support of every vertex, and the weights it reads, in one NumPy pass.

    weights[u, i] = ||V_i[u]||^2, the (u, u) entry of the i-th projector,
    so row u holds what entry_vector(u, u) holds.
    """
    squares = np.hstack(decomp.bases) ** 2
    weights = np.add.reduceat(squares, np.cumsum([0, *decomp.multiplicities[:-1]]), axis=1)
    lams = np.asarray(decomp.eigenvalues)
    return [lams[seen].tolist() for seen in np.sqrt(weights) > SUPPORT_TOL], weights


def strong_cospectral(decomp: SpectralDecomposition, u: int, v: int) -> SupportPartition | None:
    """Sign partition of the common support, or None when the pair fails.

    The pair is strongly cospectral exactly when every projector sends the
    two vertex states to the same vector up to sign. Since
    ||P_i(e_u -+ e_v)|| = ||V_i[u] -+ V_i[v]||, that reads rows u and v of
    each eigenbasis.
    """
    if u == v:
        raise ValueError("strong cospectrality concerns two distinct vertices")
    if not (0 <= u < decomp.size and 0 <= v < decomp.size):
        raise ValueError("vertex out of range")
    plus: list[float] = []
    minus: list[float] = []
    for lam, basis in zip(decomp.eigenvalues, decomp.bases):
        cu = basis[u]
        cv = basis[v]
        if _norm(cu) <= SUPPORT_TOL and _norm(cv) <= SUPPORT_TOL:
            continue
        if _norm(cu - cv) <= SUPPORT_TOL:
            plus.append(lam)
        elif _norm(cu + cv) <= SUPPORT_TOL:
            minus.append(lam)
        else:
            return None
    return SupportPartition(plus, minus)


def _merge_close(values) -> list[float]:
    """Sort descending and merge values that agree within tolerance."""
    ordered = sorted((float(v) for v in values), reverse=True)
    out: list[float] = []
    for v in ordered:
        if out and out[-1] - v <= SUPPORT_TOL * max(1.0, abs(v), abs(out[-1])):
            continue
        out.append(v)
    return out


def _close(a: float, b: float, tol: float = SUPPORT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _contains(values, x: float) -> bool:
    return any(_close(v, x) for v in values)


# ---------------------------------------------------------------------------
# join parameters and the join rule for supports and sign partitions
# ---------------------------------------------------------------------------


class JoinParams(NamedTuple):
    """One join: its part orders, its matrix and its reading as an adjacency-type join.

    Build it with JoinParams.of or join_params. k and ell are the parts'
    regular degrees under the adjacency matrix, None under the Laplacian.
    The join walk at t is e^{it phase_rate} times, at time_sign * t, the
    walk of an adjacency-type join whose left part has the eigenvalue
    distinguished (0 or k) and whose fresh eigenvalues lam_plus and
    lam_minus lie root apart. Into the join, the part's distinguished
    eigenvalue gives way to the fresh pair, (m + n, 0) or (lam_plus,
    lam_minus), and every other part eigenvalue moves by phase_rate.
    offsets are lam_plus - distinguished > 0 and lam_minus - distinguished
    < 0 as exact ints, or None when they are not integers; gap is the
    integer k - ell, or None. Negated and shifted by n, L(X v Y) is the
    adjacency-type join of -L(X) with ell = n - m: its reading is
    (0, n, -m, m + n, -1, n, (n, -m)) in exact ints, and its gap m - n.
    """

    m: int
    n: int
    matrix: str
    k: float | None
    ell: float | None
    distinguished: float
    lam_plus: float | int
    lam_minus: float | int
    root: float | int
    time_sign: int
    phase_rate: int
    offsets: tuple[int, int] | None
    gap: int | None
    fresh: tuple[float, float]

    @classmethod
    def of(
        cls, m: int, n: int, matrix: str, k: float | None = None, ell: float | None = None
    ) -> JoinParams:
        """The record of a join of part orders m and n; k and ell count under adjacency only.

        The adjacency offsets are (r - g) / 2 and -(r + g) / 2 for the
        integer gap g = k - ell and r = isqrt(g^2 + 4mn), when r^2 = g^2 + 4mn.
        """
        if m < 1 or n < 1:
            raise ValueError("join parts must be nonempty")
        if matrix == "laplacian":
            return cls(m, n, matrix, None, None, 0.0, n, -m, m + n, -1, n, (n, -m), m - n,
                       (float(m + n), 0.0))
        if matrix != "adjacency":
            raise ValueError(f"unknown matrix kind {matrix!r}")
        if k is None or ell is None:
            raise ValueError("adjacency join parameters need both degrees")
        root = math.sqrt((k - ell) ** 2 + 4.0 * m * n)
        lam_plus, lam_minus = (k + ell + root) / 2.0, (k + ell - root) / 2.0
        offsets = None
        gap = nearest_integer(float(k) - float(ell))
        if gap is not None:
            d = gap * gap + 4 * m * n
            r = math.isqrt(d)
            if r * r == d:
                offsets = ((r - gap) // 2, -(r + gap) // 2)
        return cls(m, n, matrix, k, ell, float(k), lam_plus, lam_minus, root, 1, 0, offsets, gap,
                   (lam_plus, lam_minus))


def join_params(x: WeightedGraph, y: WeightedGraph, matrix: str) -> JoinParams:
    """The record of join(x, y): Laplacian analyses need simple parts, adjacency ones regular."""
    k = ell = None
    if matrix == "laplacian" and not (is_simple(x) and is_simple(y)):
        raise PreconditionError("Laplacian join analysis requires simple parts")
    if matrix == "adjacency":
        k, ell = is_regular(x), is_regular(y)
        if k is None or ell is None:
            raise PreconditionError("adjacency join analysis requires regular parts")
    return JoinParams.of(x.order, y.order, matrix, k, ell)


def join_side(
    x: WeightedGraph, y: WeightedGraph, u: int, v: int, matrix: str
) -> tuple[JoinParams, WeightedGraph, int, int, bool]:
    """(params, part, u, v, cross): join vertices u and v read on their side of join(x, y).

    u and v index the join: the left part keeps its labels, and w >= m is
    vertex w - m of the right part. A pair on one side is read in its own
    part, which params has on the left: for a right-side pair params is
    the swapped join's record, and u and v are local. A cross pair keeps
    x on the left and its join numbering.
    """
    m = x.order
    if not (0 <= u < m + y.order and 0 <= v < m + y.order):
        raise ValueError("vertex out of range for the join")
    if u >= m and v >= m:
        return join_params(y, x, matrix), y, u - m, v - m, False
    return join_params(x, y, matrix), x, u, v, (u < m) != (v < m)


@dataclass
class SupportPartition:
    """A vertex pair's eigenvalue support split by projector sign.

    A single vertex's support is a partition with an empty minus list.
    """

    plus: list[float]
    minus: list[float]

    @property
    def support(self) -> list[float]:
        return _merge_close(list(self.plus) + list(self.minus))


def carry_join(
    part: SupportPartition | None,
    params: JoinParams,
    connected: bool,
    isolated_pair: bool = False,
) -> SupportPartition | None:
    """The join rule: carry a left part's vertex support or pair partition into the join.

    params describes the join with the part on the left, so m is the
    part's order. The part's distinguished eigenvalue d (0 for the
    Laplacian, k for the adjacency matrix) gives way to the join's fresh
    pair, m + n and 0 or lam_plus and lam_minus, plus its moved self when
    the part is disconnected; every eigenvalue moves by phase_rate (n for
    the Laplacian, 0 for the adjacency matrix). The result is None when
    part is None (the pair is not strongly cospectral within the part) or
    when a flipping eigenvalue lands on a fresh one. The exception is an
    edgeless two-vertex part (isolated_pair), whose pair is never strongly
    cospectral within it but always is in the join: the fresh eigenvalues
    against the moved d.
    """
    d, shift, fresh = params.distinguished, params.phase_rate, list(params.fresh)
    if isolated_pair:
        return SupportPartition(fresh, [d + shift])
    if part is None or any(_contains(part.minus, f - shift) for f in fresh):
        return None
    plus = [lam + shift for lam in part.plus if not _close(lam, d)] + fresh
    if not connected:
        plus.append(d + shift)
    minus = [mu + shift for mu in part.minus]
    return SupportPartition(_merge_close(plus), _merge_close(minus))


def join_support(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    matrix: str = "laplacian",
) -> list[float]:
    """Eigenvalue support of join vertex u, from its part's spectrum alone.

    u indexes the join as join_side reads it. Laplacian analyses need both
    parts simple; adjacency analyses need both parts regular.
    """
    params, part, u, _, _ = join_side(x, y, u, u, matrix)
    return carry_support(eigenvalue_support(spectrum(part, matrix), u), params, is_connected(part))


def carry_support(own: list[float], params: JoinParams, connected: bool) -> list[float]:
    """The join rule for one vertex: its support own in the left part, carried into the join."""
    return carry_join(SupportPartition(own, []), params, connected).plus


# ---------------------------------------------------------------------------
# iterated joins
# ---------------------------------------------------------------------------


def carry_stage(
    state: tuple[SupportPartition | None, int, bool],
    graph: WeightedGraph,
    conn: Connective,
    isolated_pair: bool = False,
) -> tuple[SupportPartition | None, int, bool] | None:
    """Carry a pair partition across one stage after its own part's.

    state is (partition, order, connected): the partition carried so far
    and the order and connectivity of the graph built so far. A union
    leaves the partition alone; a join carries it with the built graph as
    the left side. A None partition is dead and carries nothing, except at
    the join that meets an edgeless first pair (isolated_pair) while the
    built graph is that pair alone. The result is the state after the
    stage, or None when the plan is dead: the built graph then holds more
    than the pair, so no later join can revive it.
    """
    carried, order, connected = state
    side_isolated = isolated_pair and order == 2
    if conn is Connective.JOIN and (carried is not None or side_isolated):
        params = JoinParams.of(order, graph.order, "laplacian")
        carried = carry_join(carried, params, connected, side_isolated)
    if carried is None:
        return None
    return carried, order + graph.order, conn is Connective.JOIN


def carry_through_plan(
    spec: IteratedJoinSpec,
    j: int,
    own: SupportPartition | None,
    isolated_pair: bool = False,
) -> SupportPartition | None:
    """Carry part j's Laplacian support or pair partition through the build.

    Stages before j carry nothing. At stage j a union keeps own, and a join
    carries it with part j as the left side against the graph built so
    far. Each later stage goes through carry_stage, so a dead plan stops at
    its first dead stage. isolated_pair says part j is an edgeless
    two-vertex part and own is the partition of its pair.
    """
    graph, conn = spec.parts[j - 1]
    order = sum(g.order for g, _ in spec.parts[: j - 1])
    if conn is Connective.JOIN:
        params = JoinParams.of(graph.order, order, "laplacian")
        own = carry_join(own, params, is_connected(graph), isolated_pair)
    state = (own, order + graph.order, is_connected(graph) if j == 1 else conn is Connective.JOIN)
    for graph, conn in spec.parts[j:]:
        state = carry_stage(state, graph, conn, isolated_pair)
        if state is None:
            return None
    return state[0]


def laplacian_plan_part(spec: IteratedJoinSpec, j: int, *vertices: int) -> WeightedGraph:
    """spec.part(j, *vertices) of a plan for Laplacian analysis, whose parts must all be simple."""
    part = spec.part(j, *vertices)
    for graph, _ in spec.parts:
        if not is_simple(graph):
            raise PreconditionError("Laplacian join analysis requires simple parts")
    return part


def iterated_join_support(
    spec: IteratedJoinSpec,
    j: int,
    u: int,
    matrix: str = "laplacian",
) -> list[float]:
    """Support of vertex u of part j in the iterated join, via the fold.

    The support is carried through the build one stage at a time: a disjoint
    union leaves it alone and marks the accumulated graph disconnected, a
    join shifts the nonzero part and contributes the fresh extremes.
    """
    if matrix != "laplacian":
        raise PreconditionError(
            "iterated join supports are provided for the Laplacian only"
        )
    own = eigenvalue_support(spectrum(laplacian_plan_part(spec, j, u), "laplacian"), u)
    return carry_through_plan(spec, j, SupportPartition(own, [])).plus
