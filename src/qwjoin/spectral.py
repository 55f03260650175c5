"""Spectral decompositions, eigenvalue supports and the join rule.

The eigensolver is LAPACK's symmetric solver (numpy.linalg.eigh). Repeated
eigenvalues are grouped by gap, and each distinct eigenvalue keeps the
orthonormal block of eigenvectors that spans its eigenspace. Supports and
sign partitions read rows of those blocks. spectrum() decomposes a graph's
matrix once and caches the result on the (immutable) graph.

carry_join is the one place where a part's support or sign partition is
carried across a join; carry_stage takes it across one stage of an
iterated plan, and carry_through_plan folds that over the whole plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .graphs import Connective, IteratedJoinSpec, WeightedGraph, is_connected, is_regular

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
    if not np.all(np.isfinite(mat)):
        raise ValueError("decompose expects finite entries")
    scale = max(1.0, float(np.abs(mat).max()))
    with np.errstate(over="ignore"):  # an overflowing difference is asymmetry too
        if float(np.abs(mat - mat.T).max()) > 1e-10 * scale:
            raise ValueError("decompose expects a symmetric matrix")
    if not np.array_equal(mat, mat.T):
        # halve before adding: the sum of two entries near 1e308 overflows
        mat = mat / 2.0 + mat.T / 2.0
    try:
        raw_vals, raw_vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"the eigensolver failed ({exc}) on\n" + np.array2string(mat)
        ) from exc
    raw_vals = raw_vals[::-1]
    # C order: each block's rows are contiguous, so entry_vector's dots run in BLAS
    vectors = np.ascontiguousarray(raw_vecs[:, ::-1])
    for array in (mat, vectors):
        array.flags.writeable = False
    # entries near the float range can give gaps and group means beyond it
    with np.errstate(over="ignore", invalid="ignore"):
        cuts = np.flatnonzero(raw_vals[:-1] - raw_vals[1:] > _GROUP_GAP_REL * scale) + 1
        groups = list(zip([0, *cuts.tolist()], [*cuts.tolist(), len(raw_vals)]))
        eigenvalues = [float(np.mean(raw_vals[a:b])) for a, b in groups]
    if not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(vectors))):
        raise ValueError("the matrix entries are too large: its eigenvalues leave the float range")
    multiplicities = [b - a for a, b in groups]
    bases = [vectors[:, a:b] for a, b in groups]
    return SpectralDecomposition(mat, eigenvalues, multiplicities, bases)


def spectrum(graph: WeightedGraph, kind: str) -> SpectralDecomposition:
    """The decomposition of a graph's adjacency or Laplacian matrix.

    It is computed on the first call for each kind and cached on the graph,
    so each (graph, matrix) pair is decomposed once.
    """
    return graph.cached(("spectrum", kind), lambda: decompose(graph_matrix(graph, kind)))


def eigenvalue_support(decomp: SpectralDecomposition, u: int) -> list[float]:
    """Eigenvalues whose projector sees vertex u, in descending order."""
    if not 0 <= u < decomp.size:
        raise ValueError(f"vertex {u} out of range")
    return [
        lam
        for lam, basis in zip(decomp.eigenvalues, decomp.bases)
        if float(np.linalg.norm(basis[u])) > SUPPORT_TOL
    ]


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
        if np.linalg.norm(cu) <= SUPPORT_TOL and np.linalg.norm(cv) <= SUPPORT_TOL:
            continue
        if np.linalg.norm(cu - cv) <= SUPPORT_TOL:
            plus.append(lam)
        elif np.linalg.norm(cu + cv) <= SUPPORT_TOL:
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


@dataclass(frozen=True)
class JoinParams:
    """Orders and (for adjacency analyses) regularity data of a join."""

    m: int
    n: int
    k: float | None = None
    ell: float | None = None

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("join parts must be nonempty")
        if (self.k is None) != (self.ell is None):
            raise ValueError("supply both degrees or neither")

    def _need_degrees(self) -> tuple[float, float]:
        if self.k is None or self.ell is None:
            raise ValueError("adjacency join parameters need both degrees")
        return self.k, self.ell

    @property
    def discriminant(self) -> float:
        k, ell = self._need_degrees()
        return (k - ell) ** 2 + 4.0 * self.m * self.n

    @property
    def lam_plus(self) -> float:
        k, ell = self._need_degrees()
        return (k + ell + math.sqrt(self.discriminant)) / 2.0

    @property
    def lam_minus(self) -> float:
        k, ell = self._need_degrees()
        return (k + ell - math.sqrt(self.discriminant)) / 2.0


def join_params(x: WeightedGraph, y: WeightedGraph, matrix: str) -> JoinParams:
    if matrix == "laplacian":
        if not (x.loops == {} and y.loops == {}):
            raise PreconditionError("Laplacian join analysis requires simple parts")
        return JoinParams(x.order, y.order)
    if matrix == "adjacency":
        k = is_regular(x)
        ell = is_regular(y)
        if k is None or ell is None:
            raise PreconditionError("adjacency join analysis requires regular parts")
        return JoinParams(x.order, y.order, k, ell)
    raise ValueError(f"unknown matrix kind {matrix!r}")


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
    matrix: str,
    connected: bool,
    isolated_pair: bool = False,
) -> SupportPartition | None:
    """The join rule: carry a left part's vertex support or pair partition into the join.

    params describes the join with the part on the left, so m is the
    part's order. Let d be the part's distinguished eigenvalue, 0 for the
    Laplacian and k for the adjacency matrix. Every other eigenvalue moves
    by n (Laplacian) or stays (adjacency); d gives way to the two fresh
    join eigenvalues, m + n and 0 or lam_plus and lam_minus, plus its moved
    self when the part is disconnected. The result is None when part is
    None (the pair is not strongly cospectral within the part) or when a
    flipping eigenvalue lands on a fresh one. The exception is an edgeless
    two-vertex part (isolated_pair), whose pair is never strongly
    cospectral within it but always is in the join: the fresh eigenvalues
    against the moved d.
    """
    if matrix == "laplacian":
        d, shift = 0.0, float(params.n)
        fresh = [float(params.m + params.n), 0.0]
    else:
        d, shift = float(params.k), 0.0  # type: ignore[arg-type]
        fresh = [params.lam_plus, params.lam_minus]
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
    side: str = "left",
) -> list[float]:
    """Eigenvalue support of a join vertex, from one part's spectrum alone.

    side selects whether u indexes a vertex of x or of y; either way the
    support refers to the join. Laplacian analyses need both parts simple;
    adjacency analyses need both parts regular.
    """
    params = join_params(x, y, matrix)
    if side == "right":
        return join_support(y, x, u, matrix=matrix, side="left")
    if side != "left":
        raise ValueError(f"unknown side {side!r}")
    if not 0 <= u < x.order:
        raise ValueError(f"vertex {u} out of range for the left part")
    own = eigenvalue_support(spectrum(x, matrix), u)
    return carry_join(SupportPartition(own, []), params, matrix, is_connected(x)).plus


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
        params = JoinParams(order, graph.order)
        carried = carry_join(carried, params, "laplacian", connected, side_isolated)
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
        params = JoinParams(graph.order, order)
        own = carry_join(own, params, "laplacian", is_connected(graph), isolated_pair)
    state = (own, order + graph.order, is_connected(graph) if j == 1 else conn is Connective.JOIN)
    for graph, conn in spec.parts[j:]:
        state = carry_stage(state, graph, conn, isolated_pair)
        if state is None:
            return None
    return state[0]


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
    parts = spec.parts
    if not 1 <= j <= len(parts):
        raise ValueError(f"part index {j} out of range")
    for graph, _ in parts:
        if graph.loops:
            raise PreconditionError("Laplacian join analysis requires simple parts")
    part = parts[j - 1][0]
    if not 0 <= u < part.order:
        raise ValueError(f"vertex {u} out of range for part {j}")
    own = eigenvalue_support(spectrum(part, "laplacian"), u)
    return carry_through_plan(spec, j, SupportPartition(own, [])).plus
