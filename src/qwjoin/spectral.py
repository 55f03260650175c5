"""Spectral decompositions and eigenvalue supports.

The eigensolver is LAPACK's symmetric solver (numpy.linalg.eigh). Repeated
eigenvalues are grouped by gap so each distinct eigenvalue gets a single
orthogonal projector. spectrum() decomposes a graph's matrix once and caches
the result on the (immutable) graph.
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
    """Distinct eigenvalues (descending) with their orthogonal projectors.

    The matrix and the projectors are read-only arrays, because spectrum()
    hands one cached decomposition to every caller.
    """

    matrix: np.ndarray
    eigenvalues: list[float]
    multiplicities: list[int]
    projectors: list[np.ndarray]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.matrix)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out += lam * proj
        return out

    def entry_vector(self, u: int, v: int) -> np.ndarray:
        """The (u, v) entry of each projector, as one array."""
        return np.array([proj[u, v] for proj in self.projectors])


def decompose(matrix: np.ndarray) -> SpectralDecomposition:
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("decompose expects a square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError("decompose expects finite entries")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > 1e-10 * scale:
        raise ValueError("decompose expects a symmetric matrix")
    mat = (mat + mat.T) / 2.0
    try:
        raw_vals, raw_vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"the eigensolver failed ({exc}) on\n" + np.array2string(mat)
        ) from exc
    raw_vals, raw_vecs = raw_vals[::-1], raw_vecs[:, ::-1]
    gap = _GROUP_GAP_REL * scale
    eigenvalues: list[float] = []
    multiplicities: list[int] = []
    projectors: list[np.ndarray] = []
    start = 0
    for i in range(1, len(raw_vals) + 1):
        if i == len(raw_vals) or raw_vals[i - 1] - raw_vals[i] > gap:
            block = raw_vecs[:, start:i]
            eigenvalues.append(float(np.mean(raw_vals[start:i])))
            multiplicities.append(i - start)
            projectors.append(block @ block.T)
            start = i
    for array in (mat, *projectors):
        array.flags.writeable = False
    return SpectralDecomposition(mat, eigenvalues, multiplicities, projectors)


def spectrum(graph: WeightedGraph, kind: str) -> SpectralDecomposition:
    """The decomposition of a graph's adjacency or Laplacian matrix.

    It is computed on the first call for each kind and cached on the graph,
    so each (graph, matrix) pair is decomposed once.
    """
    return graph.cached(("spectrum", kind), lambda: decompose(graph_matrix(graph, kind)))


def eigenvalue_support(
    decomp: SpectralDecomposition, u: int, tol: float = SUPPORT_TOL
) -> list[float]:
    """Eigenvalues whose projector sees vertex u, in descending order."""
    if not 0 <= u < decomp.size:
        raise ValueError(f"vertex {u} out of range")
    return [
        lam
        for lam, proj in zip(decomp.eigenvalues, decomp.projectors)
        if float(np.linalg.norm(proj[:, u])) > tol
    ]


def _merge_close(values, tol: float = SUPPORT_TOL) -> list[float]:
    """Sort descending and merge values that agree within tolerance."""
    ordered = sorted((float(v) for v in values), reverse=True)
    out: list[float] = []
    for v in ordered:
        if out and out[-1] - v <= tol * max(1.0, abs(v), abs(out[-1])):
            continue
        out.append(v)
    return out


def _contains(values, x: float, tol: float = SUPPORT_TOL) -> bool:
    return any(abs(v - x) <= tol * max(1.0, abs(v), abs(x)) for v in values)


# ---------------------------------------------------------------------------
# join parameters and closed-form supports
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


def join_support(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    matrix: str = "laplacian",
    side: str = "left",
    tol: float = SUPPORT_TOL,
) -> list[float]:
    """Eigenvalue support of a join vertex, from one part's spectrum alone.

    side selects whether u indexes a vertex of x or of y; either way the
    support refers to the join. Laplacian analyses need both parts simple;
    adjacency analyses need both parts regular.
    """
    params = join_params(x, y, matrix)
    if side == "right":
        return join_support(y, x, u, matrix=matrix, side="left", tol=tol)
    if side != "left":
        raise ValueError(f"unknown side {side!r}")
    if not 0 <= u < x.order:
        raise ValueError(f"vertex {u} out of range for the left part")
    own = eigenvalue_support(spectrum(x, matrix), u, tol=tol)
    m, n = x.order, y.order
    connected = is_connected(x)
    if matrix == "laplacian":
        shifted = [lam + n for lam in own if abs(lam) > tol]
        extra = [0.0, float(m + n)]
        if not connected:
            extra.append(float(n))
        return _merge_close(shifted + extra, tol)
    k = float(params.k)  # type: ignore[arg-type]
    kept = [lam for lam in own if abs(lam - k) > tol * max(1.0, abs(k))]
    extra = [params.lam_plus, params.lam_minus]
    if not connected:
        extra.append(k)
    return _merge_close(kept + extra, tol)


# ---------------------------------------------------------------------------
# iterated joins
# ---------------------------------------------------------------------------


def iterated_join_support(
    spec: IteratedJoinSpec,
    j: int,
    u: int,
    matrix: str = "laplacian",
    tol: float = SUPPORT_TOL,
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

    own = eigenvalue_support(spectrum(part, "laplacian"), u, tol=tol)
    acc_order = parts[0][0].order
    acc_connected = is_connected(parts[0][0])
    if j == 1:
        support = list(own)
        entered = True
    else:
        support = []
        entered = False
    for idx, (graph, conn) in enumerate(parts[1:], start=2):
        if idx == j:
            if conn is Connective.UNION:
                support = list(own)
            else:
                shifted = [lam + acc_order for lam in own if abs(lam) > tol]
                support = shifted + [0.0, float(acc_order + graph.order)]
                if not is_connected(graph):
                    support.append(float(acc_order))
            entered = True
        elif entered and conn is Connective.JOIN:
            shifted = [lam + graph.order for lam in support if abs(lam) > tol]
            support = shifted + [0.0, float(acc_order + graph.order)]
            if not acc_connected:
                support.append(float(graph.order))
        acc_connected = conn is Connective.JOIN
        acc_order += graph.order
    return _merge_close(support, tol)
