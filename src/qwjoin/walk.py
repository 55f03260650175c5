"""Continuous-time walk operators and the closed join-entry forms.

The walk operator at time t is the unitary exp(itM) for M either the
adjacency or the Laplacian matrix. Entries of a join's walk never need the
join diagonalized: they follow from the parts' walks plus a correction
carried entirely by the orders (Laplacian) or the regularity data
(adjacency).

krylov_entry computes one walk entry exp(itM)[v, u] independently of any
eigensolver. On a JoinTree it exponentiates the join's equitable quotient
at u whole, a dense matrix of order (cells of u's leaf) + depth, the cells
being the leaf's coarsest equitable partition with u alone in its cell
(graphs.equitable_partition); the join is never built. Any other operator,
one that only multiplies, gets Lanczos from e_u, then unitary_exp on the
small tridiagonal matrix Lanczos produces; so does a tree that has no
quotient (under the adjacency matrix, a cell with no common row sum),
built and multiplied as a graph. unitary_exp scales and squares a Taylor
polynomial whose degree and squaring count follow in advance from the
norm, evaluated by Paterson-Stockmeyer, so it uses matrix products only:
no eigensolver and no linear solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .spectral import (
    JoinParams,
    SpectralDecomposition,
    join_params,
    spectrum,
)
from .arith import nearest_integer
from .graphs import JoinTree, WeightedGraph


def transition_matrix(obj, t, matrix: str = "laplacian") -> np.ndarray:
    """exp(itM) from a graph or a ready SpectralDecomposition; broadcasts over array times.

    It is V diag(e^{it lambda}) V^T, V the eigenbases side by side. An array
    of times gives one matrix per time, stacked along the leading axes.
    """
    if isinstance(obj, SpectralDecomposition):
        decomp = obj
    elif isinstance(obj, WeightedGraph):
        decomp = spectrum(obj, matrix)
    else:
        raise TypeError("expected a WeightedGraph or a SpectralDecomposition")
    basis = np.hstack(decomp.bases)
    lams = np.repeat(decomp.eigenvalues, decomp.multiplicities)
    phases = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), lams))
    return (phases[..., None, :] * basis) @ basis.T


def transition_entries(
    decomp: SpectralDecomposition, u: int, v: int, times
) -> np.ndarray:
    """exp(itM)[u, v] over an array of times, without forming any matrix."""
    ts = np.asarray(times, dtype=float)
    phases = np.exp(1j * np.outer(ts, np.asarray(decomp.eigenvalues)))
    return phases @ decomp.entry_vector(u, v).astype(complex)


# (degree, radius) pairs: a Taylor polynomial of that degree is used for
# norms up to the radius, the largest theta with
# sum_{k > degree} theta^k / k! <= 2^-53 (unit roundoff), rounded down. The
# degrees are those Paterson-Stockmeyer evaluates at least cost, p + q - 2
# products for p = ceil(sqrt(degree)) and q = ceil(degree / p).
_TAYLOR_RADII = (
    (1, 1.49e-8),
    (2, 8.73e-6),
    (4, 1.678e-3),
    (6, 1.776e-2),
    (9, 0.1148),
    (12, 0.3352),
    (16, 0.8246),
    (20, 1.504),
)


def _taylor_blocks(degree: int) -> np.ndarray:
    """The Paterson-Stockmeyer coefficient blocks of the degree-d Taylor polynomial.

    Row j holds the coefficients 1/k! of A^0..A^p in the j-th polynomial
    B_j, so that sum_{k <= d} A^k / k! = sum_j B_j(A) (A^p)^j; every row
    but the last stops at A^(p-1), and the last holds the top terms.
    """
    p = math.isqrt(degree - 1) + 1
    q = -(-degree // p)
    blocks = np.zeros((q, p + 1), dtype=complex)
    for k in range(degree + 1):
        j = min(k // p, q - 1)
        blocks[j, k - j * p] = 1.0 / math.factorial(k)
    return blocks


_TAYLOR_BLOCKS = {degree: _taylor_blocks(degree) for degree, _ in _TAYLOR_RADII}


def unitary_exp(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(itM) by scaling and squaring of a Taylor polynomial.

    The degree d and the number s of squarings are fixed in advance from
    theta = |t| * ||M||_1: the lowest degree of _TAYLOR_RADII whose radius
    covers theta, or else degree 20 with the fewest squarings that bring
    theta / 2^s within its radius, so the truncated tail is below unit
    roundoff and small norms take a low degree. The polynomial in
    A = itM / 2^s is evaluated by Paterson and Stockmeyer (SIAM J. Comput.
    2, 1973): the powers A^2..A^p, then Horner's rule in A^p, forming each
    block B_j(A) from the powers only when it is added, so p + q - 2 matrix
    products with p = ceil(sqrt(d)) and q = ceil(d / p), then s squarings,
    and at most p + 4 matrices of the order held at once.
    Only matrix products are used, no solve and no eigensolver, so closed
    forms can be checked against an independently computed matrix;
    krylov_entry uses it on an equitable quotient whole or on the Lanczos
    tridiagonal. A matrix with a non-finite entry, or a theta
    that overflows, gives a matrix of NaNs.
    """
    m = np.asarray(matrix)
    n = m.shape[0]
    norm = abs(float(t)) * float(np.abs(m).sum(axis=0).max()) if n else 0.0
    if not math.isfinite(norm):
        return np.full((n, n), complex("nan"))
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    squarings = 0
    for degree, radius in _TAYLOR_RADII:
        if norm <= radius:
            break
    else:
        squarings = math.ceil(math.log2(norm / radius))
    blocks = _TAYLOR_BLOCKS[degree]
    q, p = blocks.shape[0], blocks.shape[1] - 1
    powers = np.empty((p + 1, n, n), dtype=complex)
    powers[0] = np.eye(n)
    np.multiply(m, 1j * float(t) * math.ldexp(1.0, -squarings), out=powers[1])
    for k in range(2, p + 1):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    flat = powers.reshape(p + 1, n * n)
    out = (blocks[q - 1] @ flat).reshape(n, n)
    for j in range(q - 2, -1, -1):  # each block B_j(A) is formed when Horner needs it
        out = out @ powers[p]
        out += (blocks[j] @ flat).reshape(n, n)
    for _ in range(squarings):
        out = out @ out
    return out


KRYLOV_TOL = 1e-10


@dataclass(frozen=True)
class KrylovEntry:
    """A walk entry from a Krylov space, with its dimension and error bound.

    route names how the entry was computed: "whole-quotient" for unitary_exp
    on a JoinTree's whole equitable quotient (operator "quotient"; its
    dimension is then the quotient's order and its bound 0.0), "lanczos"
    for the Lanczos loop on any other operator (operator "graph", a
    JoinTree built into its graph among them). operator_order is the
    order of the quotient or of the operator.
    """

    value: complex
    dimension: int
    bound: float
    operator: str
    operator_order: int
    route: str


def krylov_entry(operator, u: int, v: int, t: float, kind: str = "laplacian") -> KrylovEntry:
    """exp(itM)[v, u], whole on a tree's quotient, else by Lanczos from e_u.

    operator is a JoinTree, or has an order and a matvec(x, kind), like
    WeightedGraph; M is never formed. A tree gives its equitable quotient
    at u (JoinTree._quotient), a matrix B of order (cells of u's leaf) +
    depth in which u has a cell of its own. unitary_exp exponentiates B
    whole, and the entry is exp(itB)[cell(v), cell(u)] with the scale
    1/sqrt(|cell(v)|), since exp(itM)e_u is constant on each cell; the
    result reports route "whole-quotient", the quotient's order as its
    dimension and 0.0 as its bound. Lanczos on B would cost more: on every
    quotient above order 6 in the tests and the benchmark, e_u's Krylov
    space fills B, so Lanczos would end with an exponential of the same
    order after a loop of its own.

    A tree with no quotient (a cell with no common row sum under the
    adjacency matrix) is built and taken as a graph, which, like any other
    operator, is called through matvec by Lanczos with full
    reorthogonalization. After k steps, with T the k x k Lanczos
    tridiagonal and beta the next off-diagonal, the error of V exp(itT) e_1
    is at most |t| * beta, so the iteration stops once that bound is below
    KRYLOV_TOL, or when k reaches the operator's order (the Krylov space is
    then the whole space, so the result is exact). In exact arithmetic
    beta vanishes after as many steps as there are eigenvalues in the
    support of u. exp(itT) comes from unitary_exp, so no eigensolver is
    involved. The Lanczos vectors are the rows of one preallocated array
    that doubles when full, so a step costs O(k n) for the
    reorthogonalization, with no re-stacking of the basis.
    """
    n = operator.order
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for order {n}")
    if isinstance(operator, JoinTree):
        quotient = operator._quotient(u, kind)
        if quotient is not None:
            target, size = quotient.cell(v)
            phases = unitary_exp(quotient.matrix(), t)
            value = complex(phases[target, quotient.cell(u)[0]]) * (1.0 / math.sqrt(size))
            if not cmath.isfinite(value):
                raise NumericError(f"the walk entry ({u}, {v}) at t = {t} is not finite")
            q = quotient.order
            return KrylovEntry(value, q, 0.0, "quotient", q, "whole-quotient")
        operator = operator.build()  # a cell has no common row sum
    basis = np.zeros((min(n, 4), n))  # rows q_0..q_{k-1}; doubles when full
    basis[0, u] = 1.0
    k = 1
    alphas: list[float] = []
    betas: list[float] = []
    while True:
        last = basis[k - 1]
        w = operator.matvec(last, kind)
        alphas.append(float(last @ w))
        stacked = basis[:k]
        across = stacked.T
        for _ in range(2):  # classical Gram-Schmidt, twice to stay orthogonal
            w = w - across @ (stacked @ w)
        beta = math.sqrt(w @ w)  # what np.linalg.norm computes for a real vector
        if not (math.isfinite(alphas[-1]) and math.isfinite(beta)):
            raise NumericError(f"Lanczos produced a non-finite coefficient at step {k}")
        bound = abs(t) * beta
        if bound < KRYLOV_TOL or k == n:
            break
        betas.append(beta)
        if k == len(basis):
            grown = np.empty((min(2 * k, n), n))
            grown[:k] = basis
            basis = grown
        np.divide(w, beta, out=basis[k])
        k += 1
    tri = np.zeros((k, k))
    tri.flat[:: k + 1] = alphas
    tri.flat[1 :: k + 1] = betas
    tri.flat[k :: k + 1] = betas
    phases = unitary_exp(tri, t)[:, 0]
    value = complex(np.ascontiguousarray(basis[:k, v]) @ phases)
    if not cmath.isfinite(value):
        raise NumericError(f"the Krylov walk entry ({u}, {v}) at t = {t} is not finite")
    return KrylovEntry(value, k, bound, "graph", n, "lanczos")


# ---------------------------------------------------------------------------
# closed forms for join entries
# ---------------------------------------------------------------------------


def join_entry_L(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    t: float,
    decomp_x: SpectralDecomposition | None = None,
    decomp_y: SpectralDecomposition | None = None,
) -> complex:
    """Laplacian walk entry of join(x, y) at global vertices u, v."""
    params = join_params(x, y, "laplacian")
    m, n = params.m, params.n
    total = m + n
    if not (0 <= u < total and 0 <= v < total):
        raise ValueError("vertex out of range for the join")
    if (u < m) != (v < m):
        return (1.0 - cmath.exp(1j * t * total)) / total
    if u >= m and v >= m:
        return join_entry_L(y, x, u - m, v - m, t, decomp_y, decomp_x)
    if decomp_x is None:
        decomp_x = spectrum(x, "laplacian")
    base = complex(transition_entries(decomp_x, u, v, [t])[0])
    return cmath.exp(1j * t * n) * (base + alpha(params, t, "laplacian"))


def join_entry_A(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    t: float,
    decomp_x: SpectralDecomposition | None = None,
    decomp_y: SpectralDecomposition | None = None,
) -> complex:
    """Adjacency walk entry of join(x, y); both parts must be regular."""
    params = join_params(x, y, "adjacency")
    m, n = params.m, params.n
    total = m + n
    if not (0 <= u < total and 0 <= v < total):
        raise ValueError("vertex out of range for the join")
    root = math.sqrt(params.discriminant)
    lp, lm = params.lam_plus, params.lam_minus
    if (u < m) != (v < m):
        return (cmath.exp(1j * t * lp) - cmath.exp(1j * t * lm)) / root
    if u >= m and v >= m:
        return join_entry_A(y, x, u - m, v - m, t, decomp_y, decomp_x)
    if decomp_x is None:
        decomp_x = spectrum(x, "adjacency")
    base = complex(transition_entries(decomp_x, u, v, [t])[0])
    return base + alpha(params, t, "adjacency")


def alpha(params: JoinParams, t, matrix: str = "laplacian"):
    """Mimicry defect of a join walk; broadcasts over array times.

    For the Laplacian, exp(itn) * alpha is the constant a join adds to each
    left-block entry; for the adjacency it is the additive correction
    directly.
    """
    ts = np.asarray(t, dtype=float)
    m, n = params.m, params.n
    if matrix == "laplacian":
        out = (
            m * np.exp(-1j * ts * n) + n * np.exp(1j * ts * m) - (m + n)
        ) / (m * (m + n))
    elif matrix == "adjacency":
        root = math.sqrt(params.discriminant)
        k = float(params.k)  # type: ignore[arg-type]
        lp, lm = params.lam_plus, params.lam_minus
        out = (
            np.exp(1j * ts * lp) * (k - lm) / (m * root)
            - np.exp(1j * ts * lm) * (k - lp) / (m * root)
            - np.exp(1j * ts * k) / m
        )
    else:
        raise ValueError(f"unknown matrix kind {matrix!r}")
    if np.ndim(t) == 0:
        return complex(out)
    return out


def in_T(params: JoinParams, t: float, matrix: str = "laplacian", tol: float = 1e-9) -> bool:
    """Whether t is a time at which the join walk mimics the part walk.

    These times form a lattice when the relevant eigenvalue differences are
    integers; otherwise membership is decided numerically at the given t.
    """
    if matrix == "laplacian":
        g = math.gcd(params.m, params.n)
        s = t * g / (2.0 * math.pi)
        return abs(s - round(s)) <= tol * max(1.0, abs(s))
    if matrix == "adjacency":
        k = float(params.k)  # type: ignore[arg-type]
        dp = nearest_integer(params.lam_plus - k)
        dm = nearest_integer(params.lam_minus - k)
        if dp is not None and dm is not None:
            h = math.gcd(dp, dm)
            if h == 0:
                return True
            s = t * h / (2.0 * math.pi)
            return abs(s - round(s)) <= tol * max(1.0, abs(s))
        return bool(abs(alpha(params, t, matrix="adjacency")) <= tol)
    raise ValueError(f"unknown matrix kind {matrix!r}")
