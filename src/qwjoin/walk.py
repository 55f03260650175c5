"""Continuous-time walk operators and the closed join-entry forms.

The walk operator at time t is the unitary exp(itM) for M either the
adjacency or the Laplacian matrix. Entries of a join's walk never need the
join diagonalized: join_entry, alpha and in_T read them from a part's walk
and the join's spectral.JoinParams record, which reads a join under either
matrix as an adjacency-type join, so none of them branches on the matrix.

krylov_entry computes one walk entry exp(itM)[v, u] independently of any
eigensolver: it exponentiates the equitable quotient at u whole, a dense
matrix of order (cells of u's leaf) + depth for a JoinTree and (cells of
the graph) for a WeightedGraph, the cells being the leaf's coarsest
equitable partition with u alone in its cell (graphs.equitable_partition
and graphs.equitable_quotient); a tree's join is never built, except for
a tree with a cell that has no common row sum under the adjacency matrix,
whose built graph gives the quotient. unitary_exp takes the real symmetric
matrix, evaluates the Taylor polynomials of cos and sin in real arithmetic
by Paterson-Stockmeyer, with degree and squaring count fixed in advance
from the norm, and squares in complex: matrix products only, no
eigensolver and no linear solve.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .spectral import JoinParams, SpectralDecomposition, join_side, spectrum
from .graphs import JoinTree, WeightedGraph, equitable_quotient


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
# sum_{k > degree} theta^k / k! <= 2^-53 (unit roundoff), rounded down; that
# exp tail bounds the cos and sin tails together. The degrees are those
# Paterson-Stockmeyer evaluates at least cost in A, p + q - 2 products for
# p = ceil(sqrt(degree)) and q = ceil(degree / p).
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


def _cos_sin_blocks(degree: int) -> np.ndarray:
    """The Paterson-Stockmeyer block pairs of cos(A) and sin(A)/A in X = A^2.

    The degree-d Taylor polynomial of exp(iA) is C(X) + iA S(X), X^k having
    the coefficient (-1)^k / (2k)! in C if 2k <= d and (-1)^k / (2k+1)! in S
    if 2k + 1 <= d. [j, 0] holds the coefficients of X^0..X^p in the j-th
    block of C and [j, 1] those of S, so C(X) = sum_j C_j(X) (X^p)^j; every
    block but the last stops at X^(p-1), and the last holds the top terms.
    """
    top = max(degree // 2, 1)
    p = math.isqrt(top - 1) + 1
    q = -(-top // p)
    blocks = np.zeros((q, 2, p + 1))
    for k in range(degree + 1):
        half = k // 2
        j = min(half // p, q - 1)
        blocks[j, k % 2, half - j * p] = (-1) ** half / math.factorial(k)
    return blocks


_COS_SIN_BLOCKS = {degree: _cos_sin_blocks(degree) for degree, _ in _TAYLOR_RADII}


def unitary_exp(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(itM) for a real symmetric M, by scaling and squaring of a Taylor polynomial.

    The degree d and the number s of squarings are fixed in advance from
    theta = |t| * ||M||_1: the lowest degree of _TAYLOR_RADII whose radius
    covers theta, or else degree 20 with the fewest squarings that bring
    theta / 2^s within its radius, so the truncated tail is below unit
    roundoff and small norms take a low degree. With A = tM / 2^s,
    exp(iA) = cos(A) + i sin(A) ~ C(X) + iA S(X), real polynomials in
    X = A^2 (_cos_sin_blocks). Paterson and Stockmeyer's scheme (SIAM J.
    Comput. 2, 1973) evaluates them in real arithmetic (Al-Mohy, Higham &
    Relton, SIAM J. Sci. Comput. 37, 2015): the powers X^2..X^p, then
    Horner's rule in X^p on C stacked over S, each block pair formed only
    when it is added. The powers are freed, and C + iA S is squared s times
    in complex, each square as U U^T, since U is symmetric: NumPy hands that
    product to BLAS syrk at about half the cost. At most p + 6 real
    matrices of the order are held at once (p = 4 at degree 20).
    Only matrix products are used, no solve and no eigensolver, so closed
    forms can be checked against an independently computed matrix;
    krylov_entry uses it on an equitable quotient whole. A complex matrix raises TypeError and an asymmetric one
    ValueError; one with a non-finite entry, or a theta that overflows,
    gives a matrix of NaNs.
    """
    if np.iscomplexobj(matrix):
        raise TypeError("unitary_exp takes a real matrix")
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    with np.errstate(over="ignore"):  # a column past the float range sums to inf
        norm = abs(float(t)) * float(np.abs(m).sum(axis=0).max()) if n else 0.0
    if not math.isfinite(norm):
        return np.full((n, n), complex("nan"))
    if (m != m.T).any():
        raise ValueError("unitary_exp takes a symmetric matrix")
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    squarings = 0
    for degree, radius in _TAYLOR_RADII:
        if norm <= radius:
            break
    else:
        squarings = math.ceil(math.log2(norm / radius))
    blocks = _COS_SIN_BLOCKS[degree]
    q, p = blocks.shape[0], blocks.shape[2] - 1
    a = m * (float(t) * math.ldexp(1.0, -squarings))
    powers = np.empty((p + 1, n, n))
    flat = powers.reshape(p + 1, n * n)
    flat[0] = 0.0
    flat[0, :: n + 1] = 1.0
    # np.dot skips matmul's ufunc dispatch, about 1 us a product at order 3
    np.dot(a, a, out=powers[1])
    for k in range(2, p + 1):
        np.dot(powers[k - 1], powers[1], out=powers[k])
    pair = blocks[q - 1].dot(flat).reshape(2 * n, n)  # C over S
    for j in range(q - 2, -1, -1):  # each block pair is formed when Horner needs it
        pair = pair.dot(powers[p])
        pair += blocks[j].dot(flat).reshape(2 * n, n)
    del powers, flat
    out = np.empty((n, n), dtype=complex)
    out.real = pair[:n]
    out.imag = a.dot(pair[n:])
    del a, pair
    for _ in range(squarings):
        out = out.dot(out.T)
    return out


class KrylovEntry(NamedTuple):
    """A walk entry from the equitable quotient, with its dimension and error bound.

    dimension is the order of the quotient exponentiated, the Krylov space
    of e_u lying within the span of its cells; bound is 0.0, since no
    truncated iteration runs.
    """

    value: complex
    dimension: int
    bound: float


def krylov_entry(operator, u: int, v: int, t: float, kind: str = "laplacian") -> KrylovEntry:
    """exp(itM)[v, u], by unitary_exp on the equitable quotient at u, whole.

    operator is a JoinTree or a WeightedGraph; M is never formed, and any
    other operator raises TypeError. equitable_quotient gives a matrix B
    in which u has a cell of its own, of order (cells of u's leaf) + depth
    for a tree and (cells of the graph) for a graph, a tree of depth 0.
    unitary_exp exponentiates B whole, and the entry is
    exp(itB)[cell(v), cell(u)] with the scale 1/sqrt(|cell(v)|), since
    exp(itM)e_u is constant on each cell; the quotient's order is the
    result's dimension and 0.0 its bound. An iteration on e_u's Krylov
    space would cost more: on every quotient above order 6 in the tests
    and the benchmark that space fills B, so the iteration would end with
    an exponential of the same order after a loop of its own.

    A tree with no quotient (a cell with no common row sum under the
    adjacency matrix) is built, and the built graph's quotient at u is
    exponentiated instead: refinement over the built graph's edges, then a
    dense exponential of the order of its cells. A large graph with no
    symmetry fixing u refines to its own vertices, so it pays a dense
    exponential of its own order, as a tree whose leaf has no symmetry
    already does. No analysis, CLI command or benchmark workload reaches
    either case: they pass trees, with regular parts under the adjacency
    matrix.
    """
    if not isinstance(operator, (JoinTree, WeightedGraph)):
        raise TypeError("krylov_entry takes a JoinTree or a WeightedGraph")
    n = operator.order
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for order {n}")
    quotient = equitable_quotient(operator, u, kind)
    if quotient is None:  # a cell has no common row sum
        quotient = equitable_quotient(operator.build(), u, kind)
    target, size = quotient.cell(v)
    phases = unitary_exp(quotient.matrix(), t)
    value = complex(phases[target, quotient.cell(u)[0]]) * (1.0 / math.sqrt(size))
    if not cmath.isfinite(value):
        raise NumericError(f"the walk entry ({u}, {v}) at t = {t} is not finite")
    return KrylovEntry(value, quotient.order, 0.0)


# ---------------------------------------------------------------------------
# closed forms for join entries
# ---------------------------------------------------------------------------


def join_entry(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    t: float,
    matrix: str = "laplacian",
) -> complex:
    """Walk entry (u, v) of join(x, y) at time t, u and v join vertices (spectral.join_side).

    An entry within a part is its own part walk's entry plus alpha, a
    cross entry is (e^{is lam_plus} - e^{is lam_minus}) / root, each lifted
    by e^{it phase_rate}, s = time_sign * t (spectral.JoinParams).
    Adjacency analyses need both parts regular, Laplacian ones both simple.
    """
    params, part, u, v, cross = join_side(x, y, u, v, matrix)
    lift = cmath.exp(1j * t * params.phase_rate)
    if cross:
        s = params.time_sign * t
        fresh = cmath.exp(1j * s * params.lam_plus) - cmath.exp(1j * s * params.lam_minus)
        return lift * fresh / params.root
    base = complex(transition_entries(spectrum(part, matrix), u, v, [t])[0])
    return lift * (base + alpha(params, t))


def alpha(params: JoinParams, t):
    """Mimicry defect of a join walk; broadcasts over array times.

    A left-block join entry is e^{it phase_rate} (part entry + alpha), for
    alpha = ((d - lam_minus) e^{is lam_plus} + (lam_plus - d) e^{is lam_minus}
    - root e^{isd}) / (m root), s = time_sign * t and d the distinguished
    eigenvalue (spectral.JoinParams).
    """
    s = params.time_sign * np.asarray(t, dtype=float)
    d = params.distinguished
    out = (
        (d - params.lam_minus) * np.exp(1j * s * params.lam_plus)
        + (params.lam_plus - d) * np.exp(1j * s * params.lam_minus)
        - params.root * np.exp(1j * s * d)
    ) / (params.m * params.root)
    if np.ndim(t) == 0:
        return complex(out)
    return out


def in_T(params: JoinParams, t: float, tol: float = 1e-9) -> bool:
    """Whether t is a time at which the join walk mimics the part walk.

    With integer fresh offsets these times form the lattice of multiples
    of 2 pi over the offsets' gcd; otherwise membership is decided
    numerically at the given t.
    """
    if params.offsets is None:
        return bool(abs(alpha(params, t)) <= tol)
    s = t * math.gcd(*params.offsets) / (2.0 * math.pi)
    return abs(s - round(s)) <= tol * max(1.0, abs(s))
