"""Continuous-time walk operators and the closed join-entry forms.

The walk operator at time t is the unitary exp(itM) for M either the
adjacency or the Laplacian matrix. Entries of a join's walk never need the
join diagonalized: they follow from the parts' walks plus a correction
carried entirely by the orders (Laplacian) or the regularity data
(adjacency).

krylov_entry computes one walk entry exp(itM)[v, u] independently of any
eigensolver: Lanczos from e_u on an operator that only multiplies (a graph
or a JoinTree, so the join is never built), and unitary_exp's series on
the small tridiagonal matrix Lanczos produces.
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
from .arith import reconstruct_rational
from .graphs import WeightedGraph


def transition_matrix(obj, t: float, matrix: str = "laplacian") -> np.ndarray:
    """exp(itM) from a graph or a ready SpectralDecomposition."""
    if isinstance(obj, SpectralDecomposition):
        decomp = obj
    elif isinstance(obj, WeightedGraph):
        decomp = spectrum(obj, matrix)
    else:
        raise TypeError("expected a WeightedGraph or a SpectralDecomposition")
    out = np.zeros_like(decomp.matrix, dtype=complex)
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        out += cmath.exp(1j * t * lam) * proj
    return out


def transition_entries(
    decomp: SpectralDecomposition, u: int, v: int, times
) -> np.ndarray:
    """exp(itM)[u, v] over an array of times, without forming any matrix."""
    ts = np.asarray(times, dtype=float)
    phases = np.exp(1j * np.outer(ts, np.asarray(decomp.eigenvalues)))
    return phases @ decomp.entry_vector(u, v).astype(complex)


def unitary_exp(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(itM) by scaling and squaring of a truncated series.

    Deliberately avoids the spectral route so closed forms can be checked
    against an independently computed matrix; krylov_entry uses it on the
    small Lanczos tridiagonal.
    """
    a = 1j * float(t) * np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, np.inf))
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm))) + 1)
        a = a / (2.0**squarings)
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        out += term
        if float(np.abs(term).max()) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


KRYLOV_TOL = 1e-10


@dataclass(frozen=True)
class KrylovEntry:
    """A walk entry from a Krylov space, with its dimension and error bound."""

    value: complex
    dimension: int
    bound: float


def krylov_entry(operator, u: int, v: int, t: float, kind: str = "laplacian") -> KrylovEntry:
    """exp(itM)[v, u] by Lanczos from e_u with full reorthogonalization.

    operator has an order and a matvec(x, kind), like WeightedGraph and
    JoinTree; M is never formed. After k steps, with T the k x k Lanczos
    tridiagonal and beta the next off-diagonal, the error of
    V exp(itT) e_1 is at most |t| * beta, so the iteration stops once that
    bound is below KRYLOV_TOL, or when k reaches the order (the Krylov
    space is then the whole space, so the result is exact). In exact
    arithmetic beta vanishes after as many steps as there are eigenvalues
    in the support of u. exp(itT) comes from unitary_exp, so no
    eigensolver is involved.
    """
    n = operator.order
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for order {n}")
    start = np.zeros(n)
    start[u] = 1.0
    basis = [start]
    alphas: list[float] = []
    betas: list[float] = []
    while True:
        w = operator.matvec(basis[-1], kind)
        alphas.append(float(basis[-1] @ w))
        stacked = np.array(basis)
        for _ in range(2):  # classical Gram-Schmidt, twice to stay orthogonal
            w = w - stacked.T @ (stacked @ w)
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(alphas[-1]) and math.isfinite(beta)):
            raise NumericError(f"Lanczos produced a non-finite coefficient at step {len(basis)}")
        bound = abs(t) * beta
        if bound < KRYLOV_TOL or len(basis) == n:
            break
        betas.append(beta)
        basis.append(w / beta)
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    phases = unitary_exp(tri, t)[:, 0]
    value = complex(np.array([q[v] for q in basis]) @ phases)
    if not cmath.isfinite(value):
        raise NumericError(f"the Krylov walk entry ({u}, {v}) at t = {t} is not finite")
    return KrylovEntry(value, len(basis), bound)


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
        dp = reconstruct_rational(params.lam_plus - k)
        dm = reconstruct_rational(params.lam_minus - k)
        if (
            dp is not None
            and dm is not None
            and dp.denominator == 1
            and dm.denominator == 1
        ):
            h = math.gcd(int(dp), int(dm))
            if h == 0:
                return True
            s = t * h / (2.0 * math.pi)
            return abs(s - round(s)) <= tol * max(1.0, abs(s))
        return bool(abs(alpha(params, t, matrix="adjacency")) <= tol)
    raise ValueError(f"unknown matrix kind {matrix!r}")
