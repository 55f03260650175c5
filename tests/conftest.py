"""Shared oracles and graph factories for the test suite.

Everything here deliberately avoids the package's own spectral code:
matrix exponentials go through scipy.linalg.expm and eigendecompositions
through scipy.linalg.eigh with driver="evr" (LAPACK syevr), so a comparison
never has qwjoin on both sides. The package decomposes with numpy.linalg.eigh,
which calls LAPACK syevd, a different algorithm.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import scipy.linalg

from qwjoin import KrylovEntry, SymbolicTime, WeightedGraph, graph_matrix
from qwjoin.graphs import Connective, JoinTree
from qwjoin.spectral import SupportPartition
from qwjoin.transfer import _evaluate_pattern


def oracle_transition(matrix, t):
    """exp(i t M) straight from scipy, no eigenprojectors involved."""
    return scipy.linalg.expm(1j * float(t) * np.asarray(matrix, dtype=float))


def oracle_eigengroups(matrix, tol=1e-8):
    """(eigenvalue, projector) pairs from scipy's syevr eigh, grouped by closeness."""
    w, v = scipy.linalg.eigh(np.asarray(matrix, dtype=float), driver="evr")
    groups = []
    for i, lam in enumerate(w):
        if groups and abs(lam - groups[-1][-1]) <= tol:
            groups[-1].append(lam)
            continue
        groups.append([lam])
    out = []
    lo = 0
    for grp in groups:
        hi = lo + len(grp)
        vecs = v[:, lo:hi]
        out.append((float(np.mean(grp)), vecs @ vecs.T))
        lo = hi
    return out


def oracle_support(matrix, u, tol=1e-8):
    """Eigenvalues whose projector keeps some weight on vertex u, descending."""
    return sorted(
        (lam for lam, proj in oracle_eigengroups(matrix, tol) if abs(proj[u, u]) > tol),
        reverse=True,
    )


def oracle_strong_cospectral(matrix, u, v, tol=1e-7):
    """(plus, minus) eigenvalue lists, or None when the pair is not strongly cospectral."""
    plus, minus = [], []
    for lam, proj in oracle_eigengroups(matrix, tol):
        cu, cv = proj[:, u], proj[:, v]
        if np.linalg.norm(cu) <= tol and np.linalg.norm(cv) <= tol:
            continue
        if np.linalg.norm(cu - cv) <= tol:
            plus.append(lam)
        elif np.linalg.norm(cu + cv) <= tol:
            minus.append(lam)
        else:
            return None
    return sorted(plus, reverse=True), sorted(minus, reverse=True)


def sets_close(a, b, tol=1e-7):
    a, b = sorted(a), sorted(b)
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def assert_agrees_with_the_oracles(cert, matrix, u, v):
    """A transfer certificate checked on the matrix of the graph it answers for.

    u and v index that graph. The sign partition must be the oracle's,
    within 1e-7. The verdict and time must be those of the package's
    valuation pattern scored on the oracle's partition (times within
    1e-9): only the partition comes from an eigensolver, and that one is
    scipy's. A positive must reach |exp(itM)[v, u]| >= 1 - 1e-9 by expm.
    """
    want = oracle_strong_cospectral(matrix, u, v)
    assert (cert.partition is None) == (want is None), (cert, want)
    if want is None:
        assert not cert.pst
        return
    assert sets_close(cert.partition.plus, want[0]), (cert.partition, want)
    assert sets_close(cert.partition.minus, want[1]), (cert.partition, want)
    outcome = _evaluate_pattern(SupportPartition(*want))
    assert cert.pst == outcome.ok, (cert, want)
    if cert.pst:
        assert abs(cert.time.value - outcome.time.value) <= 1e-9
        assert abs(oracle_transition(matrix, cert.time.value)[v, u]) >= 1 - 1e-9


def random_simple(rng, order, p=0.5):
    edges = [
        (u, v, 1.0)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return WeightedGraph(order, edges)


def random_weighted(rng, order, p=0.6, weights=(0.5, 1.0, 1.5, 2.0, 3.0)):
    edges = [
        (u, v, float(rng.choice(weights)))
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return WeightedGraph(order, edges)


def random_circulant(rng, order, p=0.7):
    """Unweighted circulant, the workhorse regular graph for adjacency joins."""
    conns = [s for s in range(1, order // 2 + 1) if rng.random() < p]
    pairs = {
        (min(u, (u + s) % order), max(u, (u + s) % order))
        for s in conns
        for u in range(order)
        if u != (u + s) % order
    }
    return WeightedGraph(order, [(a, b, 1.0) for a, b in sorted(pairs)])


def oracle_max_transfer(graph, u, v, matrix="laplacian", t_max=10.0, samples=2048):
    """Grid maximum of |U(t)[u, v]| via eigh phases (vectorized, still oracle-side)."""
    m = graph_matrix(graph, matrix)
    w, vec = scipy.linalg.eigh(m, driver="evr")
    ts = np.linspace(0.0, t_max, samples)
    phases = np.exp(1j * np.outer(ts, w))
    amps = phases @ (vec[u, :] * vec[v, :])
    return float(np.max(np.abs(amps)))


WRONG_TIME = SymbolicTime(1, 3)


def with_wrong_time(real):
    """A closed form like real, except that a transfer time or period it reports becomes pi/3.

    A period comes as _exact_min_period's (pi multiplier, root divisor).
    """

    def wrong(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, tuple):
            return Fraction(WRONG_TIME.pi_numerator, WRONG_TIME.pi_denominator), 1
        return replace(out, time=WRONG_TIME) if out.time is not None else out

    return wrong


def dense_matrix(graph, kind):
    """The graph's matrix from its adjacency alone, degrees summed here."""
    a = np.array(graph.adjacency())
    if kind == "adjacency":
        return a
    return np.diag(a.sum(axis=1)) - a


class MatvecOnly:
    """An operator seen only through its order and matvec, as lanczos_entry sees it."""

    def __init__(self, order, matvec):
        self.order = order
        self.matvec = matvec


def recursive_matvec(node, x, kind):
    """A JoinTree's matrix times x as it is defined: leaf products plus each join's all-ones blocks."""
    if isinstance(node, WeightedGraph):
        return dense_matrix(node, kind) @ x
    total = float(x.sum())
    out = np.empty(node.order)
    lo = 0
    for child in node.children:
        hi = lo + child.order
        block = x[lo:hi]
        out[lo:hi] = recursive_matvec(child, block, kind)
        if node.connective is Connective.JOIN:
            rest = total - float(block.sum())
            if kind == "laplacian":
                out[lo:hi] += (node.order - child.order) * block - rest
            else:
                out[lo:hi] += rest
        lo = hi
    return out


def whole_tree(tree):
    """A JoinTree as a plain operator: Lanczos multiplies the whole tree, no quotient."""
    return MatvecOnly(tree.order, lambda x, kind: recursive_matvec(tree, x, kind))


LANCZOS_TOL = 1e-10


def lanczos_entry(operator, u, v, t, kind="laplacian"):
    """exp(itM)[v, u] by Lanczos from e_u, on an operator with an order and a matvec(x, kind).

    The oracle for the package's quotient route: it reads M only through
    products, reorthogonalizes fully, and exponentiates the Lanczos
    tridiagonal with scipy's expm (Saad, SIAM J. Numer. Anal. 29, 1992;
    Hochbruck and Lubich, SIAM J. Numer. Anal. 34, 1997). After k steps,
    with T the k x k tridiagonal and beta the next off-diagonal, the error
    of V exp(itT) e_1 is at most |t| beta, so the loop stops once that is
    below LANCZOS_TOL, or when k reaches the order (the Krylov space is
    then the whole space). In exact arithmetic beta vanishes after as many
    steps as there are eigenvalues in the support of u, so the dimension k
    counts them. The Lanczos vectors are the rows of one array that
    doubles when full. Returns a KrylovEntry of the value, k and |t| beta.
    """
    n = operator.order
    basis = np.zeros((min(n, 4), n))  # rows q_0..q_{k-1}; doubles when full
    basis[0, u] = 1.0
    k = 1
    alphas, betas = [], []
    while True:
        last = basis[k - 1]
        w = operator.matvec(last, kind)
        alphas.append(float(last @ w))
        stacked = basis[:k]
        for _ in range(2):  # classical Gram-Schmidt, twice to stay orthogonal
            w = w - stacked.T @ (stacked @ w)
        beta = math.sqrt(w @ w)
        bound = abs(t) * beta
        if bound < LANCZOS_TOL or k == n:
            break
        betas.append(beta)
        if k == len(basis):
            grown = np.empty((min(2 * k, n), n))
            grown[:k] = basis
            basis = grown
        basis[k] = w / beta
        k += 1
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    phases = oracle_transition(tri, t)[:, 0]
    return KrylovEntry(complex(basis[:k, v] @ phases), k, bound)


# ---------------------------------------------------------------------------
# graphs as dicts: the reference for the array-backed constructor
# ---------------------------------------------------------------------------
# Graphs once stored their edges and loops as dicts, filled item by item by
# the two functions below; the edge and loop orders, the checks and their
# messages are what WeightedGraph keeps.


def reference_edges(order: int, edges) -> dict[tuple[int, int], float]:
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


def reference_loops(order: int, loops) -> dict[int, float]:
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


class ReferenceGraph:
    """A graph as the dict-backed constructor made it: its order, edges and loops."""

    def __init__(self, order, edges=(), loops=()):
        order = int(order)
        if order < 1:
            raise ValueError("a graph needs at least one vertex")
        self.order = order
        self.edges = reference_edges(order, edges)
        self.loops = reference_loops(order, loops)


def reference_build(node):
    """A JoinTree folded with lists, child by child, as the dict-backed build folded it."""
    if not isinstance(node, JoinTree):
        return node
    first, *rest = map(reference_build, node.children)
    edges = [(u, v, w) for (u, v), w in first.edges.items()]
    loops = list(first.loops.items())
    at = first.order
    for child in rest:
        edges += [(u + at, v + at, w) for (u, v), w in child.edges.items()]
        if node.connective is Connective.JOIN:
            edges += [(u, v, 1.0) for u in range(at) for v in range(at, at + child.order)]
        loops += [(v + at, w) for v, w in child.loops.items()]
        at += child.order
    return ReferenceGraph(at, edges, loops)


def reference_family(name, *params) -> ReferenceGraph:
    """The named families as lists of edges and loops, as the dict-backed family built them."""
    if name == "O":
        return ReferenceGraph(params[0])
    if name == "O_loops":
        n, k = params
        return ReferenceGraph(n, loops=[(v, float(k)) for v in range(n)])
    if name == "K":
        (n,) = params
        return ReferenceGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
    if name == "P":
        (n,) = params
        return ReferenceGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    if name == "C":
        (n,) = params
        return ReferenceGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    if name == "CP":
        (m,) = params
        pairs = [(u, v) for u in range(m) for v in range(u + 1, m) if v - u != m // 2]
        return ReferenceGraph(m, [(u, v, 1.0) for u, v in pairs])
    if name == "Q":
        (p,) = params
        n = 1 << p
        flips = [(u, u ^ (1 << bit)) for u in range(n) for bit in range(p)]
        return ReferenceGraph(n, [(u, v, 1.0) for u, v in flips if u < v])
    if name == "K_minus_e":
        (d,) = params
        return reference_build(JoinTree(Connective.JOIN, (ReferenceGraph(2), reference_family("K", d - 2))))
    if name == "K_bipartite":
        a, b = params
        return ReferenceGraph(a + b, [(u, a + v, 1.0) for u in range(a) for v in range(b)])
    raise ValueError(f"unknown family {name!r}")


def assert_same_graph(graph, want):
    """The same order, and the same edges and loops with the same weights in the same order."""
    assert graph.order == want.order
    assert list(graph.edges.items()) == list(want.edges.items())
    assert list(graph.loops.items()) == list(want.loops.items())
