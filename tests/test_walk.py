import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwjoin import (
    Connective,
    JoinTree,
    NumericError,
    WeightedGraph,
    alpha,
    bound_sweep,
    decompose,
    family,
    graph_matrix,
    in_T,
    iterated_tree,
    join,
    join_entry,
    JoinParams,
    join_params,
    join_support,
    krylov_entry,
    parse_iterated_spec,
    transition_matrix,
    unitary_exp,
)
from qwjoin.walk import _COS_SIN_BLOCKS, _TAYLOR_RADII, transition_entries

from conftest import (
    MatvecOnly,
    lanczos_entry,
    oracle_transition,
    random_circulant,
    random_simple,
    random_weighted,
    whole_tree,
)


def test_transition_matches_scipy_fixed_cases():
    for name, args, matrix in [
        ("C", (4,), "laplacian"),
        ("P", (3,), "adjacency"),
        ("K", (5,), "laplacian"),
        ("CP", (6,), "adjacency"),
    ]:
        g = family(name, *args)
        m = graph_matrix(g, matrix)
        for t in (0.0, 0.3, math.pi / 2, 2.7):
            got = transition_matrix(decompose(m), t)
            assert np.allclose(got, oracle_transition(m, t), atol=1e-9)


@given(st.integers(min_value=0, max_value=10**6), st.floats(-8.0, 8.0))
@settings(max_examples=50, deadline=None)
def test_transition_matches_scipy_random(seed, t):
    rng = np.random.default_rng(seed)
    g = random_weighted(rng, int(rng.integers(2, 7)))
    m = graph_matrix(g, "laplacian")
    assert np.allclose(
        transition_matrix(decompose(m), t), oracle_transition(m, t), atol=1e-8
    )


@given(st.integers(min_value=0, max_value=10**6), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_unitarity_and_group_law(seed, s, t):
    rng = np.random.default_rng(seed)
    g = random_simple(rng, int(rng.integers(2, 7)))
    d = decompose(graph_matrix(g, "laplacian"))
    us, ut = transition_matrix(d, s), transition_matrix(d, t)
    assert np.allclose(us @ us.conj().T, np.eye(g.order), atol=1e-9)
    assert np.allclose(us @ ut, transition_matrix(d, s + t), atol=1e-9)


def test_transition_entries_vectorized():
    d = decompose(graph_matrix(family("C", 5), "laplacian"))
    times = np.linspace(0.0, 3.0, 17)
    entries = transition_entries(d, 0, 2, times)
    singles = [transition_matrix(d, t)[0, 2] for t in times]
    assert np.allclose(entries, singles, atol=1e-10)


def test_unitary_exp_independent_route():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_weighted(rng, int(rng.integers(2, 7)))
        m = graph_matrix(g, "adjacency")
        t = float(rng.uniform(-4, 4))
        assert np.allclose(unitary_exp(m, t), oracle_transition(m, t), atol=1e-9)
        assert np.allclose(
            unitary_exp(m, t), transition_matrix(decompose(m), t), atol=1e-9
        )


def _seeded_tridiagonal(rng, order):
    off = rng.standard_normal(order - 1)
    return np.diag(rng.standard_normal(order)) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 64])
def test_unitary_exp_matches_scipy_expm_on_tridiagonals(order):
    rng = np.random.default_rng(order)
    for theta in [0.0, 1e-12, 1e-7, 1e-3, 0.05, 0.3, 0.8, 1.5, 2.0, 7.0, 1e2, 1.1e3, 3e4, 1e6]:
        for sign in (1.0, -1.0):
            tri = _seeded_tridiagonal(rng, order)
            # t scaled so that ||tT||_1 is theta
            t = sign * theta / float(np.abs(tri).sum(axis=0).max())
            got = unitary_exp(tri, t)
            scale = 1e-12 * max(1.0, theta)
            assert np.abs(got - oracle_transition(tri, t)).max() <= scale
            assert np.abs(got.conj().T @ got - np.eye(order)).max() <= scale


def test_taylor_radii_keep_the_tail_below_unit_roundoff():
    # sum_{k > d} theta^k / k!, in exact arithmetic, at each tabulated radius
    unit = Fraction(2) ** -53
    for degree, radius in _TAYLOR_RADII:
        theta = Fraction(radius)
        term = theta ** (degree + 1) / math.factorial(degree + 1)
        tail, k = Fraction(0), degree + 1
        while term > unit * Fraction(1, 10**6):
            tail += term
            k += 1
            term = term * theta / k
        assert tail + 2 * term <= unit


def test_cos_sin_blocks_hold_the_taylor_coefficients():
    # entry [j, part, i] multiplies X^(j p + i), X = A^2, in cos(A) (part 0)
    # or sin(A)/A (part 1); summed per power, each must be the float nearest
    # (-1)^k / (2k)! or (-1)^k / (2k + 1)!, for exactly the terms of degree <= d
    for degree, _ in _TAYLOR_RADII:
        blocks = _COS_SIN_BLOCKS[degree]
        q, _, width = blocks.shape
        p = width - 1
        got: dict[tuple[int, int], Fraction] = {}
        for j in range(q):
            for part in (0, 1):
                for i in range(width):
                    key = (part, j * p + i)
                    got[key] = got.get(key, Fraction(0)) + Fraction(float(blocks[j, part, i]))
        for (part, k), value in got.items():
            order = 2 * k + part
            exact = Fraction((-1) ** k, math.factorial(order)) if order <= degree else Fraction(0)
            assert abs(value - exact) <= abs(exact) * Fraction(1, 2**53), (degree, part, k)
        assert {2 * k + part for (part, k), value in got.items() if value} == set(
            range(degree + 1))


@pytest.mark.parametrize("t", [1e-3, 0.3, 50.0])
def test_unitary_exp_peak_memory_stays_within_eleven_real_matrices(t):
    # the real powers of X, C over S and its Horner product, A: ten at degree 20
    n = 400
    rng = np.random.default_rng(400)
    g = rng.standard_normal((n, n))
    m = g + g.T
    tracemalloc.start()
    try:
        unitary_exp(m, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 8 * n * n


def test_unitary_exp_matches_scipy_expm_on_a_dense_symmetric_matrix():
    from scipy.linalg import expm

    rng = np.random.default_rng(128)
    g = rng.standard_normal((128, 128))
    m = g + g.T
    norm = float(np.abs(m).sum(axis=0).max())
    for theta in [0.0, 1e-12, 1e-7, 1e-3, 0.05, 0.3, 0.8, 1.5, 2.0, 7.0, 1e2, 1.1e3, 1e4]:
        for sign in (1.0, -1.0):
            t = sign * theta / norm  # ||tM||_1 is theta
            got = unitary_exp(m, t)
            scale = 1e-12 * max(1.0, theta)
            assert np.abs(got - expm(1j * t * m)).max() <= scale
            assert np.abs(got.conj().T @ got - np.eye(128)).max() <= scale


def test_unitary_exp_takes_a_real_symmetric_matrix():
    with pytest.raises(TypeError):
        unitary_exp(np.eye(2, dtype=complex), 1.0)
    with pytest.raises(TypeError):
        unitary_exp(np.array([[0.0, 1j], [-1j, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        unitary_exp(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)
    # an integer matrix is taken as real
    assert np.array_equal(unitary_exp(np.array([[0, 1], [1, 0]]), 0.4),
                          unitary_exp(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.4))


def test_unitary_exp_of_a_non_finite_matrix_is_nan():
    for entry in (np.inf, np.nan):
        assert np.isnan(unitary_exp(np.array([[1.0, entry], [entry, 0.0]]), 0.5)).all()
    # a finite matrix whose scaled norm overflows
    assert np.isnan(unitary_exp(np.array([[1e300]]), 1e100)).all()


def test_join_entry_laplacian_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = random_weighted(rng, int(rng.integers(1, 6)))
        y = random_weighted(rng, int(rng.integers(1, 6)))
        jm = graph_matrix(join(x, y), "laplacian")
        t = float(rng.uniform(0, 6))
        u_full = oracle_transition(jm, t)
        for u in range(x.order):
            for v in range(x.order):
                got = join_entry(x, y, u, v, t, "laplacian")
                assert abs(got - u_full[u, v]) <= 1e-9
        got_cross = join_entry(x, y, 0, x.order, t, "laplacian")
        assert abs(got_cross - u_full[0, x.order]) <= 1e-9


def test_join_entry_adjacency_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(25):
        x = random_circulant(rng, int(rng.integers(1, 6)))
        y = random_circulant(rng, int(rng.integers(1, 6)))
        jm = graph_matrix(join(x, y), "adjacency")
        t = float(rng.uniform(0, 6))
        u_full = oracle_transition(jm, t)
        for u in range(x.order):
            for v in range(x.order):
                got = join_entry(x, y, u, v, t, "adjacency")
                assert abs(got - u_full[u, v]) <= 1e-9
        got_cross = join_entry(x, y, 0, x.order, t, "adjacency")
        assert abs(got_cross - u_full[0, x.order]) <= 1e-9


def test_alpha_fixed_value():
    params = join_params(family("C", 6), family("O", 2), "laplacian")
    # m=6, n=2 at t=pi/2: (6 e^{-2it} + 2 e^{6it} - 8)/48 = -1/3
    assert alpha(params, math.pi / 2) == pytest.approx(-1.0 / 3.0)
    assert abs(alpha(params, 0.0)) <= 1e-12


def test_alpha_broadcasts_and_bound():
    params = join_params(family("C", 6), family("O", 2), "laplacian")
    ts = np.linspace(0.0, 4 * math.pi, 999)
    vals = alpha(params, ts)
    assert vals.shape == ts.shape
    assert np.max(np.abs(vals)) <= 2.0 / params.m + 1e-12


def test_lattice_membership():
    params = join_params(family("C", 6), family("O", 2), "laplacian")
    # gcd(m, n) = 2, so the revival lattice is spaced pi
    assert in_T(params, math.pi)
    assert in_T(params, 3 * math.pi)
    assert not in_T(params, math.pi / 2)
    vals = alpha(params, np.array([math.pi, 2 * math.pi, 3 * math.pi]))
    assert np.allclose(vals, 0.0, atol=1e-12)


def _reading(p):
    return (p.distinguished, p.lam_plus, p.lam_minus, p.root, p.time_sign, p.phase_rate, p.offsets)


def test_the_reading_of_a_laplacian_join():
    params = join_params(family("C", 6), family("O", 2), "laplacian")
    assert _reading(params) == (0, 2, -6, 8, -1, 2, (2, -6))
    with pytest.raises(ValueError, match="unknown matrix kind"):
        JoinParams.of(6, 2, "signless")


def test_adjacency_lattice_membership_with_integer_offsets():
    # K4 v K4: k = ell = 3, lam+ = 7 and lam- = -1, offsets 4 and -4
    params = join_params(family("K", 4), family("K", 4), "adjacency")
    assert _reading(params) == (3.0, 7.0, -1.0, 8.0, 1, 0, (4, -4))
    # gcd 4: the mimicry lattice is spaced pi/2
    for j in range(1, 5):
        assert in_T(params, j * math.pi / 2)
        assert abs(alpha(params, j * math.pi / 2)) <= 1e-12
    assert not in_T(params, math.pi / 4)
    # the offsets share their valuation, so the odd multiples of pi/4 reach 2/m
    assert abs(alpha(params, math.pi / 4)) == pytest.approx(0.5, abs=1e-12)
    ts = np.linspace(0.0, 4 * math.pi, 999)
    assert np.max(np.abs(alpha(params, ts))) <= 0.5 + 1e-12


# a looped part whose degree 1.5 is not an integer: the gap k - ell = -0.5
# leaves the fresh offsets irrational, so no lattice exists
_LOOPED = family("O_loops", 2, 1.5)


def test_adjacency_membership_falls_back_to_the_numeric_test():
    params = join_params(_LOOPED, family("C", 5), "adjacency")
    assert params.offsets is None
    assert in_T(params, 0.0)
    ts = np.linspace(0.1, 20.0, 200)
    defects = np.abs(alpha(params, ts))
    for t, defect in zip(ts, defects):
        assert in_T(params, float(t)) == (defect <= 1e-9)
    assert defects.max() > 0.1


def test_join_entry_and_bound_sweep_on_a_looped_part():
    x, y = _LOOPED, family("C", 5)
    full = graph_matrix(join(x, y), "adjacency")
    for t in (0.3, 1.7, 5.0):
        exact = oracle_transition(full, t)
        part = oracle_transition(graph_matrix(x, "adjacency"), t)
        for u in range(full.shape[0]):
            for v in range(full.shape[0]):
                assert abs(join_entry(x, y, u, v, t, "adjacency") - exact[u, v]) <= 1e-9
        params = join_params(x, y, "adjacency")
        assert abs(alpha(params, t) - (exact[0, 1] - part[0, 1])) <= 1e-9
    rep = bound_sweep(x, y, 0, 1, matrix="adjacency", samples=65)
    assert rep.structured_times == [] and rep.equality_possible is None
    for i in range(0, 65, 8):
        t = float(rep.times[i])
        assert abs(rep.join_magnitudes[i] - abs(oracle_transition(full, t)[0, 1])) <= 1e-9
        part = oracle_transition(graph_matrix(x, "adjacency"), t)
        assert abs(rep.part_magnitudes[i] - abs(part[0, 1])) <= 1e-9


def test_regular_graph_walks_agree_up_to_modulus():
    rng = np.random.default_rng(29)
    graphs = [family("C", 4), family("K", 4), family("CP", 6)]
    graphs += [random_circulant(rng, int(rng.integers(2, 8))) for _ in range(10)]
    for g in graphs:
        dl = decompose(graph_matrix(g, "laplacian"))
        da = decompose(graph_matrix(g, "adjacency"))
        for t in (0.4, 1.1, math.pi / 2):
            ul = transition_matrix(dl, t)
            ua = transition_matrix(da, t)
            assert np.allclose(np.abs(ul), np.abs(ua), atol=1e-9)


# ---------------------------------------------------------------------------
# Krylov walk entries on implicit joins
# ---------------------------------------------------------------------------


def _krylov_cases():
    rng = np.random.default_rng(83)
    x = random_weighted(rng, 5)
    return [
        (JoinTree(Connective.JOIN, (family("Q", 3), family("O", 4))), "laplacian"),
        (JoinTree(Connective.JOIN, (x, random_simple(rng, 3))), "laplacian"),
        (JoinTree(Connective.JOIN, (x,) * 3), "adjacency"),
        (JoinTree(Connective.JOIN, (family("CP", 6), family("K", 3))), "adjacency"),
        (JoinTree(Connective.JOIN, (family("O_loops", 2, 2.0), family("C", 5))), "adjacency"),
        (iterated_tree(parse_iterated_spec("C4 v O2 u O4 v O2")), "laplacian"),
        (family("P", 4), "laplacian"),
        (_SYMMETRIC_LOOPED, "adjacency"),
    ]


# a weighted C6 with a loop of weight 0.5 at every vertex and chords of
# weight 1.5 to the opposite vertex: vertex-transitive, so its quotient at
# 0 has the cells {0}, {1, 5}, {2, 4} and {3}
_SYMMETRIC_LOOPED = WeightedGraph(
    6,
    [(i, (i + 1) % 6, 2.0) for i in range(6)] + [(i, i + 3, 1.5) for i in range(3)],
    [(i, 0.5) for i in range(6)],
)


@pytest.mark.parametrize("tree, kind", _krylov_cases())
def test_krylov_entry_matches_scipy_expm(tree, kind):
    built = tree.build() if isinstance(tree, JoinTree) else tree
    m = graph_matrix(built, kind)
    for t in (0.0, 0.7, math.pi / 2, 5.3):
        exact = oracle_transition(m, t)
        for u, v in ((0, 0), (0, 1), (1, tree.order - 1)):
            entry = krylov_entry(tree, u, v, t, kind)
            assert abs(entry.value - exact[v, u]) <= 1e-9
            assert entry.bound == 0.0 and entry.dimension <= tree.order


def test_a_graph_takes_its_own_quotient():
    # cells of several vertices in a weighted looped graph, not one per vertex
    entry = krylov_entry(_SYMMETRIC_LOOPED, 0, 2, 0.7, "adjacency")
    assert entry.dimension == 4
    exact = oracle_transition(graph_matrix(_SYMMETRIC_LOOPED, "adjacency"), 0.7)
    assert abs(entry.value - exact[2, 0]) <= 1e-12
    assert abs(krylov_entry(_SYMMETRIC_LOOPED, 0, 4, 0.7, "adjacency").value - entry.value) <= 1e-15


@pytest.mark.parametrize("tree, kind", _krylov_cases())
def test_the_lanczos_oracle_matches_scipy_expm(tree, kind):
    # the oracle the quotient route is checked against, on the same inputs,
    # each operator seen through products with the built graph's dense matrix
    built = tree.build() if isinstance(tree, JoinTree) else tree
    m = graph_matrix(built, kind)
    operator = MatvecOnly(len(m), lambda x, kind: m @ x)
    for t in (0.0, 0.7, math.pi / 2, 5.3):
        exact = oracle_transition(m, t)
        for u, v in ((0, 0), (0, 1), (1, tree.order - 1)):
            entry = lanczos_entry(operator, u, v, t, kind)
            assert abs(entry.value - exact[v, u]) <= 1e-9
            assert entry.bound < 1e-10 or entry.dimension == tree.order


def test_krylov_entry_is_exact_when_the_space_is_whole():
    # no symmetry of a path fixes its end vertex, so every cell is one vertex
    entry = krylov_entry(family("P", 4), 0, 3, 1.0)
    assert entry.dimension == 4
    exact = oracle_transition(graph_matrix(family("P", 4), "laplacian"), 1.0)
    assert abs(entry.value - exact[3, 0]) <= 1e-12


@pytest.mark.parametrize(
    "x, y, kind",
    [
        (family("Q", 3), family("O", 4), "laplacian"),
        (family("C", 6), family("O", 2), "laplacian"),
        (family("P", 4), family("O", 3), "laplacian"),
        (family("P", 5), family("K", 2), "laplacian"),
        (family("CP", 8), family("O", 2), "laplacian"),
        (family("K_bipartite", 2, 3), family("O", 1), "laplacian"),
        (family("Q", 4), family("O", 5), "laplacian"),
        (family("K", 4), family("K", 4), "adjacency"),
        (family("C", 8), family("K", 3), "adjacency"),
        (family("CP", 6), family("O", 2), "adjacency"),
    ],
)
def test_krylov_dimension_is_the_join_support_size(x, y, kind):
    tree = JoinTree(Connective.JOIN, (x, y))
    for u in range(tree.order):
        support = join_support(x, y, u, matrix=kind)
        assert lanczos_entry(whole_tree(tree), u, u, 1.0, kind).dimension == len(support)


def test_krylov_entry_takes_only_trees_and_graphs():
    operator = MatvecOnly(3, lambda x, kind: x)
    with pytest.raises(TypeError, match="JoinTree or a WeightedGraph"):
        krylov_entry(operator, 0, 1, 1.0)
    with pytest.raises(ValueError):
        krylov_entry(family("P", 3), 0, 3, 1.0)


def test_krylov_entry_rejects_an_overflowing_exponent():
    # a finite quotient, but |t| * ||B||_1 overflows
    graph = WeightedGraph(3, [(0, 1, 1e300), (1, 2, 1.0)])
    with pytest.raises(NumericError):
        krylov_entry(graph, 0, 1, 1e100, "adjacency")
