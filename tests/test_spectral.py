import itertools
import random

import networkx
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qwjoin import (
    WeightedGraph,
    decompose,
    disjoint_union,
    double_cone_pst,
    eigenvalue_support,
    family,
    graph_matrix,
    join,
    join_params,
    join_support,
    parse_iterated_spec,
    iterated_join,
    iterated_join_support,
    iterated_vertex,
    join_pst,
    spectrum,
    strong_cospectral,
    threshold_transfer_search,
)
from qwjoin import spectral
from qwjoin.cli import main
from qwjoin.errors import NumericError, PreconditionError

from conftest import (
    oracle_strong_cospectral,
    oracle_support,
    random_circulant,
    random_simple,
    random_weighted,
    sets_close,
)


def symmetric(entries):
    a = np.array(entries, dtype=float)
    return (a + a.T) / 2.0


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=16))
@settings(max_examples=60, deadline=None)
def test_decompose_matches_eigh(flat):
    n = int(np.sqrt(len(flat)))
    if n < 2:
        return
    a = symmetric(np.resize(flat, (n, n)))
    d = decompose(a)
    w = np.sort(scipy.linalg.eigh(a, eigvals_only=True, driver="evr"))[::-1]
    expanded = np.repeat(d.eigenvalues, d.multiplicities)
    assert np.allclose(expanded, w, atol=1e-7)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_projector_algebra(order, seed):
    rng = np.random.default_rng(seed)
    a = symmetric(rng.normal(size=(order, order)))
    d = decompose(a)
    # projectors are formed on each access, so bind them once: the loop
    # below tells them apart by identity
    projectors = d.projectors
    total = np.zeros_like(a)
    rebuilt = np.zeros_like(a)
    for lam, proj in zip(d.eigenvalues, projectors):
        assert np.allclose(proj @ proj, proj, atol=1e-8)
        total += proj
        rebuilt += lam * proj
    for p1 in projectors:
        for p2 in projectors:
            if p1 is not p2:
                assert np.allclose(p1 @ p2, 0.0, atol=1e-8)
    assert np.allclose(total, np.eye(order), atol=1e-8)
    assert np.allclose(rebuilt, a, atol=1e-7)


def test_decomposition_holds_quadratic_memory_in_read_only_blocks():
    # a random matrix has all eigenvalues distinct, so one dense projector
    # per eigenvalue would hold order**3 floats
    order = 300
    a = symmetric(np.random.default_rng(300).normal(size=(order, order)))
    d = decompose(a)
    assert d.multiplicities == [1] * order
    held = 0
    for value in vars(d).values():
        for array in value if isinstance(value, list) else [value]:
            if isinstance(array, np.ndarray):
                held += array.nbytes
    assert held <= 3 * order * order * 8
    assert [basis.shape for basis in d.bases] == [(order, 1)] * order
    for basis in d.bases:
        assert not basis.flags.writeable
    with pytest.raises(ValueError):
        d.bases[0][0, 0] = 1.0


def test_decompose_symmetrizes_without_overflow():
    # exactly symmetric input is kept bit for bit
    a = graph_matrix(family("C", 5), "laplacian")
    assert np.array_equal(decompose(a).matrix, a)
    huge = np.array([[0.0, 1e308], [1e308, 0.0]])
    d = decompose(huge)
    assert d.eigenvalues == [1e308, -1e308]
    # a nearly symmetric one is averaged, halves first
    skew = decompose(np.array([[0.0, 1e308], [1e308 * (1 + 1e-12), 0.0]]))
    assert skew.matrix[0, 1] == skew.matrix[1, 0] == 1e308 / 2 + 1e308 * (1 + 1e-12) / 2
    # the Laplacian of that edge has the eigenvalue 2e308, past the float range
    with pytest.raises(ValueError, match="too large"):
        decompose(np.array([[1e308, -1e308], [-1e308, 1e308]]))


def test_decompose_keeps_a_repeated_eigenvalue_whose_sum_overflows():
    # the group's np.mean overflows; the mean of its halves does not
    d = decompose(np.diag([1e308, 1e308]))
    assert d.eigenvalues == [1e308] and d.multiplicities == [2]


def test_cycle_laplacian_decomposition():
    d = decompose(graph_matrix(family("C", 4), "laplacian"))
    assert np.allclose(d.eigenvalues, [4.0, 2.0, 0.0], atol=1e-9)
    assert d.multiplicities == [1, 2, 1]


def _count_decompositions(monkeypatch) -> list:
    """Record each matrix passed to spectral.decompose, by shape and bytes."""
    seen = []
    real = spectral.decompose

    def counting(matrix):
        mat = np.ascontiguousarray(matrix, dtype=float)
        seen.append((mat.shape, mat.tobytes()))
        return real(matrix)

    monkeypatch.setattr(spectral, "decompose", counting)
    return seen


@pytest.mark.parametrize(
    "call, distinct",
    [
        (lambda: main(["analyze", "--family", "C 16", "--pair", "0", "8"]), 1),
        (lambda: join_pst(family("Q", 5), family("O", 4), 0, 31), 1),
        # the first parts O3..O6; the isolated pair of O2 needs no spectrum
        (lambda: threshold_transfer_search(4, 6), 4),
    ],
    ids=["analyze C16", "join_pst Q5+O4", "threshold search"],
)
def test_one_decomposition_per_distinct_matrix(monkeypatch, capsys, call, distinct):
    seen = _count_decompositions(monkeypatch)
    call()
    assert len(seen) == len(set(seen)) == distinct


def test_double_cones_decompose_the_apexes_once(monkeypatch, capsys):
    seen = _count_decompositions(monkeypatch)
    for n in (6, 10, 14):
        double_cone_pst(family("O", n))
    assert main(["pst-search", "--mode", "cp-join", "--m-max", "8"]) == 0
    # the apex pair is shared, so its 2x2 Laplacian is decomposed at most
    # once in the process (not at all if an earlier test got there first)
    assert sum(shape == (2, 2) for shape, _ in seen) <= 1
    assert len(seen) == len(set(seen))


def test_spectrum_is_cached_per_graph_and_read_only():
    g = family("C", 6)
    d = spectrum(g, "laplacian")
    assert spectrum(g, "laplacian") is d
    assert spectrum(g, "adjacency") is not d
    assert spectrum(family("C", 6), "laplacian") is not d
    with pytest.raises(ValueError):
        d.projectors[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 1.0


def test_eigensolver_failure_is_a_numeric_error(monkeypatch, capsys):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError):
        decompose(np.eye(3))
    with pytest.raises(NumericError):
        join_pst(family("C", 4), family("O", 2), 0, 2)
    assert main(["analyze", "--family", "C 4"]) == 3
    assert "internal cross-check failed" in capsys.readouterr().err


def test_eigenvalue_support_path():
    d = decompose(graph_matrix(family("P", 3), "laplacian"))
    # the middle vertex misses the antisymmetric eigenvector at 1
    assert sets_close(eigenvalue_support(d, 0), [3.0, 1.0, 0.0])
    assert sets_close(eigenvalue_support(d, 1), [3.0, 0.0])


def test_support_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_weighted(rng, int(rng.integers(2, 8)))
        for matrix in ("laplacian", "adjacency"):
            m = graph_matrix(g, matrix)
            d = decompose(m)
            for u in range(g.order):
                assert sets_close(eigenvalue_support(d, u), oracle_support(m, u))


def test_atlas_supports_and_sign_partitions_match_the_oracle():
    # every graph on 2..6 vertices, weights 1 and 3, under both matrices
    checks = 0
    for g in networkx.graph_atlas_g():
        order = g.number_of_nodes()
        if not 2 <= order <= 6:
            continue
        for weight in (1.0, 3.0):
            graph = WeightedGraph(order, [(a, b, weight) for a, b in g.edges()])
            for matrix in ("laplacian", "adjacency"):
                m = graph_matrix(graph, matrix)
                d = decompose(m)
                for u in range(order):
                    assert sets_close(eigenvalue_support(d, u), oracle_support(m, u))
                    checks += 1
                for u, v in itertools.combinations(range(order), 2):
                    got = strong_cospectral(d, u, v)
                    want = oracle_strong_cospectral(m, u, v)
                    assert (got is None) == (want is None), (g.edges(), weight, matrix, u, v)
                    if got is not None:
                        assert sets_close(got.plus, want[0]) and sets_close(got.minus, want[1])
                    checks += 1
    assert checks > 15000


def test_the_two_support_readers_agree_on_the_atlas():
    # vertex_supports reads every vertex in one NumPy pass, eigenvalue_support
    # one vertex block by block; on every graph on 1..7 vertices, with unit
    # and with seeded weights in {1, 2, 3}, under both matrices, they agree
    rng = random.Random(32)
    cases = 0
    for g in networkx.graph_atlas_g():
        order = g.number_of_nodes()
        if not 1 <= order <= 7:
            continue
        edges = list(g.edges())
        for weights in ([1.0] * len(edges), [float(rng.choice((1, 2, 3))) for _ in edges]):
            graph = WeightedGraph(order, [(a, b, w) for (a, b), w in zip(edges, weights)])
            for matrix in ("laplacian", "adjacency"):
                d = decompose(graph_matrix(graph, matrix))
                supports = spectral.vertex_supports(d)[0]
                for u in range(order):
                    assert supports[u] == eigenvalue_support(d, u), (edges, weights, matrix, u)
                    cases += 1
    assert cases == 33900


def test_join_params_laplacian():
    p = join_params(family("C", 4), family("O", 2), "laplacian")
    assert (p.m, p.n) == (4, 2)
    reading = (p.distinguished, p.lam_plus, p.lam_minus, p.root, p.time_sign, p.phase_rate, p.offsets)
    assert reading == (0, 2, -4, 6, -1, 2, (2, -4))
    with pytest.raises(PreconditionError):
        join_params(family("O_loops", 2, 1.0), family("O", 2), "laplacian")


def test_join_params_adjacency():
    p = join_params(family("K", 6), family("K", 2), "adjacency")
    assert (p.m, p.n, p.k, p.ell) == (6, 2, 5.0, 1.0)
    assert p.root == pytest.approx(8.0)
    assert p.lam_plus == pytest.approx(7.0)
    assert p.lam_minus == pytest.approx(-1.0)
    with pytest.raises(PreconditionError):
        join_params(family("P", 3), family("K", 2), "adjacency")


def test_join_support_shift_rule_laplacian():
    # connected part: nonzero support shifts by n, then {0, m+n} joins in;
    # for C4 the shifted 4 collides with m+n=6
    x, y = family("C", 4), family("O", 2)
    assert sets_close(join_support(x, y, 0), [6.0, 4.0, 0.0])
    # disconnected part additionally keeps n itself
    assert sets_close(join_support(family("O", 2), y, 0), [4.0, 2.0, 0.0])


def test_join_support_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = random_simple(rng, int(rng.integers(1, 7)))
        y = random_simple(rng, int(rng.integers(1, 7)))
        jm = graph_matrix(join(x, y), "laplacian")
        for u in range(x.order):
            assert sets_close(join_support(x, y, u), oracle_support(jm, u))
        for v in range(y.order):
            assert sets_close(
                join_support(x, y, x.order + v), oracle_support(jm, x.order + v)
            )
    for _ in range(25):
        x = random_circulant(rng, int(rng.integers(1, 7)))
        y = random_circulant(rng, int(rng.integers(1, 7)))
        jm = graph_matrix(join(x, y), "adjacency")
        for u in range(x.order):
            assert sets_close(
                join_support(x, y, u, matrix="adjacency"), oracle_support(jm, u)
            )


def test_iterated_join_support_matches_oracle():
    specs = [
        "C4 v O2 u O4 v O2",
        "O2 v K2 u O1 v K3",
        "K2 v K2",
        "P3 u P3 v O2",
    ]
    for text in specs:
        spec = parse_iterated_spec(text)
        built = iterated_join(spec)
        d = decompose(graph_matrix(built, "laplacian"))
        for j, (part, _) in enumerate(spec.parts, start=1):
            for w in range(part.order):
                got = iterated_join_support(spec, j, w)
                want = eigenvalue_support(d, iterated_vertex(spec, j, w))
                assert sets_close(got, want), (text, j, w, got, want)


def test_iterated_support_regression_values():
    spec = parse_iterated_spec("C4 v O2 u O4 v O2")
    assert sets_close(iterated_join_support(spec, 1, 0), [12.0, 8.0, 6.0, 2.0, 0.0])
