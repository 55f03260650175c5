import functools
import inspect
import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from qwjoin import (
    WeightedGraph,
    disjoint_union,
    family,
    graph_matrix,
    is_connected,
    is_regular,
    is_simple,
    iterated_join,
    iterated_join_analysis,
    iterated_tree,
    iterated_vertex,
    join,
    join_pst,
    join_strong_cospectral,
    krylov_entry,
    parse_iterated_spec,
    self_join,
    self_join_analysis,
)
import qwjoin.graphs as graphs_module
import qwjoin.transfer as transfer_module
from qwjoin.errors import NumericError, PreconditionError
from qwjoin.graphs import Connective, IteratedJoinSpec, JoinTree

from conftest import (
    MatvecOnly,
    ReferenceGraph,
    assert_agrees_with_the_oracles,
    assert_same_graph,
    dense_matrix,
    lanczos_entry,
    reference_build,
    reference_family,
    random_simple,
    random_weighted,
    recursive_matvec,
    whole_tree,
)


def spectrum(graph, matrix="laplacian"):
    return sorted(np.linalg.eigvalsh(graph_matrix(graph, matrix)).round(9))


def test_validation_rejects_malformed_input():
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(1, 1, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, loops=[(0, 1.0), (0, 2.0)])


def test_edges_normalize_and_equality():
    g = WeightedGraph(2, [(1, 0, 2.0)])
    assert g.edges == {(0, 1): 2.0}
    j = join(family("O", 1), family("O", 1))
    assert j == WeightedGraph(2, [(0, 1, 1.0)])


def test_degree_and_matrices_with_loops():
    g = WeightedGraph(2, [(0, 1, 1.0)], loops=[(0, 3.0)])
    # a loop contributes twice to the degree and sits on the diagonal
    assert g.degree(0) == 7.0
    assert g.degree(1) == 1.0
    a = g.adjacency()
    assert a[0, 0] == 3.0 and a[0, 1] == 1.0
    with pytest.raises(PreconditionError):
        g.laplacian()


def test_graphs_are_immutable_and_cache_read_only_matrices():
    g = family("P", 3)
    with pytest.raises(TypeError):
        g.edges[(0, 2)] = 1.0
    with pytest.raises(TypeError):
        g.loops[0] = 1.0
    with pytest.raises(AttributeError):
        g.order = 4
    for cached in (g.adjacency(), g.laplacian(), g.degrees()):
        with pytest.raises(ValueError):
            cached[0] = 5.0
    assert g.adjacency() is g.adjacency() and g.laplacian() is g.laplacian()
    assert list(g.degrees()) == [1.0, 2.0, 1.0]
    with pytest.raises(ValueError):
        g.degree(-1)


def test_family_constructors():
    assert family("K", 4).order == 4 and len(family("K", 4).edges) == 6
    assert family("P", 5).edges == {(i, i + 1): 1.0 for i in range(4)}
    assert family("C", 5) == WeightedGraph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    assert family("O", 3).edges == {}
    assert family("O_loops", 2, -3.0).loops == {0: -3.0, 1: -3.0}
    kb = family("K_bipartite", 2, 3)
    assert kb.order == 5 and len(kb.edges) == 6
    assert is_regular(family("CP", 8)) == 6.0
    assert is_regular(family("Q", 3)) == 3.0


def test_family_counts_must_be_integers():
    assert family("C", 4.0) == family("C", 4)
    assert family("O_loops", 2.0, 0.5).loops == {0: 0.5, 1: 0.5}
    for name, params in [
        ("C", (4.5,)), ("O", (2.5,)), ("Q", (float("inf"),)), ("K", (float("nan"),)),
        ("O_loops", (2.5, 1.0)), ("K_bipartite", (2, 3.5)),
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            family(name, *params)


def test_cocktail_party_small_cases_match_known_graphs():
    assert family("CP", 4) == family("C", 4)
    assert family("CP", 2) == family("O", 2)
    # Q2 is a relabeled 4-cycle: same spectrum, same degree sequence
    assert spectrum(family("Q", 2)) == spectrum(family("C", 4))
    assert sorted(family("Q", 2).degree(v) for v in range(4)) == [2.0] * 4


def test_complete_minus_edge_is_a_join():
    for d in (4, 5, 8):
        assert family("K_minus_e", d) == join(family("O", 2), family("K", d - 2))


def test_join_wires_all_cross_edges():
    x, y = family("P", 3), family("O", 2)
    j = join(x, y)
    assert j.order == 5
    for u in range(3):
        for v in range(3, 5):
            assert j.weight(u, v) == 1.0
    assert j.weight(0, 1) == 1.0 and j.weight(3, 4) == 0.0
    assert is_connected(j)


def test_disjoint_union_blocks():
    g = disjoint_union(family("K", 2), family("K", 2))
    assert g.edges == {(0, 1): 1.0, (2, 3): 1.0}
    assert not is_connected(g)


def test_self_join_of_cocktail_party_type():
    # r copies of O2 joined pairwise give the complete multipartite CP(2r)
    for r in (2, 3, 4):
        sj = self_join(family("O", 2), r)
        assert sj.order == 2 * r
        assert spectrum(sj) == spectrum(family("CP", 2 * r))
        assert is_regular(sj) == 2.0 * r - 2.0


def test_simple_and_regular_predicates():
    assert is_simple(family("C", 6))
    # simplicity is about loops; edge weights are allowed
    assert is_simple(WeightedGraph(2, [(0, 1, 2.0)]))
    assert not is_simple(family("O_loops", 1, 1.0))
    assert is_regular(family("P", 4)) is None
    assert is_regular(family("C", 7)) == 2.0


def test_iterated_spec_parsing_and_vertices():
    spec = parse_iterated_spec("O2 v K2 u O1 v K3")
    assert [g.order for g, _ in spec.parts] == [2, 2, 1, 3]
    assert [c for _, c in spec.parts] == [
        None,
        Connective.JOIN,
        Connective.UNION,
        Connective.JOIN,
    ]
    # unicode connectives parse the same
    assert parse_iterated_spec("O2 ∨ K2 ∪ O1 ∨ K3").parts == spec.parts
    assert [iterated_vertex(spec, j, 0) for j in (1, 2, 3, 4)] == [0, 2, 4, 5]
    built = iterated_join(spec)
    assert built.order == 8


def test_iterated_spec_alternation_enforced():
    with pytest.raises(ValueError):
        parse_iterated_spec("O2 v K2 v O1 v K3")
    with pytest.raises(ValueError):
        parse_iterated_spec("O2 u K2 u O1 u K3")
    with pytest.raises(ValueError):
        parse_iterated_spec("Z9 v K2")
    with pytest.raises(ValueError):
        IteratedJoinSpec([(family("O", 2), Connective.JOIN)])


def test_iterated_join_builds_the_right_graph():
    # ((O2 v O2) u O2) v O2: the final join reaches every earlier vertex
    spec = parse_iterated_spec("O2 v O2 u O2 v O2")
    built = iterated_join(spec)
    assert built.order == 8
    last = [iterated_vertex(spec, 4, w) for w in range(2)]
    for u in range(6):
        for v in last:
            assert built.weight(u, v) == 1.0
    # the union stage left parts 1+2 and part 3 unlinked
    third = [iterated_vertex(spec, 3, w) for w in range(2)]
    for u in range(4):
        for v in third:
            assert built.weight(u, v) == 0.0


# ---------------------------------------------------------------------------
# join trees, and the reference product of the whole tree
# ---------------------------------------------------------------------------


def _operator_cases():
    rng = np.random.default_rng(41)
    x, y = random_weighted(rng, 5), random_simple(rng, 4)
    c5 = family("C", 5)
    cases = [
        ("join", JoinTree(Connective.JOIN, (x, y)), join(x, y)),
        ("union", JoinTree(Connective.UNION, (x, y)), disjoint_union(x, y)),
        (
            "nested",
            JoinTree(Connective.JOIN, (JoinTree(Connective.UNION, (x, y)), c5)),
            join(disjoint_union(x, y), c5),
        ),
        ("edgeless", JoinTree(Connective.JOIN, (family("O", 2), family("O", 7))),
         join(family("O", 2), family("O", 7))),
    ]
    cases += [
        (f"self x{r}", JoinTree(Connective.JOIN, (x,) * r), self_join(x, r))
        for r in range(2, 6)
    ]
    for plan in ("O2 v K2 u O1 v K3", "C4 v O2 u O4 v O2", "P3 u K2 v O3"):
        spec = parse_iterated_spec(plan)
        cases.append((plan, iterated_tree(spec), iterated_join(spec)))
    return cases


_OPERATOR_CASES = _operator_cases()


@pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
@pytest.mark.parametrize(
    "name, tree, built", _OPERATOR_CASES, ids=[c[0] for c in _OPERATOR_CASES]
)
def test_join_tree_matvec_matches_the_built_matrix(name, tree, built, kind):
    # the reference product that whole_tree gives Lanczos, against the built matrix
    assert tree.order == built.order
    assert tree.build() == built
    rng = np.random.default_rng(tree.order)
    for _ in range(3):
        vec = rng.standard_normal(tree.order)
        assert np.allclose(recursive_matvec(tree, vec, kind), dense_matrix(built, kind) @ vec, atol=1e-12)


def test_quotient_with_loops_under_the_adjacency_matrix():
    apex = family("O_loops", 2, 3.0)
    looped = WeightedGraph(4, [(0, 1, 1.5), (1, 3, 2.0)], loops=[(1, -3.0), (2, 0.5)])
    tree = JoinTree(Connective.JOIN, (apex, family("C", 6)))
    assert tree.build() == join(apex, family("C", 6))
    for operator, graph in ((looped, looped), (tree, tree.build())):
        exact = scipy.linalg.expm(0.6j * dense_matrix(graph, "adjacency"))
        for u, v in _every_pair(graph.order):
            entry = krylov_entry(operator, u, v, 0.6, "adjacency")
            assert abs(entry.value - exact[v, u]) <= 1e-12
    with pytest.raises(PreconditionError):
        graphs_module.equitable_quotient(tree, 0, "laplacian")
    with pytest.raises(PreconditionError):
        graphs_module.equitable_quotient(looped, 0, "laplacian")
    with pytest.raises(ValueError, match="unknown matrix kind"):
        graphs_module.equitable_quotient(looped, 0, "signless")


def test_degrees_count_loops_twice():
    g = WeightedGraph(4, [(0, 1, 1.5), (1, 3, 2.0)], loops=[(1, -3.0), (2, 0.5)])
    a = np.array(g.adjacency())
    assert np.array_equal(g.degrees(), a.sum(axis=1) + np.diag(a))
    assert np.array_equal(family("O", 3).degrees(), np.zeros(3))


def test_join_tree_needs_two_children():
    with pytest.raises(ValueError):
        JoinTree(Connective.JOIN, (family("K", 3),))


# ---------------------------------------------------------------------------
# the constructor, the families and the build against the dict-backed reference
# ---------------------------------------------------------------------------


_LABELS = st.integers(-2, 6) | st.integers(-2, 6).map(float)
_WEIGHTS = st.sampled_from([0.0, -0.0, -1.5, math.nan, math.inf, -math.inf, 0.5, 1.0, 2.5, 1e-300])


@st.composite
def _graph_inputs(draw):
    """An order, and edges and loops that may break every rule of the constructor."""
    order = draw(st.integers(1, 5))
    edges = draw(st.lists(st.tuples(_LABELS, _LABELS, _WEIGHTS), max_size=8))
    if edges and draw(st.booleans()):  # one edge again, either way round
        u, v, w = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, v, w), (v, u, w)])))
    loops = draw(st.lists(st.tuples(_LABELS, _WEIGHTS), max_size=4))
    if draw(st.booleans()):
        loops = dict(loops)
    return order, edges, loops


def _outcome(make, order, edges, loops):
    try:
        return make(order, edges, loops)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_graph_inputs(), st.booleans())
def test_constructor_matches_the_dict_reference(inputs, as_array):
    order, edges, loops = inputs
    want = _outcome(ReferenceGraph, order, edges, loops)
    if as_array:  # an (N, 3) array is an edge list too
        edges = np.array(edges, dtype=float).reshape(-1, 3)
    got = _outcome(WeightedGraph, order, edges, loops)
    if isinstance(want, str):
        assert got == want  # the same first fault, with the same message
    else:
        assert_same_graph(got, want)


def test_the_constructor_keeps_its_own_copy_of_an_edge_array():
    edges = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 3.0]])
    graph = WeightedGraph(3, edges)
    edges[:] = 0.0
    assert list(graph.rows) == [0, 1] and list(graph.cols) == [1, 2]
    assert list(graph.weights) == [2.0, 3.0]
    for column in (graph.rows, graph.cols, graph.weights, graph.loop_at, graph.loop_weights):
        with pytest.raises(ValueError):
            column[:1] = 0


@pytest.mark.parametrize(
    "name, params",
    [("O", (n,)) for n in range(1, 5)]
    + [("O_loops", (n, k)) for n in range(1, 5) for k in (-3.0, 0.5)]
    + [(name, (n,)) for name in ("K", "P") for n in range(1, 7)]
    + [("C", (n,)) for n in range(3, 8)]
    + [("CP", (m,)) for m in range(2, 11, 2)]
    + [("Q", (p,)) for p in range(0, 6)]
    + [("K_minus_e", (d,)) for d in range(3, 8)]
    + [("K_bipartite", (a, b)) for a in range(4) for b in range(4) if a + b],
)
def test_families_match_the_list_reference(name, params):
    assert_same_graph(family(name, *params), reference_family(name, *params))


def test_analyses_read_the_arrays_not_the_mappings():
    part, apexes, looped = family("C", 6), family("O", 2), family("O_loops", 1, 0.5)
    join_pst(part, apexes, 0, 3)
    assert join_strong_cospectral(looped, looped, 0, 1, matrix="adjacency").plus == [1.5]
    self_join_analysis(part, 3, 0, 3)
    self_join_analysis(family("O_loops", 2, 0.5), 2, 0, 1, matrix="adjacency")
    is_connected(part), is_regular(part), is_simple(looped), part.laplacian()
    spec = parse_iterated_spec("O2 v O2 u O4 v O4")
    assert iterated_join_analysis(spec, 1, 0, 1).pst
    for graph in (part, apexes, looped, *spec.graphs):
        assert "edges" not in graph._cache and "loops" not in graph._cache


@st.composite
def _leaves(draw, loops: bool):
    order = draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
    looped = draw(st.lists(st.integers(0, order - 1), unique=True)) if loops else []
    return WeightedGraph(
        order,
        [(u, v, draw(weight)) for u, v in chosen],
        [(v, draw(st.sampled_from([-2.0, 0.5, 3.0]))) for v in looped],
    )


@st.composite
def _regular_leaves(draw, loops: bool):
    """Edgeless, cycles and complete graphs of one weight, with equal loops under loops."""
    order = draw(st.integers(1, 4))
    weight = draw(st.sampled_from([0.5, 1.0, 3.0]))
    shape = draw(st.sampled_from(["O", "C", "K"] if order >= 3 else ["O", "K"]))
    if shape == "O":
        edges = []
    elif shape == "C":
        edges = [(i, (i + 1) % order, weight) for i in range(order)]
    else:
        edges = [(u, v, weight) for u in range(order) for v in range(u + 1, order)]
    loop = draw(st.sampled_from([None, -2.0, 0.5])) if loops else None
    return WeightedGraph(order, edges, [] if loop is None else [(v, loop) for v in range(order)])


def _trees(loops: bool):
    connective = st.sampled_from(list(Connective))
    nodes = st.recursive(
        st.one_of(_leaves(loops), _regular_leaves(loops)),
        lambda inner: st.one_of(
            st.builds(lambda c, kids: JoinTree(c, tuple(kids)), connective,
                      st.lists(inner, min_size=2, max_size=3)),
            st.builds(lambda c, kid, r: JoinTree(c, (kid,) * r), connective,
                      inner, st.integers(2, 4)),
        ),
        max_leaves=5,
    )
    return st.builds(lambda c, kids: JoinTree(c, tuple(kids)), connective,
                     st.lists(nodes, min_size=2, max_size=3))


_KIND_AND_TREE = st.sampled_from(["laplacian", "adjacency"]).flatmap(
    lambda kind: st.tuples(st.just(kind), _trees(loops=kind == "adjacency"))
)


@settings(deadline=None)
@given(_KIND_AND_TREE)
def test_build_equals_the_recursive_fold(kind_and_tree):
    _, tree = kind_and_tree
    assert_same_graph(tree.build(), reference_build(tree))


def test_self_join_confirmation_scales_with_the_support_not_the_copies():
    cert = self_join_analysis(family("C", 4), 1023, 0, 2)
    assert cert.pst and cert.confirmation >= 1 - 1e-9
    # the quotient of the 4,092-vertex self-join at 0: C4's cells {0}, {1, 3}
    # and {2}, and one cell for the other copies
    assert cert.details["confirmation_route"] == "whole-quotient"
    assert cert.details["krylov_operator_order"] == 4
    assert cert.details["krylov_dimension"] == 4
    # Lanczos on the whole tree stops at the support's three eigenvalues
    tree = JoinTree(Connective.JOIN, (family("C", 4),) * 1023)
    assert lanczos_entry(whole_tree(tree), 0, 2, cert.time.value).dimension == 3


def test_quotient_product_of_a_plan_nested_past_the_recursion_limit():
    # a left-nested plan nests one tree level per part; 1,500 single-vertex
    # parts make the threshold graph whose vertex v is joined to all before it
    # exactly when part v + 1 is joined
    n = 1500
    conns = [None] + [
        Connective.JOIN if j % 2 == n % 2 else Connective.UNION for j in range(2, n + 1)
    ]
    tree = iterated_tree(IteratedJoinSpec([(family("O", 1), c) for c in conns]))
    a = np.zeros((n, n))
    for v, conn in enumerate(conns):
        if conn is Connective.JOIN:
            a[:v, v] = a[v, :v] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    # seen from vertex 0 every other cell is one part's vertex, root first,
    # so the quotient is the matrix itself with the vertices in that order
    cells = [0, *range(n - 1, 0, -1)]
    for kind, m in (("adjacency", a), ("laplacian", lap)):
        quotient = graphs_module.equitable_quotient(tree, 0, kind)
        assert quotient.order == n
        assert np.array_equal(quotient.matrix(), m[np.ix_(cells, cells)])


def _stacked_cone(count: int) -> IteratedJoinSpec:
    """O2 v O2 u O4 v O4 u ... with count parts, all past the second of order 4."""
    conns = [None] + [
        Connective.JOIN if j % 2 == count % 2 else Connective.UNION
        for j in range(2, count + 1)
    ]
    orders = [2, 2] + [4] * (count - 2)
    return IteratedJoinSpec([(family("O", k), c) for k, c in zip(orders, conns)])


def test_a_300_part_plan_confirms_on_its_whole_quotient():
    # a quotient of order 301 at vertex 0, exponentiated whole, against
    # Lanczos on the whole tree's recursive product
    spec = _stacked_cone(300)
    tree = iterated_tree(spec)
    cert = iterated_join_analysis(spec, 1, 0, 1)
    assert cert.pst
    assert (cert.details["confirmation_route"], cert.details["krylov_operator"]) == (
        "whole-quotient", "quotient")
    assert cert.details["krylov_operator_order"] == cert.details["krylov_dimension"] == 301
    whole = whole_tree(tree)
    reference = lanczos_entry(whole, 0, 1, cert.time.value)
    assert reference.dimension == 301
    assert abs(cert.confirmation - abs(reference.value)) <= 1e-12
    entry = krylov_entry(tree, 0, 5, 0.7, "adjacency")
    assert entry.dimension == 301
    assert abs(entry.value - lanczos_entry(whole, 0, 5, 0.7, "adjacency").value) <= 1e-12


def _alternating_plan(first: WeightedGraph, count: int) -> IteratedJoinSpec:
    conns = [None] + [
        Connective.JOIN if j % 2 == count % 2 else Connective.UNION
        for j in range(2, count + 1)
    ]
    return IteratedJoinSpec(
        [(first, conns[0])] + [(family("O", 1), c) for c in conns[1:]]
    )


def test_build_of_a_plan_nested_past_a_lowered_recursion_limit():
    # 160 parts nest 159 tree levels, more than the 60 frames left above the caller
    count = 160
    plan = _alternating_plan(family("O", 1), count)
    stem = _alternating_plan(family("O", 2), count)
    # the fold as written out stage by stage, with no tree at all
    want = functools.reduce(
        lambda acc, part: (join if part[1] is Connective.JOIN else disjoint_union)(acc, part[0]),
        plan.parts[1:],
        plan.parts[0][0],
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        built = iterated_join(plan)
        stem_built = iterated_join(stem)
        cert = iterated_join_analysis(stem, 1, 0, 1)
    finally:
        sys.setrecursionlimit(limit)
    # the same joins in the same order, so the same edges in the same order
    assert list(built.edges.items()) == list(want.edges.items())
    assert cert == iterated_join_analysis(stem, 1, 0, 1)
    # the stem's second part is O1, not 2 modulo 4: a negative the oracles must share
    assert not cert.pst
    assert_agrees_with_the_oracles(cert, graph_matrix(stem_built, "laplacian"), 0, 1)


# ---------------------------------------------------------------------------
# Krylov entries on a tree's equitable quotient
# ---------------------------------------------------------------------------


def _check_quotient_entries(kind, tree, t):
    """Every entry of a small tree's walk against expm, and Lanczos on each quotient."""
    exact = scipy.linalg.expm(1j * t * dense_matrix(tree.build(), kind))
    whole = whole_tree(tree)
    for u in range(tree.order):
        dimension = lanczos_entry(whole, u, u, t, kind).dimension
        quotient = graphs_module.equitable_quotient(tree, u, kind)
        if quotient is not None:  # Lanczos on the quotient alone stops where it does on the tree
            b = quotient.matrix()
            cell = quotient.cell(u)[0]
            lanczos = lanczos_entry(MatvecOnly(len(b), lambda x, kind: b @ x), cell, cell, t, kind)
            assert lanczos.dimension == dimension
        else:  # a cell with no common row sum: the built graph gives the quotient
            assert kind == "adjacency"
            quotient = graphs_module.equitable_quotient(tree.build(), u, kind)
        assert quotient.order <= tree.order
        for v in range(tree.order):
            entry = krylov_entry(tree, u, v, t, kind)
            assert abs(entry.value - exact[v, u]) <= 1e-9
            assert (entry.dimension, entry.bound) == (quotient.order, 0.0)


@settings(deadline=None)
@given(_KIND_AND_TREE, st.sampled_from([0.3, math.pi / 2, 2.9]))
def test_quotient_entries_match_scipy_and_the_whole_tree_dimension(kind_and_tree, t):
    kind, tree = kind_and_tree
    assume(tree.order <= 16)
    _check_quotient_entries(kind, tree, t)


# symmetric leaves, so that the quotients take cells of several vertices; each
# tree with a vertex of such a leaf
_SYMMETRIC_TREES = {
    "C5 v O3": (JoinTree(Connective.JOIN, (family("C", 5), family("O", 3))), 0),
    "Q3 v K2": (JoinTree(Connective.JOIN, (family("Q", 3), family("K", 2))), 0),
    "O1 v (CP6 u O2)": (JoinTree(Connective.JOIN, (
        family("O", 1), JoinTree(Connective.UNION, (family("CP", 6), family("O", 2))))), 1),
    "C4 v C4 v C4": (JoinTree(Connective.JOIN, (family("C", 4),) * 3), 0),
    "(Q2 v O1) u C6": (JoinTree(Connective.UNION, (
        JoinTree(Connective.JOIN, (family("Q", 2), family("O", 1))), family("C", 6))), 0),
    "K_bipartite 2 3 v CP4": (JoinTree(Connective.JOIN, (
        family("K_bipartite", 2, 3), family("CP", 4))), 0),
}


def _every_pair(n):
    return itertools.product(range(n), repeat=2)


@pytest.mark.parametrize("reference", ["dense", "matrix-free"])
@pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
@pytest.mark.parametrize("name", list(_SYMMETRIC_TREES))
def test_quotient_entries_on_symmetric_leaves(name, kind, reference):
    # against expm of the built graph's dense matrix, or against Lanczos on
    # the tree's recursive product, which forms no matrix
    tree, u = _SYMMETRIC_TREES[name]
    if reference == "dense":
        _check_quotient_entries(kind, tree, 0.7)
    else:
        whole = whole_tree(tree)
        for w, v in _every_pair(tree.order):
            want = lanczos_entry(whole, w, v, 0.7, kind).value
            assert abs(krylov_entry(tree, w, v, 0.7, kind).value - want) <= 1e-10
    # u's leaf has fewer cells than vertices
    partition = graphs_module.equitable_quotient(tree, u, kind).partition
    assert len(partition.sizes) < len(partition.cell)


def _check_quotient_routes(order, kind, pairs):
    """Entries of x v K3, x of order - 1, against expm, and the quotient from x's side."""
    # from the part, the quotient has its order - 1 vertices and the one cell K3
    x = random_weighted(np.random.default_rng(order), order - 1)
    tree = JoinTree(Connective.JOIN, (x, family("K", 3)))
    exact = scipy.linalg.expm(1j * 0.9 * dense_matrix(tree.build(), kind))
    for u, v in pairs(tree.order):
        entry = krylov_entry(tree, u, v, 0.9, kind)
        assert abs(entry.value - exact[v, u]) <= 1e-9
        assert entry.bound == 0.0
        if u < x.order:
            assert entry.dimension == order
        elif kind == "adjacency":  # from K3, x is a cell with no common row sum
            assert graphs_module.equitable_quotient(tree, u, kind) is None
            built = graphs_module.equitable_quotient(tree.build(), u, kind)
            assert entry.dimension == built.order


def _sampled_pairs(n):
    """A dozen seeded (u, v), each u of the part and each v anywhere."""
    rng = np.random.default_rng(n)
    return zip(rng.integers(0, n - 3, 12).tolist(), rng.integers(0, n, 12).tolist())


@pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
@pytest.mark.parametrize("order, pairs", [
    (16, _every_pair), (17, _every_pair), (65, _sampled_pairs), (257, _sampled_pairs),
], ids=["16", "17", "65", "257"])
def test_quotients_of_every_order_are_exponentiated_whole(order, pairs, kind):
    _check_quotient_routes(order, kind, pairs)


# a 0.8-regular weighted circulant whose row sums differ in the last bit,
# so is_regular accepts it and the exact row-sum test does not
_NEARLY_REGULAR = WeightedGraph(6, [
    (0, 1, 0.05), (0, 5, 0.05), (1, 2, 0.05), (2, 3, 0.05), (4, 5, 0.05),
    (2, 5, 0.7), (3, 4, 0.05), (0, 3, 0.7), (1, 4, 0.7),
])


def test_an_irregular_sibling_under_the_adjacency_takes_the_tree_route():
    # the cell P3 forms has no one row sum, nor has the nearly regular
    # circulant's, so each tree is built and its graph's quotient taken
    assert is_regular(_NEARLY_REGULAR) == pytest.approx(0.8)
    assert graphs_module._row_sum(_NEARLY_REGULAR, {}) is None
    for x, y, u, v in ((family("C", 4), family("P", 3), 0, 2),
                       (family("O", 2), _NEARLY_REGULAR, 0, 1)):
        tree = JoinTree(Connective.JOIN, (x, y))
        exact = scipy.linalg.expm(1j * 0.8 * dense_matrix(tree.build(), "adjacency"))
        assert graphs_module.equitable_quotient(tree, u, "adjacency") is None
        built = graphs_module.equitable_quotient(tree.build(), u, "adjacency")
        entry = krylov_entry(tree, u, v, 0.8, "adjacency")
        assert (entry.dimension, entry.bound) == (built.order, 0.0)
        assert abs(entry.value - exact[v, u]) <= 1e-9
    # from P3's side the other cell is C4, which is regular
    tree = JoinTree(Connective.JOIN, (family("C", 4), family("P", 3)))
    exact = scipy.linalg.expm(1j * 0.8 * dense_matrix(tree.build(), "adjacency"))
    entry = krylov_entry(tree, 4, 6, 0.8, "adjacency")
    assert entry.dimension == graphs_module.equitable_quotient(tree, 4, "adjacency").order == 4
    assert abs(entry.value - exact[6, 4]) <= 1e-9


def test_row_sums_past_the_float_range_give_no_finite_entry():
    # each row of the triangle sums to 2e308, past the float range: the leaf
    # has no row sum, so the tree is built, and the entry is not finite
    big = WeightedGraph(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
    assert graphs_module._row_sum(big, {}) is None
    tree = JoinTree(Connective.JOIN, (family("O", 2), big))
    # the degrees and the exponential's 1-norm overflow to inf, with no warning
    for operator in (tree, big):
        with pytest.raises(NumericError, match="not finite"):
            krylov_entry(operator, 0, 1, 0.5, "adjacency")


def test_a_double_cone_over_four_million_vertices_stays_uncompiled():
    tree = JoinTree(Connective.JOIN, (family("O", 2), family("O", 4_000_000)))
    entry = krylov_entry(tree, 0, 1, math.pi / 2, "laplacian")
    assert (entry.dimension, entry.bound) == (3, 0.0)
    # |U(pi/2)[1, 0]| = n / (n + 2) for n = 0 modulo 4: no transfer. The
    # whole quotient reads 1 - 5.000909e-7, 9.1e-11 from 2 / (n + 2) (Lanczos
    # on the whole tree: 1 - 5.000866008e-7): the phase t n = 6.3e6 alone is
    # rounded to about 1e-9 in the exponential
    assert abs((1 - abs(entry.value)) - 5.000909e-7) <= 1e-12
    assert abs(abs(entry.value) - 4_000_000 / 4_000_002) <= 1e-9


def test_the_quotient_keeps_the_tree_preconditions():
    looped = JoinTree(Connective.JOIN, (family("C", 4), family("O_loops", 2, 1.0)))
    with pytest.raises(PreconditionError, match="simple graphs only"):
        krylov_entry(looped, 0, 2, 1.0, "laplacian")
    with pytest.raises(ValueError, match="unknown matrix kind"):
        krylov_entry(looped, 0, 2, 1.0, "signless")
    for u, v in ((0, 6), (6, 0), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            krylov_entry(looped, u, v, 1.0, "adjacency")


def test_confirmation_reads_no_matrix_and_no_eigensolver(monkeypatch):
    # a Laplacian double cone and a regular adjacency join, each with the
    # order of its quotient at u
    cases = [(family("O", 2), family("C", 6), 0, 1, "laplacian", 3),
             (family("Q", 3), family("Q", 3), 0, 7, "adjacency", 5)]
    certs = [join_pst(x, y, u, v, kind) for x, y, u, v, kind, _ in cases]
    assert all(cert.pst for cert in certs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the confirmation must not read this")

    monkeypatch.setattr(WeightedGraph, "laplacian", forbidden)
    monkeypatch.setattr(WeightedGraph, "adjacency", forbidden)
    monkeypatch.setattr(JoinTree, "build", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(transfer_module, "spectrum", forbidden)
    monkeypatch.setattr(transfer_module, "carry_join", forbidden)
    for (x, y, u, v, _, order), cert in zip(cases, certs):
        # the check runs afresh on a certificate stripped of its confirmation
        cert = replace(cert, confirmation=None, details={})
        confirmed = transfer_module._confirm_transfer(
            JoinTree(Connective.JOIN, (x, y)), u, v, cert, "join"
        )
        assert confirmed.confirmation >= 1 - 1e-9
        assert confirmed.details["krylov_operator"] == "quotient"
        assert confirmed.details["krylov_operator_order"] == order
        assert confirmed.details["confirmation_route"] == "whole-quotient"


# ---------------------------------------------------------------------------
# equitable partitions by colour refinement
# ---------------------------------------------------------------------------


def _assert_equitable(graph, u, partition):
    """u is alone in its cell, the cells are equitable and the block is P^T M P."""
    cell, sizes = partition.cell, partition.sizes
    assert sizes[cell[u]] == 1 and np.array_equal(np.bincount(cell), sizes)
    first = np.unique(cell, return_index=True)[1]
    assert (np.diff(first) > 0).all()  # the cells are numbered by their first vertices
    indicator = np.zeros((graph.order, len(sizes)))
    indicator[np.arange(graph.order), cell] = 1.0
    normalized = indicator / np.sqrt(sizes)
    kinds = ["adjacency"] + (["laplacian"] if is_simple(graph) else [])
    block = partition.block.adjacency()
    for kind in kinds:
        m = dense_matrix(graph, kind)
        into = m @ indicator  # the weights are dyadic, so these sums are exact
        assert np.array_equal(into, into[first][cell])
        want = block.copy()
        if kind == "laplacian":  # the block's edges negated, the degrees minus Q_aa on the diagonal
            want = -want
            np.fill_diagonal(want, partition.laplacian_diagonal)
        np.testing.assert_allclose(want, normalized.T @ m @ normalized, rtol=1e-12, atol=1e-12)


@st.composite
def _refined_graphs(draw):
    """Weighted graphs with loops, some of them with symmetry, and a vertex."""
    graph = draw(st.one_of(
        _leaves(loops=True),
        _regular_leaves(loops=True),
        st.builds(family, st.just("C"), st.integers(3, 9)),
        st.builds(family, st.just("Q"), st.integers(0, 4)),
        st.builds(family, st.just("CP"), st.sampled_from([4, 6, 8])),
        st.builds(lambda x, r: self_join(x, r), _regular_leaves(loops=True), st.integers(1, 3)),
        st.builds(disjoint_union, _regular_leaves(loops=True), _leaves(loops=True)),
    ))
    return graph, draw(st.integers(0, graph.order - 1))


@settings(deadline=None)
@given(_refined_graphs())
def test_refinement_is_equitable_with_the_vertex_alone(graph_and_vertex):
    graph, u = graph_and_vertex
    partition = graphs_module.equitable_partition(graph, u)
    _assert_equitable(graph, u, partition)
    # kept on the graph, one partition per vertex
    assert graphs_module.equitable_partition(graph, u) is partition


@settings(deadline=None)
@given(_refined_graphs(), st.integers(0, 2**32 - 1))
def test_refinement_does_not_depend_on_its_hash_weights(graph_and_vertex, seed):
    # the coarsest equitable partition with u alone is unique and the cells
    # are numbered by their first vertices, so the fixed table, a drawn one
    # and one that ties every cell give one partition and one quotient
    graph, u = graph_and_vertex
    kinds = ["adjacency"] + (["laplacian"] if is_simple(graph) else [])
    tables = [graphs_module._cell_weights,
              lambda count: np.random.default_rng(seed).integers(1, 1 << 31, count).astype(float),
              lambda count: np.ones(count)]
    seen = []
    for table in tables:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs_module, "_cell_weights", table)
            fresh = WeightedGraph(graph.order, [(*ends, w) for ends, w in graph.edges.items()],
                                  dict(graph.loops))
            quotients = [graphs_module.equitable_quotient(fresh, u, kind) for kind in kinds]
        partition = quotients[0].partition
        block = partition.block
        if block is not fresh:  # a computed block lists its edges and loops in (row, col) order
            assert (np.diff(block.rows * block.order + block.cols) > 0).all()
            assert (np.diff(block.loop_at) > 0).all()
        seen.append((partition, [quotient.matrix() for quotient in quotients]))
    (want, want_matrices), *others = seen
    for partition, matrices in others:
        assert np.array_equal(partition.cell, want.cell)
        assert np.array_equal(partition.sizes, want.sizes)
        assert partition.laplacian_diagonal.tobytes() == want.laplacian_diagonal.tobytes()
        assert partition.block.edges == want.block.edges
        assert partition.block.loops == want.block.loops
        assert all(a.tobytes() == b.tobytes() for a, b in zip(matrices, want_matrices))


@pytest.mark.parametrize("name, params, cells", [
    *[("Q", (d,), d + 1) for d in range(1, 7)],
    *[("C", (n,), n // 2 + 1) for n in range(3, 11)],
    *[("CP", (m,), 3) for m in (4, 6, 8, 12)],
    *[("K", (n,), 2) for n in (2, 3, 5, 9)],
    *[("K_bipartite", (a, b), 3) for a, b in ((2, 1), (2, 2), (3, 5), (6, 4))],
])
def test_refinement_cell_counts_on_families(name, params, cells):
    graph = family(name, *params)
    # these families are vertex-transitive (K_bipartite on its first side)
    for u in range(params[0] if name == "K_bipartite" else graph.order):
        partition = graphs_module.equitable_partition(graph, u)
        assert len(partition.sizes) == cells
        _assert_equitable(graph, u, partition)


def test_a_forced_hash_collision_still_gives_an_equitable_partition(monkeypatch):
    # equal weights for every cell hash each vertex by its degree alone, so
    # only the exact check can split the cells
    monkeypatch.setattr(graphs_module, "_cell_weights", lambda count: np.ones(count))
    graphs = [family("Q", 3), family("C", 7), family("P", 5), family("K_bipartite", 3, 4),
              family("CP", 8), random_weighted(np.random.default_rng(5), 7),
              WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 2.0)], [(0, 0.5), (3, 0.5)])]
    for graph in graphs:
        for u in range(graph.order):
            _assert_equitable(graph, u, graphs_module.equitable_partition(graph, u))
    # Q3 at 0 splits all the way down to its distance classes
    assert len(graphs_module.equitable_partition(family("Q", 3), 0).sizes) == 4


def test_a_leaf_with_no_symmetry_keeps_its_edge_arrays():
    graph = random_weighted(np.random.default_rng(17), 9)
    partition = graphs_module.equitable_partition(graph, 4)
    assert partition.block is graph
    assert np.array_equal(partition.cell, np.arange(9)) and not (partition.sizes - 1).any()
    quotient = graphs_module.equitable_quotient(
        JoinTree(Connective.JOIN, (graph, family("O", 3))), 4, "laplacian")
    want = np.zeros((10, 10))
    want[:9, :9] = dense_matrix(graph, "laplacian") + 3 * np.eye(9)
    want[9, :9] = want[:9, 9] = -math.sqrt(3)
    want[9, 9] = 9
    assert np.array_equal(quotient.matrix(), want)


def test_refinement_rejects_a_vertex_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        graphs_module.equitable_partition(family("C", 4), 4)


@pytest.mark.parametrize("d", [5, 8, 11])
def test_a_cube_cone_confirms_on_a_quotient_of_order_d_plus_2(d):
    tree = JoinTree(Connective.JOIN, (family("Q", d), family("O", 4)))
    entry = krylov_entry(tree, 0, 2**d - 1, math.pi / 2)
    assert entry.dimension == d + 2
    # the cube's 2^d vertices from 0 fall into d + 1 distance classes
    assert abs(abs(entry.value) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# connected components against networkx
# ---------------------------------------------------------------------------


def _against_networkx(graph):
    import networkx as nx

    reference = nx.Graph()
    reference.add_nodes_from(range(graph.order))
    reference.add_edges_from(zip(graph.rows.tolist(), graph.cols.tolist()))
    label = graphs_module._component_labels(graph)
    for u in range(graph.order):
        component = np.flatnonzero(label == label[u]).tolist()
        assert component == sorted(nx.node_connected_component(reference, u))
    assert is_connected(graph) == nx.is_connected(reference)


def _atlas():
    import networkx as nx

    return [WeightedGraph(max(1, len(g)), [(u, v, 1.0) for u, v in g.edges()])
            for g in nx.graph_atlas_g()]


def test_components_match_networkx_on_the_atlas_and_unions():
    atlas = _atlas()
    for graph in atlas:
        _against_networkx(graph)
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = (atlas[i] for i in rng.integers(0, len(atlas), 2))
        _against_networkx(disjoint_union(x, y))


@pytest.mark.parametrize("name, sizes", [
    ("O", [(n,) for n in range(1, 6)]), ("K", [(n,) for n in range(1, 7)]),
    ("P", [(n,) for n in range(1, 40)]), ("C", [(n,) for n in range(3, 12)]),
    ("CP", [(m,) for m in (2, 4, 6, 10)]), ("Q", [(d,) for d in range(0, 6)]),
    ("K_minus_e", [(d,) for d in range(3, 7)]), ("O_loops", [(n, 0.5) for n in range(1, 5)]),
    ("K_bipartite", [(a, b) for a in range(0, 4) for b in range(0, 4) if a + b]),
])
def test_components_match_networkx_on_families(name, sizes):
    for params in sizes:
        graph = family(name, *params)
        _against_networkx(graph)
        _against_networkx(disjoint_union(graph, family("P", 3)))


def test_is_connected_decides_dense_and_sparse_parts_by_their_edge_count(monkeypatch):
    def forbidden(graph):
        raise AssertionError("the components must not be labelled")

    monkeypatch.setattr(graphs_module, "_component_labels", forbidden)
    dense = [family("K", n) for n in range(2, 8)]
    dense += [family("CP", 8), family("C", 4), family("P", 3), family("K_minus_e", 4)]
    assert all(is_connected(graph) for graph in dense)
    # fewer than order - 1 edges: disconnected without labelling either
    sparse = (family("O", 5), disjoint_union(family("P", 3), family("K", 1)))
    assert not any(is_connected(graph) for graph in sparse)
    # in between, the labelling decides
    with pytest.raises(AssertionError, match="must not be labelled"):
        is_connected(family("Q", 3))


def test_the_edge_count_bound_is_tight():
    # K_{n-1} beside an isolated vertex has (n - 1)(n - 2)/2 edges and is
    # disconnected; one more edge to the isolated vertex connects it
    for n in range(2, 9):
        apart = disjoint_union(family("K", n - 1), family("O", 1))
        assert 2 * len(apart.weights) == (n - 1) * (n - 2)
        assert not is_connected(apart)
        linked = WeightedGraph(n, [*zip(apart.rows, apart.cols, apart.weights), (0, n - 1, 1.0)])
        assert is_connected(linked)
        _against_networkx(apart)
        _against_networkx(linked)
