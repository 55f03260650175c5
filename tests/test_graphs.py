import functools
import inspect
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
    krylov_entry,
    parse_iterated_spec,
    self_join,
    self_join_analysis,
)
import qwjoin.graphs as graphs_module
import qwjoin.transfer as transfer_module
from qwjoin.errors import PreconditionError
from qwjoin.graphs import QUOTIENT_MAX_ORDER, Connective, IteratedJoinSpec, JoinTree, _EdgeArrays
from qwjoin.walk import KRYLOV_TOL

from conftest import (
    MatvecOnly,
    assert_agrees_with_the_oracles,
    random_simple,
    random_weighted,
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
# the implicit join operator
# ---------------------------------------------------------------------------


def _dense(graph, kind):
    """The built graph's matrix from its adjacency alone, degrees summed here."""
    a = np.array(graph.adjacency())
    if kind == "adjacency":
        return a
    return np.diag(a.sum(axis=1)) - a


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
    assert tree.order == built.order
    assert tree.build() == built
    rng = np.random.default_rng(tree.order)
    for _ in range(3):
        vec = rng.standard_normal(tree.order)
        assert np.allclose(tree.matvec(vec, kind), _dense(built, kind) @ vec, atol=1e-12)


def test_matvec_with_loops_under_the_adjacency_matrix():
    apex = family("O_loops", 2, 3.0)
    looped = WeightedGraph(4, [(0, 1, 1.5), (1, 3, 2.0)], loops=[(1, -3.0), (2, 0.5)])
    rng = np.random.default_rng(5)
    for graph in (looped, join(apex, family("C", 6))):
        vec = rng.standard_normal(graph.order)
        assert np.allclose(graph.matvec(vec, "adjacency"), _dense(graph, "adjacency") @ vec)
    tree = JoinTree(Connective.JOIN, (apex, family("C", 6)))
    vec = rng.standard_normal(tree.order)
    assert np.allclose(tree.matvec(vec, "adjacency"), _dense(tree.build(), "adjacency") @ vec)
    with pytest.raises(PreconditionError):
        tree.matvec(vec, "laplacian")
    with pytest.raises(ValueError):
        looped.matvec(vec[:4], "signless")


def test_degrees_count_loops_twice():
    g = WeightedGraph(4, [(0, 1, 1.5), (1, 3, 2.0)], loops=[(1, -3.0), (2, 0.5)])
    a = np.array(g.adjacency())
    assert np.array_equal(g.degrees(), a.sum(axis=1) + np.diag(a))
    assert np.array_equal(family("O", 3).degrees(), np.zeros(3))


def test_join_tree_needs_two_children():
    with pytest.raises(ValueError):
        JoinTree(Connective.JOIN, (family("K", 3),))


def test_matvec_rejects_a_wrong_length_operand():
    tree = JoinTree(Connective.JOIN, (family("C", 4), family("O", 2)))
    assert np.array_equal(tree.matvec(np.ones(6), "laplacian"), np.zeros(6))
    for operator in (tree, family("C", 4)):
        for size in (operator.order - 1, operator.order + 1):
            with pytest.raises(ValueError, match="shape"):
                operator.matvec(np.ones(size), "laplacian")


# ---------------------------------------------------------------------------
# the compiled product against the recursive definition
# ---------------------------------------------------------------------------


def _recursive_matvec(node, x, kind):
    """The tree product as it is defined: leaf products plus each join's all-ones blocks."""
    if isinstance(node, WeightedGraph):
        return node.matvec(x, kind)
    total = float(x.sum())
    out = np.empty(node.order)
    lo = 0
    for child in node.children:
        hi = lo + child.order
        block = x[lo:hi]
        out[lo:hi] = _recursive_matvec(child, block, kind)
        if node.connective is Connective.JOIN:
            rest = total - float(block.sum())
            if kind == "laplacian":
                out[lo:hi] += (node.order - child.order) * block - rest
            else:
                out[lo:hi] += rest
        lo = hi
    return out


def _glue(x, y, joined):
    """join (or disjoint_union) written out: x's edges, y's shifted, then the cross edges."""
    m = x.order
    edges = [(u, v, w) for (u, v), w in x.edges.items()]
    edges += [(u + m, v + m, w) for (u, v), w in y.edges.items()]
    if joined:
        edges += [(u, m + v, 1.0) for u in range(m) for v in range(y.order)]
    loops = [(v, w) for v, w in x.loops.items()]
    loops += [(v + m, w) for v, w in y.loops.items()]
    return WeightedGraph(m + y.order, edges, loops)


def _recursive_build(node):
    """The tree's graph as it is defined: each node folds its children by join or union."""
    if isinstance(node, WeightedGraph):
        return node
    joined = node.connective is Connective.JOIN
    return functools.reduce(
        lambda x, y: _glue(x, y, joined), map(_recursive_build, node.children)
    )


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
@given(_KIND_AND_TREE, st.integers(0, 2**32 - 1))
def test_compiled_product_equals_the_recursive_one(kind_and_tree, seed):
    kind, tree = kind_and_tree
    assume(tree.order <= 64)
    x = np.random.default_rng(seed).standard_normal(tree.order)
    got = tree.matvec(x, kind)
    # the same floating-point operations in the same order, so bit for bit
    assert np.array_equal(got, _recursive_matvec(tree, x, kind))
    np.testing.assert_allclose(got, _dense(tree.build(), kind) @ x, rtol=1e-12, atol=1e-12)


@settings(deadline=None)
@given(_KIND_AND_TREE)
def test_build_equals_the_recursive_fold(kind_and_tree):
    _, tree = kind_and_tree
    built, want = tree.build(), _recursive_build(tree)
    # the same edges and loops with the same weights, in the same order
    assert built.order == want.order
    assert list(built.edges.items()) == list(want.edges.items())
    assert list(built.loops.items()) == list(want.loops.items())


def test_tree_compiles_on_the_first_product_and_skips_leaf_products(monkeypatch):
    def no_leaf_products(self, x, kind):
        raise AssertionError("a compiled tree makes no WeightedGraph.matvec call")

    inner = JoinTree(Connective.UNION, (family("C", 4), family("O_loops", 2, 1.0)))
    tree = JoinTree(Connective.JOIN, (inner, family("K", 3), inner))
    vec = np.random.default_rng(3).standard_normal(tree.order)
    assert "_compiled" not in vars(tree)
    expected = _recursive_matvec(tree, vec, "adjacency")
    monkeypatch.setattr(WeightedGraph, "matvec", no_leaf_products)
    assert np.array_equal(tree.matvec(vec, "adjacency"), expected)
    assert "_compiled" in vars(tree)


def _reference_compile(tree):
    """The compiled arrays and join list as defined: every leaf copy in vertex order, shifted."""
    leaves, joins = [], []

    def visit(node, lo):
        if isinstance(node, WeightedGraph):
            leaves.append((lo, node._edge_arrays()))
            return
        at = lo
        for child in node.children:
            visit(child, at)
            at += child.order
        if node.connective is Connective.JOIN:
            orders = tuple(c.order for c in node.children)
            joins.append((lo, at, orders, orders[0] if len(set(orders)) == 1 else 0))

    visit(tree, 0)
    arrays = {
        name: np.concatenate([getattr(a, name) + (lo if shift else 0) for lo, a in leaves])
        for name, shift in [("rows", True), ("cols", True), ("weights", False),
                            ("loop_at", True), ("loop_weights", False)]
    }
    return arrays, joins, np.concatenate([a.degrees for _, a in leaves])


_LOOPED = WeightedGraph(3, [(0, 1, 1.5), (1, 2, 2.0)], loops=[(0, -3.0), (2, 0.5)])


@pytest.mark.parametrize(
    "tree",
    [JoinTree(Connective.JOIN, (family("C", 4),) * r) for r in (2, 7, 31)]
    + [JoinTree(Connective.JOIN, (_LOOPED,) * 7)]
    + [iterated_tree(parse_iterated_spec(plan))
       for plan in ("O2 v O2 u O4 v O4 u O8 v O236", "C4 v K3 u P3 v O2 u Q3 v C4")],
    ids=["C4 x2", "C4 x7", "C4 x31", "looped x7", "stacked O", "stacked mixed"],
)
def test_compiled_arrays_equal_the_reference_concatenation(tree):
    edges, joins = tree._compiled
    arrays, want_joins, want_degrees = _reference_compile(tree)
    for name, want in arrays.items():
        got = getattr(edges, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), name
    assert joins == want_joins
    # the degrees reused from the leaves are the ones the edge pass computes
    fresh = _EdgeArrays(*(getattr(edges, name) for name in
                          ("order", "rows", "cols", "weights", "loop_at", "loop_weights")))
    assert np.array_equal(edges.degrees, want_degrees)
    assert np.array_equal(edges.degrees, fresh.degrees)


def test_stacked_edgeless_plan_compiles_its_three_joins():
    edges, joins = iterated_tree(parse_iterated_spec("O2 v O2 u O4 v O4 u O8 v O236"))._compiled
    assert joins == [(0, 4, (2, 2), 2), (0, 12, (8, 4), 0), (0, 256, (20, 236), 0)]
    assert edges.order == 256 and len(edges.rows) == 0 and len(edges.loop_at) == 0


@pytest.mark.parametrize("leaf, kind", [(family("C", 4), "laplacian"), (family("C", 4), "adjacency"),
                                        (_LOOPED, "adjacency")])
def test_31_copy_product_equals_the_recursive_one(leaf, kind):
    tree = JoinTree(Connective.JOIN, (leaf,) * 31)
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal(tree.order)
        assert np.array_equal(tree.matvec(x, kind), _recursive_matvec(tree, x, kind))


def test_self_join_confirmation_scales_with_the_support_not_the_copies():
    cert = self_join_analysis(family("C", 4), 1023, 0, 2)
    assert cert.pst and cert.confirmation >= 1 - 1e-9
    # the quotient of the 4,092-vertex self-join at 0: C4's vertices and one cell
    assert cert.details["confirmation_route"] == "whole-quotient"
    assert cert.details["krylov_operator_order"] == 5
    assert cert.details["krylov_dimension"] == 5
    # Lanczos on the whole tree stops at the support's three eigenvalues
    tree = JoinTree(Connective.JOIN, (family("C", 4),) * 1023)
    assert krylov_entry(whole_tree(tree), 0, 2, cert.time.value).dimension == 3


def test_compiled_product_of_a_plan_nested_past_the_recursion_limit():
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
    x = np.random.default_rng(8).standard_normal(n)
    lap = np.diag(a.sum(axis=1)) - a
    np.testing.assert_allclose(tree.matvec(x, "adjacency"), a @ x, rtol=1e-12, atol=1e-10)
    np.testing.assert_allclose(tree.matvec(x, "laplacian"), lap @ x, rtol=1e-12, atol=1e-10)


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


@settings(deadline=None)
@given(_KIND_AND_TREE, st.sampled_from([0.3, math.pi / 2, 2.9]))
def test_quotient_entries_match_scipy_and_the_whole_tree_dimension(kind_and_tree, t):
    kind, tree = kind_and_tree
    assume(tree.order <= 16)
    exact = scipy.linalg.expm(1j * t * _dense(tree.build(), kind))
    whole = whole_tree(tree)
    for u in range(tree.order):
        dimension = krylov_entry(whole, u, u, t, kind).dimension
        quotient = tree._quotient(u, kind)
        if quotient is not None:  # Lanczos on the quotient alone stops where it does on the tree
            b = quotient.matrix
            cell = quotient.cell(u)[0]
            lanczos = krylov_entry(MatvecOnly(len(b), lambda x, kind: b @ x), cell, cell, t, kind)
            assert lanczos.dimension == dimension
        for v in range(tree.order):
            entry = krylov_entry(tree, u, v, t, kind)
            assert abs(entry.value - exact[v, u]) <= 1e-9
            if entry.route == "whole-quotient":
                assert entry.dimension == entry.operator_order and entry.bound == 0.0
            else:
                assert entry.dimension == dimension
            if kind == "laplacian":
                assert entry.operator == "quotient" and entry.operator_order <= tree.order


@pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
@pytest.mark.parametrize("order, route", [(16, "whole-quotient"), (17, "lanczos")])
def test_quotients_up_to_order_16_are_exponentiated_whole(order, route, kind):
    # from the part, the quotient has its order - 1 vertices and the one cell K3
    x = random_weighted(np.random.default_rng(order), order - 1)
    tree = JoinTree(Connective.JOIN, (x, family("K", 3)))
    exact = scipy.linalg.expm(1j * 0.9 * _dense(tree.build(), kind))
    for u in range(tree.order):
        for v in range(tree.order):
            entry = krylov_entry(tree, u, v, 0.9, kind)
            assert abs(entry.value - exact[v, u]) <= 1e-9
            if u < x.order:
                assert (entry.operator, entry.operator_order, entry.route) == (
                    "quotient", order, route)
            if entry.route == "whole-quotient":
                assert entry.dimension == entry.operator_order and entry.bound == 0.0
            else:
                assert entry.bound < KRYLOV_TOL or entry.dimension == entry.operator_order


def test_an_irregular_sibling_under_the_adjacency_takes_the_tree_route():
    # P3 is not regular, so the cell it forms has no one row sum
    tree = JoinTree(Connective.JOIN, (family("C", 4), family("P", 3)))
    exact = scipy.linalg.expm(1j * 0.8 * _dense(tree.build(), "adjacency"))
    entry = krylov_entry(tree, 0, 2, 0.8, "adjacency")
    assert "_compiled" in vars(tree)
    assert (entry.operator, entry.operator_order) == ("tree", 7)
    assert abs(entry.value - exact[2, 0]) <= 1e-9
    # from P3's side the other cell is C4, which is regular
    fresh = JoinTree(Connective.JOIN, (family("C", 4), family("P", 3)))
    entry = krylov_entry(fresh, 4, 6, 0.8, "adjacency")
    assert "_compiled" not in vars(fresh)
    assert (entry.operator, entry.operator_order) == ("quotient", 4)
    assert abs(entry.value - exact[6, 4]) <= 1e-9


def test_a_double_cone_over_four_million_vertices_stays_uncompiled():
    tree = JoinTree(Connective.JOIN, (family("O", 2), family("O", 4_000_000)))
    entry = krylov_entry(tree, 0, 1, math.pi / 2, "laplacian")
    assert "_compiled" not in vars(tree)
    assert (entry.operator, entry.operator_order, entry.dimension) == ("quotient", 3, 3)
    assert (entry.route, entry.bound) == ("whole-quotient", 0.0)
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


@pytest.mark.parametrize("cap", [QUOTIENT_MAX_ORDER, 0], ids=["quotient", "tree"])
def test_confirmation_reads_no_matrix_and_no_eigensolver(monkeypatch, cap):
    x, y = family("O", 2), family("C", 6)
    cert = join_pst(x, y, 0, 1)
    assert cert.pst

    def forbidden(*args, **kwargs):
        raise AssertionError("the confirmation must not read this")

    monkeypatch.setattr(graphs_module, "QUOTIENT_MAX_ORDER", cap)
    monkeypatch.setattr(WeightedGraph, "laplacian", forbidden)
    monkeypatch.setattr(WeightedGraph, "adjacency", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(transfer_module, "spectrum", forbidden)
    monkeypatch.setattr(transfer_module, "carry_join", forbidden)
    # the check runs afresh on a certificate stripped of its confirmation
    cert = replace(cert, confirmation=None, details={})
    confirmed = transfer_module._confirm_transfer(
        JoinTree(Connective.JOIN, (x, y)), 0, 1, cert, "join"
    )
    assert confirmed.confirmation >= 1 - 1e-9
    operator = "quotient" if cap else "tree"
    assert confirmed.details["krylov_operator"] == operator
    assert confirmed.details["krylov_operator_order"] == (3 if cap else 8)
