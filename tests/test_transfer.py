import itertools
import math
from dataclasses import replace
from fractions import Fraction

import networkx
import numpy as np
import pytest

import qwjoin.graphs as graphs
import qwjoin.transfer as transfer
from qwjoin import spectral
from qwjoin import (
    InconsistencyError,
    PreconditionError,
    WeightedGraph,
    decompose,
    disjoint_union,
    double_cone_pst,
    eigenvalue_support,
    family,
    graph_matrix,
    graph_periodic,
    is_periodic,
    is_regular,
    iterated_join,
    iterated_join_analysis,
    iterated_join_sign_partition,
    iterated_vertex,
    join,
    join_period_ratio,
    join_periodic,
    join_pst,
    join_strong_cospectral,
    minimum_period,
    parse_iterated_spec,
    pst_certificate,
    pst_induced,
    pst_preserved,
    self_join,
    self_join_analysis,
    strong_cospectral,
    threshold_transfer_search,
    transition_matrix,
    vertex_periods,
)
from qwjoin.transfer import PeriodCertificate, SymbolicTime

from conftest import (
    WRONG_TIME,
    assert_agrees_with_the_oracles,
    oracle_eigengroups,
    oracle_strong_cospectral,
    oracle_transition,
    random_circulant,
    random_simple,
    sets_close,
    with_wrong_time,
)


def laplacian_decomp(graph):
    return decompose(graph_matrix(graph, "laplacian"))


# ---------------------------------------------------------------------------
# strong cospectrality
# ---------------------------------------------------------------------------


def test_strong_cospectral_triangle_fails():
    d = decompose(graph_matrix(family("K", 3), "adjacency"))
    assert strong_cospectral(d, 0, 1) is None


def test_strong_cospectral_cycle_antipodes():
    part = strong_cospectral(laplacian_decomp(family("C", 4)), 0, 2)
    assert part is not None
    assert sets_close(part.plus, [4.0, 0.0])
    assert sets_close(part.minus, [2.0])
    assert strong_cospectral(laplacian_decomp(family("C", 4)), 0, 1) is None


def test_strong_cospectral_path_ends_match_oracle():
    for n in (3, 4, 5):
        g = family("P", n)
        for matrix in ("laplacian", "adjacency"):
            m = graph_matrix(g, matrix)
            got = strong_cospectral(decompose(m), 0, n - 1)
            want = oracle_strong_cospectral(m, 0, n - 1)
            assert got is not None and want is not None
            assert sets_close(got.plus, want[0]) and sets_close(got.minus, want[1])


def test_strong_cospectral_rejects_bad_vertices():
    d = laplacian_decomp(family("C", 4))
    with pytest.raises(ValueError):
        strong_cospectral(d, 1, 1)
    with pytest.raises(ValueError):
        strong_cospectral(d, 0, 9)


def test_join_strong_cospectral_closed_form_fixtures():
    # two isolated vertices become strongly cospectral inside any join
    part = join_strong_cospectral(family("O", 2), family("O", 2), 0, 1)
    assert sets_close(part.plus, [4.0, 0.0]) and sets_close(part.minus, [2.0])
    # a flipping eigenvalue colliding with the part order kills the pair
    assert join_strong_cospectral(family("K", 2), family("O", 3), 0, 1) is None
    # cross pairs fail once either side has two vertices
    assert join_strong_cospectral(family("K", 2), family("O", 2), 0, 2) is None


def test_join_strong_cospectral_single_edge_corner():
    part = join_strong_cospectral(family("O", 1), family("O", 1), 0, 1)
    assert sets_close(part.plus, [0.0]) and sets_close(part.minus, [2.0])
    eq = join_strong_cospectral(
        family("O_loops", 1, 1.5), family("O_loops", 1, 1.5), 0, 1, matrix="adjacency"
    )
    assert sets_close(eq.plus, [2.5]) and sets_close(eq.minus, [0.5])
    uneq = join_strong_cospectral(
        family("O_loops", 1, 1.5), family("O_loops", 1, 0.5), 0, 1, matrix="adjacency"
    )
    assert uneq is None


def test_join_strong_cospectral_matches_oracle_randomized():
    rng = np.random.default_rng(101)
    for _ in range(60):
        x = random_simple(rng, int(rng.integers(2, 6)))
        y = random_simple(rng, int(rng.integers(1, 6)))
        total = x.order + y.order
        jm = graph_matrix(join(x, y), "laplacian")
        u, v = sorted(rng.choice(total, size=2, replace=False).tolist())
        got = join_strong_cospectral(x, y, int(u), int(v))
        want = oracle_strong_cospectral(jm, int(u), int(v))
        assert (got is None) == (want is None), (x.edges, y.edges, u, v)
        if got is not None:
            assert sets_close(got.plus, want[0]) and sets_close(got.minus, want[1])
    for _ in range(40):
        x = random_circulant(rng, int(rng.integers(2, 6)))
        y = random_circulant(rng, int(rng.integers(1, 6)))
        jm = graph_matrix(join(x, y), "adjacency")
        u, v = sorted(rng.choice(x.order + y.order, size=2, replace=False).tolist())
        got = join_strong_cospectral(x, y, int(u), int(v), matrix="adjacency")
        want = oracle_strong_cospectral(jm, int(u), int(v))
        assert (got is None) == (want is None)
        if got is not None:
            assert sets_close(got.plus, want[0]) and sets_close(got.minus, want[1])


# ---------------------------------------------------------------------------
# periodicity and minimum periods
# ---------------------------------------------------------------------------


def test_minimum_period_cycle():
    d = laplacian_decomp(family("C", 4))
    cert = minimum_period(eigenvalue_support(d, 0), d, 0)
    assert cert.periodic
    assert cert.symbolic == SymbolicTime(1, 1, 1)
    assert cert.period == pytest.approx(math.pi)
    assert cert.confirmation >= 1 - 1e-9
    assert cert.minimal_on_grid is True


def test_minimum_period_bipartite_complete():
    g = family("K_bipartite", 3, 3)
    d = laplacian_decomp(g)
    cert = minimum_period(eigenvalue_support(d, 0), d, 0)
    assert cert.symbolic == SymbolicTime(2, 3, 1)


def test_minimum_period_quadratic_support():
    g = family("P", 3)
    d = decompose(graph_matrix(g, "adjacency"))
    cert = minimum_period(eigenvalue_support(d, 0), d, 0)
    assert cert.periodic
    assert cert.symbolic == SymbolicTime(2, 1, 2)
    assert cert.period == pytest.approx(2 * math.pi / math.sqrt(2))


def test_minimum_period_rejects_aperiodic():
    d = laplacian_decomp(family("P", 4))
    cert = minimum_period(eigenvalue_support(d, 0), d, 0)
    assert not cert.periodic
    assert cert.period is None and cert.symbolic is None


def test_is_periodic_and_graph_periodic():
    assert is_periodic(laplacian_decomp(family("C", 4)), 0)
    assert not is_periodic(laplacian_decomp(family("P", 4)), 0)
    assert graph_periodic(family("C", 4))
    assert not graph_periodic(family("P", 4))
    assert graph_periodic(family("P", 3), "adjacency")
    assert graph_periodic(family("P", 3), "laplacian")


# unweighted joins of orders 6-20; the first five have non-integral spectra
# whose characteristic polynomial still rounds to integer coefficients
PERIODIC_JOINS = [
    (family("C", 5), family("O", 1)),
    (family("P", 4), family("O", 2)),
    (family("P", 5), family("O", 4)),
    (family("C", 5), family("K", 3)),
    (family("C", 7), family("O", 3)),
    (family("K", 4), family("P", 3)),
    (family("C", 6), family("O", 6)),
    (family("P", 6), family("C", 5)),
    (family("Q", 3), family("C", 5)),
    (family("P", 8), family("O", 6)),
    (family("C", 8), family("O", 8)),
    (family("CP", 8), family("K_bipartite", 3, 3)),
    (family("Q", 3), family("Q", 3)),
    (family("C", 10), family("C", 10)),
]


def test_graph_periodic_on_laplacian_joins_matches_an_integral_spectrum():
    # a Laplacian vertex with 0 in its support is periodic only on an
    # integral support, so an integer Laplacian is periodic exactly when its
    # whole spectrum is integral
    rng = np.random.default_rng(29)
    pairs = PERIODIC_JOINS + [
        (random_simple(rng, int(rng.integers(3, 11))), random_simple(rng, int(rng.integers(3, 11))))
        for _ in range(16)
    ]
    for x, y in pairs:
        g = join(x, y)
        assert 6 <= g.order <= 20
        integral = all(
            abs(lam - round(lam)) <= 1e-6
            for lam, _ in oracle_eigengroups(graph_matrix(g, "laplacian"))
        )
        assert graph_periodic(g) == integral, (x, y)


def test_join_periodic():
    assert join_periodic(family("C", 4), family("O", 2), 0)
    assert join_periodic(family("O", 2), family("O", 2), 0)


def test_minimum_period_shifted_support():
    # equal loop weights shift the spectrum; the period sees only differences
    g = WeightedGraph(2, [(0, 1, 1.0)], loops=[(0, 0.5), (1, 0.5)])
    d = decompose(graph_matrix(g, "adjacency"))
    cert = minimum_period(eigenvalue_support(d, 0), d, 0)
    assert cert.periodic and cert.symbolic == SymbolicTime(1, 1, 1)


# the atlas graphs on 1-6 vertices under both matrices, a weighted part, and a
# looped part (adjacency only, as the Laplacian ignores loops)
ONE_PASS_CASES = [
    (WeightedGraph(g.number_of_nodes(), [(a, b, 1.0) for a, b in g.edges()]), matrix)
    for g in networkx.graph_atlas_g()
    if 1 <= g.number_of_nodes() <= 6
    for matrix in ("laplacian", "adjacency")
] + [
    (WeightedGraph(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 2.0), (0, 3, 1.0), (0, 2, 3.0)]),
     "laplacian"),
    (WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], loops=[(0, 0.5), (2, 0.5)]), "adjacency"),
]


def test_vertex_periods_reads_each_vertex_as_minimum_period_does():
    several = periodic = 0
    for graph, matrix in ONE_PASS_CASES:
        d = spectral.spectrum(graph, matrix)
        readings = vertex_periods(d)
        assert len(readings) == graph.order
        for u, (support, cert) in enumerate(readings):
            assert support == eigenvalue_support(d, u), (graph, matrix, u)
            assert cert == minimum_period(support, d, u), (graph, matrix, u)
            periodic += cert.minimal_on_grid is True
        several += len({cert.period for _, cert in readings if cert.periodic}) > 1
    # the pass met vertices checked on a grid, and graphs with several periods
    assert periodic > 700 and several > 100, (periodic, several)


# ---------------------------------------------------------------------------
# period ratios
# ---------------------------------------------------------------------------


RATIO_FIXTURES = [
    (family("K", 4), family("K", 4), 0, "laplacian",
     Fraction(1, 2), 1, "connected-single-special"),
    (family("K_bipartite", 3, 3), family("O", 2), 0, "laplacian",
     Fraction(3), 1, "connected-pair-special"),
    (family("K_bipartite", 1, 3), family("O", 2), 1, "laplacian",
     Fraction(1, 3), 1, "connected-pair-special"),
    (family("K_bipartite", 1, 3), family("O", 2), 0, "laplacian",
     Fraction(2, 3), 1, "connected-single-special"),
    (family("C", 6), family("O", 1), 0, "laplacian",
     Fraction(1), 1, "connected-general"),
    (disjoint_union(family("O", 1), family("K", 2)), family("O", 2), 1, "laplacian",
     Fraction(2), 1, "disconnected-single"),
    (disjoint_union(family("C", 4), family("O", 2)), family("O", 2), 0, "laplacian",
     Fraction(1), 1, "disconnected-general"),
    (family("K", 2), family("O", 1), 0, "adjacency",
     Fraction(2, 3), 1, "connected-single-special"),
    (family("K", 2), family("O_loops", 1, -3.0), 0, "adjacency",
     Fraction(2), 6, "connected-single"),
    (family("C", 4), family("O", 2), 0, "adjacency",
     Fraction(1), 1, "connected-pair-special"),
    # lam_minus alone beside the distinguished eigenvalue of a disconnected
    # part: one "-special" label for both matrices, ratio m/gcd(m, n)
    (disjoint_union(family("K", 2), family("K", 2)), family("O_loops", 1, 1.0), 0,
     "adjacency", Fraction(1), 1, "disconnected-single-special"),
    (disjoint_union(WeightedGraph(2, [(0, 1, 1.5)]), family("O", 1)), family("O", 4), 0,
     "laplacian", Fraction(3), 1, "disconnected-single-special"),
    (disjoint_union(WeightedGraph(2, [(0, 1, 1.5)]), family("O", 1)), family("O", 6), 0,
     "laplacian", Fraction(1), 1, "disconnected-single-special"),
    # the other eigenvalue below lam_minus (adjacency) or above m
    # (Laplacian): the ratio takes |lam - lam_minus|
    (WeightedGraph(4, [(0, 1, 3.0), (1, 2, 3.0), (2, 3, 3.0), (0, 3, 3.0)]), family("K", 3), 0,
     "adjacency", Fraction(3), 1, "connected-pair-special"),
    (WeightedGraph(3, [(0, 1, 3.0), (1, 2, 3.0)]), family("O", 4), 0,
     "laplacian", Fraction(3), 1, "connected-pair-special"),
]


@pytest.mark.parametrize("x,y,u,matrix,ratio,divisor,case", RATIO_FIXTURES)
def test_join_period_ratio_fixtures(x, y, u, matrix, ratio, divisor, case):
    rr = join_period_ratio(x, y, u, matrix=matrix)
    assert rr.ratio == ratio
    assert rr.sqrt_divisor == divisor
    assert rr.case == case
    # the certified join period actually revives the state
    d = decompose(graph_matrix(join(x, y), matrix))
    assert abs(transition_matrix(d, rr.period_join.value)[u, u]) >= 1 - 1e-9


def test_join_period_ratio_quadratic_value():
    rr = join_period_ratio(
        family("K", 2), family("O_loops", 1, -3.0), 0, matrix="adjacency"
    )
    assert rr.value == pytest.approx(2 / math.sqrt(6))
    assert rr.period_part == SymbolicTime(1, 1, 1)
    assert rr.period_join == SymbolicTime(2, 1, 6)


def test_join_period_ratio_right_side():
    # join vertex 3 is vertex 1 of the right part
    rr = join_period_ratio(
        family("K", 2), disjoint_union(family("O", 1), family("K", 2)), 3
    )
    assert rr.ratio == Fraction(2) and rr.case == "disconnected-single"


def test_join_period_ratio_preconditions():
    # an isolated vertex in a disconnected part supports a single eigenvalue
    x = disjoint_union(family("O", 1), family("K", 2))
    with pytest.raises(PreconditionError):
        join_period_ratio(x, family("O", 2), 0)
    # irrational fresh eigenvalues over a non-matching support: not periodic
    with pytest.raises(PreconditionError):
        join_period_ratio(
            disjoint_union(family("C", 4), family("C", 4)),
            family("K", 2),
            0,
            matrix="adjacency",
        )


def test_join_period_ratio_cross_check_guards(monkeypatch):
    # a lying closed-form route must trip the exact-lattice comparison
    def wrong_formula(*args):
        return "connected-general", Fraction(7, 3), 1

    monkeypatch.setattr(transfer, "_ratio_formula", wrong_formula)
    with pytest.raises(InconsistencyError):
        join_period_ratio(family("K", 4), family("K", 4), 0)


@pytest.mark.parametrize(
    "x, u, case, ratio",
    [
        (family("K_bipartite", 1, 3), 1, "connected-pair-special", Fraction(1)),
        (family("C", 6), 0, "connected-general", Fraction(1)),
    ],
    ids=["pair-special", "general"],
)
def test_join_period_ratio_exact_on_large_cones(x, u, case, ratio):
    # m + n is above the 10**6 denominator bound of rational reconstruction,
    # so ratios over m + n (K1,3 at a leaf) need the exact Laplacian route
    rr = join_period_ratio(x, family("O", 1_000_003), u)
    assert (rr.case, rr.ratio, rr.sqrt_divisor) == (case, ratio, 1)


# ---------------------------------------------------------------------------
# perfect state transfer certificates
# ---------------------------------------------------------------------------


def test_pst_certificate_edge_and_cycle():
    cert = pst_certificate(family("K", 2), 0, 1)
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    cert = pst_certificate(family("C", 4), 0, 2)
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    assert cert.eigenvalue_class == "integer"
    assert cert.confirmation >= 1 - 1e-9


def test_a_support_integral_only_after_a_shift_is_labelled_so():
    # the support plus {2.5, -1.5}, minus {0.5}: its differences are integers, its values not
    cert = self_join_analysis(family("O_loops", 2, 0.5), 2, 0, 1, matrix="adjacency")
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    assert sorted(cert.partition.plus) == [-1.5, 2.5] and cert.partition.minus == [0.5]
    assert cert.eigenvalue_class == "shifted-integer" and cert.delta == 1
    assert cert.details["branch"] == "isolated-pair"
    # the unshifted support keeps its label
    cert = self_join_analysis(family("O", 2), 2, 0, 1, matrix="adjacency")
    assert cert.eigenvalue_class == "integer"


def test_pst_certificate_quadratic_class():
    cert = pst_certificate(family("P", 3), 0, 2, "adjacency")
    assert cert.pst
    assert cert.eigenvalue_class == "quadratic" and cert.delta == 2
    assert cert.time == SymbolicTime(1, 1, 2)
    assert cert.time.value == pytest.approx(math.pi / math.sqrt(2))


def test_pst_certificate_failures():
    cert = pst_certificate(family("K", 3), 0, 1, "adjacency")
    assert not cert.pst and not cert.strong_cospectral
    # C6 antipodes are strongly cospectral but the valuations refuse
    cert = pst_certificate(family("C", 6), 0, 3)
    assert not cert.pst and cert.strong_cospectral


def test_double_cone_parity():
    for n in range(1, 11):
        cert = double_cone_pst(family("O", n))
        assert cert.pst == (n % 4 == 2), n
        if cert.pst:
            assert cert.time == SymbolicTime(1, 2, 1)
    assert double_cone_pst(family("O", 3)).reason == "the cone size is not 2 modulo 4"


def test_join_pst_single_edge_branch():
    cert = join_pst(family("O", 1), family("O", 1), 0, 1)
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    assert cert.details.get("branch") == "single-edge"
    # equal loop weights shift the spectrum but keep the transfer
    certa = join_pst(
        family("O_loops", 1, 1.5), family("O_loops", 1, 1.5), 0, 1, matrix="adjacency"
    )
    assert certa.pst and certa.time == SymbolicTime(1, 2, 1)
    unequal = join_pst(
        family("O_loops", 1, 1.5), family("O_loops", 1, 0.5), 0, 1, matrix="adjacency"
    )
    assert not unequal.pst


def test_join_pst_cross_pairs_fail_beyond_single_edges():
    cert = join_pst(family("K", 2), family("O", 2), 0, 2)
    assert not cert.pst
    assert "opposite sides" in cert.reason


def test_join_pst_complete_minus_edge():
    hits = []
    for d in range(4, 18):
        cert = join_pst(family("O", 2), family("K", d - 2), 0, 1)
        if cert.pst:
            hits.append(d)
            assert cert.time == SymbolicTime(1, 2, 1)
    assert hits == [4, 8, 12, 16]


def test_join_pst_randomized_full_verification():
    # every certificate, negatives included, against the oracles on the built join
    rng = np.random.default_rng(301)
    for _ in range(60):
        x = random_simple(rng, int(rng.integers(2, 6)))
        y = random_simple(rng, int(rng.integers(1, 6)))
        u, v = sorted(rng.choice(x.order + y.order, size=2, replace=False).tolist())
        cert = join_pst(x, y, int(u), int(v))
        assert_agrees_with_the_oracles(cert, graph_matrix(join(x, y), "laplacian"), u, v)
    for _ in range(40):
        x = random_circulant(rng, int(rng.integers(2, 6)))
        y = random_circulant(rng, int(rng.integers(1, 6)))
        u, v = sorted(rng.choice(x.order + y.order, size=2, replace=False).tolist())
        cert = join_pst(x, y, int(u), int(v), matrix="adjacency")
        assert_agrees_with_the_oracles(cert, graph_matrix(join(x, y), "adjacency"), u, v)


# known positives, each with the graph it answers for and the pair in that graph
KNOWN_POSITIVES = {
    **{
        f"O2 v O{n}": (
            lambda n=n: join_pst(family("O", 2), family("O", n), 0, 1),
            lambda n=n: join(family("O", 2), family("O", n)), "laplacian", (0, 1),
        )
        for n in (2, 6, 10, 14)
    },
    # C4 v O_n has transfer at (0, 2) for n = 0 modulo 4 only
    "C4 v O4": (
        lambda: join_pst(family("C", 4), family("O", 4), 0, 2),
        lambda: join(family("C", 4), family("O", 4)), "laplacian", (0, 2),
    ),
    **{
        f"Q3 self-join r={r}": (
            lambda r=r: self_join_analysis(family("Q", 3), r, 0, 7),
            lambda r=r: self_join(family("Q", 3), r), "laplacian", (0, 7),
        )
        for r in (2, 3, 4)
    },
    "O2 v O2 u O4 v O4": (
        lambda: iterated_join_analysis(parse_iterated_spec("O2 v O2 u O4 v O4"), 1, 0, 1),
        lambda: iterated_join(parse_iterated_spec("O2 v O2 u O4 v O4")), "laplacian", (0, 1),
    ),
    "C4 v C4 adjacency": (
        lambda: join_pst(family("C", 4), family("C", 4), 0, 2, matrix="adjacency"),
        lambda: join(family("C", 4), family("C", 4)), "adjacency", (0, 2),
    ),
    "O_loops 2 0.5 self-join adjacency": (
        lambda: self_join_analysis(family("O_loops", 2, 0.5), 2, 0, 1, matrix="adjacency"),
        lambda: self_join(family("O_loops", 2, 0.5), 2), "adjacency", (0, 1),
    ),
}


@pytest.mark.parametrize("name", list(KNOWN_POSITIVES))
def test_known_positives_agree_with_the_oracles(name):
    analysis, build, matrix, (u, v) = KNOWN_POSITIVES[name]
    cert = analysis()
    assert cert.pst and cert.confirmation >= 1 - 1e-9
    assert_agrees_with_the_oracles(cert, graph_matrix(build(), matrix), u, v)


# ---------------------------------------------------------------------------
# preservation under cones
# ---------------------------------------------------------------------------


def test_pst_preserved_hypercube_cones():
    for p, pair in ((2, (0, 3)), (3, (0, 7))):
        for n in range(1, 9):
            cert = pst_preserved(family("Q", p), family("O", n), *pair)
            assert cert.pst == (n % 4 == 0), (p, n)


def test_pst_preserved_flipping_order_blocks_all_cones():
    cert = pst_preserved(family("K", 2), family("O", 4), 0, 1)
    assert not cert.pst
    assert "flipping" in cert.reason


def test_pst_preserved_padding_matrix():
    # K2 has m = 2 in the flipping set; padding with r isolated vertices
    # works exactly when the 2-adic valuations land right
    assert pst_preserved(family("K", 2), family("O", 4), 0, 1, pad=2).pst
    assert pst_preserved(family("K", 2), family("O", 4), 0, 1, pad=6).pst
    assert not pst_preserved(family("K", 2), family("O", 4), 0, 1, pad=4).pst
    assert not pst_preserved(family("K", 2), family("O", 2), 0, 1, pad=2).pst


def test_pst_preserved_padding_requires_collision():
    x = disjoint_union(family("K", 2), family("O", 2))
    with pytest.raises(PreconditionError):
        pst_preserved(x, family("O", 4), 0, 1, pad=2)
    # without padding the m = 4 part order misses the flipping set
    assert pst_preserved(x, family("O", 4), 0, 1).pst
    assert not pst_preserved(x, family("O", 2), 0, 1).pst


def test_pst_preserved_adjacency_collision():
    # K2 v K2 = C4 under the adjacency matrix: lam_minus collides
    cert = pst_preserved(family("K", 2), family("K", 2), 0, 1, matrix="adjacency")
    assert not cert.pst


# regular parts with non-integer degrees: C4 and K2 with a loop of 0.5 at every vertex
C4_LOOPED = WeightedGraph(
    4, [(a, b, w) for (a, b), w in family("C", 4).edges.items()],
    loops=[(i, 0.5) for i in range(4)],
)
K2_LOOPED = WeightedGraph(2, [(0, 1, 1.0)], loops=[(0, 0.5), (1, 0.5)])


def test_pst_preserved_adjacency_reads_the_degree_gap_and_offsets():
    # k = ell = 2.5: the gap k - ell = 0 and the offset k - mu = 2 are integers
    y = family("O_loops", 4, 2.5)
    cert = pst_preserved(C4_LOOPED, y, 0, 2, matrix="adjacency")
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    assert cert.confirmation >= 1 - 1e-9
    assert cert.details["time_divisors"] == [2, 2]
    exact = oracle_transition(graph_matrix(join(C4_LOOPED, y), "adjacency"), math.pi / 2)
    assert abs(exact[2, 0]) >= 1 - 1e-9
    # k = 1.5, ell = 5.5: s = 6, so ell - s = -0.5 is the flipping eigenvalue
    cone = family("O_loops", 6, 5.5)
    cert = pst_preserved(K2_LOOPED, cone, 0, 1, matrix="adjacency")
    assert not cert.pst and "collides with a flipping eigenvalue" in cert.reason
    assert cert.details["fresh_eigenvalues"] == [7.5, -0.5]
    assert not join_pst(K2_LOOPED, cone, 0, 1, matrix="adjacency").pst


def test_pst_preserved_adjacency_refuses_non_integer_gaps_and_offsets():
    # k - ell = 1.5 - 1
    with pytest.raises(PreconditionError, match="integer degree gap"):
        pst_preserved(K2_LOOPED, family("K", 2), 0, 1, matrix="adjacency")
    # K2 with weight sqrt(2) against O2 with loops sqrt(2): the gap is 0, the offset 2 sqrt(2)
    root2 = math.sqrt(2)
    with pytest.raises(PreconditionError, match="integer offsets"):
        pst_preserved(
            _weighted_k2(root2), family("O_loops", 2, root2), 0, 1, matrix="adjacency"
        )


def _weighted_k2(weight):
    return WeightedGraph(2, [(0, 1, float(weight))])


@pytest.mark.parametrize("x, y, u, v, matrix", [
    (C4_LOOPED, family("O_loops", 4, 2.5), 0, 2, "adjacency"),
    (family("Q", 3), family("O", 8), 0, 7, "laplacian"),
    (_weighted_k2(2.0), family("O", 2), 0, 1, "laplacian"),
], ids=["looped C4 adjacency", "Q3 v O8", "weighted K2"])
def test_pst_preserved_keeps_the_join_details(x, y, u, v, matrix):
    check = join_pst(x, y, u, v, matrix=matrix)
    cert = pst_preserved(x, y, u, v, matrix=matrix)
    assert cert.pst and check.pst and cert.confirmation == check.confirmation
    assert "confirmation_route" in check.details
    for key, value in check.details.items():
        assert cert.details[key] == value, key
    assert "part_time" in cert.details


# weighted Laplacian parts: the valuation rule, derived for unweighted parts,
# says False for each (K2 with weight 2 has part time pi/4, so nu2(h) = 2)
@pytest.mark.parametrize("weight, n", [(2, 2), (2, 6), (3, 6)])
def test_pst_preserved_weighted_part_takes_the_join_verdict(weight, n):
    x, y = _weighted_k2(weight), family("O", n)
    cert = pst_preserved(x, y, 0, 1)
    check = join_pst(x, y, 0, 1)
    assert cert.pst and check.pst
    assert cert.time == check.time == SymbolicTime(1, 2 if weight == 2 else 4, 1)
    assert cert.details["rule"] == "general"
    # the part's own transfer is kept, not induced
    assert not pst_induced(x, y, 0, 1).induced
    with pytest.raises(PreconditionError):
        pst_preserved(x, y, 0, 1, pad=2)


# ---------------------------------------------------------------------------
# induced transfer
# ---------------------------------------------------------------------------


def test_pst_induced_isolated_pair_cone():
    rep = pst_induced(family("O", 2), family("O", 6), 0, 1)
    assert rep.induced and rep.mechanism == "isolated-pair-cone"
    assert not rep.part_certificate.pst and rep.join_certificate.pst


def test_pst_induced_uniform_valuation():
    rep = pst_induced(family("P", 3), family("O", 9), 0, 2)
    assert rep.induced and rep.mechanism == "uniform-valuation"
    assert rep.join_certificate.time == SymbolicTime(1, 2, 1)
    # numeric cross-check on the built join
    d = laplacian_decomp(join(family("P", 3), family("O", 9)))
    assert abs(transition_matrix(d, math.pi / 2)[0, 2]) >= 1 - 1e-9


def test_pst_induced_negative():
    rep = pst_induced(family("K", 2), family("O", 2), 0, 1)
    assert not rep.induced


# disconnected parts whose pair already has transfer, which the join keeps:
# nothing is induced, and the uniform-valuation rule must not object
@pytest.mark.parametrize(
    "x, y, pair",
    [
        (disjoint_union(family("K", 2), family("K", 2)), family("O", 4), (0, 1)),
        (WeightedGraph(4, [(2, 3, 1.0)]), family("O", 4), (2, 3)),
        (WeightedGraph(4, [(2, 3, 1.0)]), family("C", 4), (2, 3)),
    ],
    ids=["2K2 v O4", "K2+O2 v O4", "K2+O2 v C4"],
)
def test_pst_induced_keeps_the_part_transfer_of_a_disconnected_part(x, y, pair):
    rep = pst_induced(x, y, *pair)
    assert not rep.induced and rep.mechanism == "uniform-valuation"
    assert rep.part_certificate.pst
    assert rep.join_certificate.pst and join_pst(x, y, *pair).pst


# ---------------------------------------------------------------------------
# self-joins
# ---------------------------------------------------------------------------


def test_self_join_path_parity():
    verdicts = {r: self_join_analysis(family("P", 3), r, 0, 2).pst for r in (2, 4, 6, 8)}
    assert verdicts == {2: False, 4: True, 6: False, 8: True}
    cert = self_join_analysis(family("P", 3), 4, 0, 2)
    assert cert.time == SymbolicTime(1, 2, 1)
    assert cert.details.get("branch") == "balanced-shifted"


def test_self_join_isolated_pair_parity():
    verdicts = {r: self_join_analysis(family("O", 2), r, 0, 1).pst for r in (2, 3, 4)}
    assert verdicts == {2: True, 3: False, 4: True}


def test_self_join_adjacency_with_loops():
    # the self-join is (weight + 2)-regular, so a non-integer degree is no obstacle
    for weight in (0.25, 0.5, 1.5, 2.0, 3.0):
        part = family("O_loops", 2, weight)
        cert = self_join_analysis(part, 2, 0, 1, matrix="adjacency")
        assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
        assert cert.details["discriminant"] == 16
        exact = oracle_transition(graph_matrix(self_join(part, 2), "adjacency"), math.pi / 2)
        assert abs(abs(exact[1, 0]) - 1) <= 1e-9
        assert abs(cert.confirmation - abs(exact[1, 0])) <= 1e-9


def test_induced_transfer_on_a_regular_join_with_a_non_integer_degree():
    part = family("O_loops", 2, 0.5)
    report = pst_induced(part, part, 0, 1, matrix="adjacency")
    assert report.induced and report.mechanism == "isolated-pair-cone"
    exact = oracle_transition(graph_matrix(join(part, part), "adjacency"), math.pi / 2)
    assert abs(abs(exact[1, 0]) - 1) <= 1e-9


def test_an_irregular_adjacency_join_with_a_non_integer_degree_is_refused():
    # the built join has row sums 3.5 and 2, and the part degree 0.5 is no integer
    with pytest.raises(PreconditionError, match="integer regular degrees"):
        join_pst(family("O_loops", 2, 0.5), family("O", 3), 0, 1, matrix="adjacency")


def weighted_k4(a, b, c):
    """K4 whose three perfect matchings weigh a, b and c: regular of degree a + b + c."""
    return WeightedGraph(4, [(0, 1, a), (2, 3, a), (0, 2, b), (1, 3, b), (0, 3, c), (1, 2, c)])


@pytest.mark.parametrize("r", [2, 4])
def test_adjacency_self_join_with_two_flipping_eigenvalues(r):
    # regular parts whose pair has more than one flipping eigenvalue
    x = weighted_k4(1.0, 7.0, 3.0)
    adjacency = self_join_analysis(x, r, 0, 1, matrix="adjacency")
    laplacian = self_join_analysis(x, r, 0, 1)
    assert adjacency.pst and adjacency.time == SymbolicTime(1, 4, 1)
    assert (adjacency.pst, adjacency.time) == (laplacian.pst, laplacian.time)
    # the triangular prism, labelled as in the graph atlas
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]
    prism = WeightedGraph(6, [(a, b, 2.0) for a, b in edges])
    assert not self_join_analysis(prism, r, 0, 1, matrix="adjacency").pst


def test_self_join_needs_copies():
    with pytest.raises(ValueError):
        self_join_analysis(family("P", 3), 1, 0, 2)


SELF_JOIN_PARTS = {
    "laplacian": [
        family("O", 2),
        family("O", 3),
        family("K", 2),
        family("P", 3),
        family("P", 4),
        family("C", 4),
        family("K_minus_e", 4),
        family("K_bipartite", 2, 3),
        disjoint_union(family("K", 2), family("K", 2)),
        WeightedGraph(3, [(0, 1, 2.0), (1, 2, 2.0)]),
    ],
    "adjacency": [
        family("O", 2),
        family("O_loops", 2, 1.0),
        family("O_loops", 3, 2.0),
        family("K", 2),
        family("K", 3),
        family("C", 4),
        family("C", 5),
        family("CP", 6),
        disjoint_union(family("K", 2), family("K", 2)),
    ],
}


@pytest.mark.parametrize("matrix", ["laplacian", "adjacency"])
def test_self_join_partition_matches_oracle(matrix):
    for x in SELF_JOIN_PARTS[matrix]:
        for r in (2, 3, 4):
            built = graph_matrix(self_join(x, r), matrix)
            for u in range(x.order):
                for v in range(u + 1, x.order):
                    cert = self_join_analysis(x, r, u, v, matrix=matrix)
                    want = oracle_strong_cospectral(built, u, v)
                    assert cert.strong_cospectral == (want is not None), (x, r, u, v)
                    assert (cert.partition is None) == (want is None)
                    if want is not None:
                        assert sets_close(cert.partition.plus, want[0])
                        assert sets_close(cert.partition.minus, want[1])


# loopless regular parts: the atlas's regular graphs on 2-6 vertices with
# edge weights 1 and 2, and K4 with matching weights from {1, 3, 7}
REGULAR_PARTS = [
    WeightedGraph(g.number_of_nodes(), [(a, b, w) for a, b in g.edges()])
    for g in networkx.graph_atlas_g()
    if 2 <= g.number_of_nodes() <= 6 and len(set(dict(g.degree()).values())) == 1
    for w in ((1.0, 2.0) if g.number_of_edges() else (1.0,))
] + [weighted_k4(*abc) for abc in itertools.product((1.0, 3.0, 7.0), repeat=3)]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("index", range(len(SELF_JOIN_PARTS["laplacian"]) + len(REGULAR_PARTS)))
def test_self_join_matches_the_cone_over_the_other_copies(index, r):
    # the other r - 1 copies enter the Laplacian rule only through their
    # order. On a regular part the adjacency walk of the self-join, and of
    # the regular join of the part with the other copies built, is the
    # Laplacian walk up to a phase, so both matrices give one verdict and time.
    x = (SELF_JOIN_PARTS["laplacian"] + REGULAR_PARTS)[index]
    rest = family("O", (r - 1) * x.order)
    others = self_join(x, r - 1) if is_regular(x) is not None else None
    for u, v in itertools.combinations(range(x.order), 2):
        own = self_join_analysis(x, r, u, v)
        cone = join_pst(x, rest, u, v)
        assert (own.pst, own.time) == (cone.pst, cone.time), (u, v)
        assert (own.partition is None) == (cone.partition is None)
        if own.partition is not None:
            assert sets_close(own.partition.plus, cone.partition.plus)
            assert sets_close(own.partition.minus, cone.partition.minus)
        if others is not None:
            for cert in (
                self_join_analysis(x, r, u, v, matrix="adjacency"),
                join_pst(x, others, u, v, matrix="adjacency"),
                join_pst(x, others, u, v),
            ):
                assert (cert.pst, cert.time) == (own.pst, own.time), (u, v, cert.matrix)


def test_self_join_full_verification_randomized():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = random_simple(rng, int(rng.integers(2, 5)))
        r = int(rng.integers(2, 5))
        cert = self_join_analysis(x, r, 0, 1)
        assert_agrees_with_the_oracles(cert, graph_matrix(self_join(x, r), "laplacian"), 0, 1)


# ---------------------------------------------------------------------------
# iterated joins
# ---------------------------------------------------------------------------


def test_iterated_sign_partition_regression():
    spec = parse_iterated_spec("C4 v O2 u O4 v O2")
    part = iterated_join_sign_partition(spec, 1, 0, 2)
    assert sets_close(part.plus, [12.0, 8.0, 2.0, 0.0])
    assert sets_close(part.minus, [6.0])
    cert = iterated_join_analysis(spec, 1, 0, 2)
    assert not cert.pst
    assert cert.reason == "crossing differences take more than one dyadic valuation"


def test_plan_readers_share_one_check_of_part_and_vertices():
    spec = parse_iterated_spec("C4 v O2 u O4 v O2")
    readers = (
        lambda j, u: iterated_vertex(spec, j, u),
        lambda j, u: spectral.iterated_join_support(spec, j, u),
        lambda j, u: iterated_join_sign_partition(spec, j, u, (u + 1) % 4),
    )
    for read in readers:
        with pytest.raises(ValueError, match="^part index 5 out of range$"):
            read(5, 0)
        with pytest.raises(ValueError, match="^vertex 4 out of range for part 1$"):
            read(1, 4)
    looped = graphs.IteratedJoinSpec(
        [(family("O_loops", 2, 1.0), None), (family("O", 2), graphs.Connective.JOIN)]
    )
    for read in (
        lambda: spectral.iterated_join_support(looped, 2, 0),
        lambda: iterated_join_sign_partition(looped, 2, 0, 1),
    ):
        with pytest.raises(PreconditionError, match="requires simple parts"):
            read()


def test_iterated_analysis_positive_case():
    spec = parse_iterated_spec("O2 v O2 u O4 v O4")
    cert = iterated_join_analysis(spec, 1, 0, 1)
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    u, v = iterated_vertex(spec, 1, 0), iterated_vertex(spec, 1, 1)
    assert_agrees_with_the_oracles(cert, graph_matrix(iterated_join(spec), "laplacian"), u, v)


def test_iterated_sign_partition_matches_oracle():
    rng = np.random.default_rng(53)
    from qwjoin.graphs import Connective, IteratedJoinSpec
    from qwjoin import iterated_join, iterated_vertex

    checked = 0
    while checked < 30:
        count = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(count)]
        parts = []
        for j, s in enumerate(sizes, start=1):
            g = random_simple(rng, s)
            conn = (
                None
                if j == 1
                else (Connective.JOIN if j % 2 == count % 2 else Connective.UNION)
            )
            parts.append((g, conn))
        spec = IteratedJoinSpec(parts)
        j = int(rng.integers(1, count + 1))
        if sizes[j - 1] < 2:
            continue
        built = iterated_join(spec)
        jm = graph_matrix(built, "laplacian")
        gu, gv = iterated_vertex(spec, j, 0), iterated_vertex(spec, j, 1)
        got = iterated_join_sign_partition(spec, j, 0, 1)
        want = oracle_strong_cospectral(jm, gu, gv)
        assert (got is None) == (want is None)
        if got is not None:
            assert sets_close(got.plus, want[0]) and sets_close(got.minus, want[1])
        checked += 1


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------


def test_threshold_search_two_parts():
    hits = threshold_transfer_search(max_parts=2, max_size=6)
    assert [h["sizes"] for h in hits] == [[2, 2], [2, 6]]
    for h in hits:
        assert h["part"] == 1
        assert h["time"] == [1, 2, 1]
        assert h["time_value"] == pytest.approx(math.pi / 2)


def _count_strong_cospectral(monkeypatch) -> list:
    calls = []
    real = transfer.strong_cospectral

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transfer, "strong_cospectral", counting)
    return calls


def test_threshold_search_partitions_each_first_part_once(monkeypatch):
    calls = _count_strong_cospectral(monkeypatch)
    hits = threshold_transfer_search(4, 6)
    assert [h["sizes"] for h in hits] == [[2, 2], [2, 6], [2, 2, 4, 4], [2, 6, 4, 4]]
    # the first parts O3..O6, whose pair (0, 1) is dead from stage 1; the
    # isolated pair of O2 needs no partition
    assert len(calls) == 4
    assert sorted(decomp.size for decomp, *_ in calls) == [3, 4, 5, 6]


def _full_stage_walk(spec, j, own, isolated_pair):
    """carry_through_plan without its early exit: every stage is carried."""
    carried, acc_order, acc_connected = own, 0, True
    for idx, (graph, conn) in enumerate(spec.parts, start=1):
        if idx == j and conn is graphs.Connective.JOIN:
            params = spectral.JoinParams.of(graph.order, acc_order, "laplacian")
            carried = spectral.carry_join(own, params, graphs.is_connected(graph), isolated_pair)
        elif idx > j and conn is graphs.Connective.JOIN:
            params = spectral.JoinParams.of(acc_order, graph.order, "laplacian")
            carried = spectral.carry_join(
                carried, params, acc_connected, isolated_pair and acc_order == 2
            )
        acc_order += graph.order
        acc_connected = graphs.is_connected(graph) if idx == 1 else conn is graphs.Connective.JOIN
    return carried


def test_early_exit_carry_equals_the_full_stage_walk():
    parts = [("O", 1), ("O", 2), ("O", 3), ("K", 2), ("P", 3), ("C", 4)]
    walked = 0
    for count in range(2, 5):
        conns = [None] + [
            graphs.Connective.JOIN if i % 2 == count % 2 else graphs.Connective.UNION
            for i in range(2, count + 1)
        ]
        for chosen in itertools.product(parts, repeat=count):
            spec = graphs.IteratedJoinSpec([(family(*p), c) for p, c in zip(chosen, conns)])
            for j, (part, _) in enumerate(spec.parts, start=1):
                isolated_pair = part.order == 2 and not part.edges
                for u, v in itertools.combinations(range(part.order), 2):
                    own = None if isolated_pair else transfer.pair_partition(
                        part, "laplacian", u, v
                    )
                    want = _full_stage_walk(spec, j, own, isolated_pair)
                    got = spectral.carry_through_plan(spec, j, own, isolated_pair)
                    assert got == want, (chosen, j, u, v)
                    assert iterated_join_sign_partition(spec, j, u, v) == want
                    walked += 1
    assert walked > 5000


def test_a_dead_plan_carries_nothing_past_its_dead_stage(monkeypatch):
    calls = []
    real = spectral.carry_join

    def counting(part, *args, **kwargs):
        calls.append(part)
        return real(part, *args, **kwargs)

    monkeypatch.setattr(spectral, "carry_join", counting)
    dead = parse_iterated_spec("O3 v O1 u O4 v O4")
    assert iterated_join_sign_partition(dead, 1, 0, 1) is None
    assert calls == []
    # the edgeless first pair revives at the first join, and lives on
    revived = parse_iterated_spec("O2 v O1 u O4 v O4")
    assert iterated_join_sign_partition(revived, 1, 0, 1) is not None
    assert len(calls) == 2


def test_mutating_a_partition_leaves_later_analyses_alone():
    x, o2 = family("C", 4), family("O", 2)
    fresh = join_pst(family("C", 4), family("O", 2), 0, 2)
    part = transfer.pair_partition(x, "laplacian", 0, 2)
    part.plus.append(99.0)
    part.minus.clear()
    cert = join_pst(x, o2, 0, 2)
    assert cert == fresh
    cert.partition.plus.append(99.0)
    cert.partition.minus.clear()
    assert join_pst(x, o2, 0, 2) == fresh
    assert transfer.pair_partition(x, "laplacian", 0, 2) == strong_cospectral(
        laplacian_decomp(family("C", 4)), 0, 2
    )
    spec = parse_iterated_spec("C4 v O2 u O4 v O2")
    first = iterated_join_analysis(spec, 1, 0, 2)
    first.partition.plus.clear()
    assert iterated_join_analysis(spec, 1, 0, 2) == iterated_join_analysis(
        parse_iterated_spec("C4 v O2 u O4 v O2"), 1, 0, 2
    )


def test_a_pair_with_unequal_diagonals_is_not_cospectral_before_the_spectrum(monkeypatch):
    # P3 with weights 1 and 1 + 1e-8: L[0, 0] = 1 and L[2, 2] = 1.00000001, but
    # the eigenbasis rows of 0 and 2 differ by about 1e-9, under the support
    # tolerance; A[0, 0] = A[2, 2] = 0, but (A^2)[0, 0] and (A^2)[2, 2] differ
    near_tie = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.00000001)])

    def forbidden(*args, **kwargs):
        raise AssertionError("the spectrum must not be read")

    monkeypatch.setattr(transfer, "spectrum", forbidden)
    for matrix in ("laplacian", "adjacency"):
        assert transfer.pair_partition(near_tie, matrix, 0, 2) is None
        assert transfer.pair_partition(near_tie, matrix, 2, 0) is None


def test_the_cospectrality_gate_sums_the_weights_exactly():
    # 0 and 1 swap under an automorphism, with the incident weights 0.1, 0.2
    # and 0.3 listed in opposite orders; the float degrees differ in the last bit
    graph = WeightedGraph(5, [(0, 2, 0.1), (0, 3, 0.2), (0, 4, 0.3),
                              (1, 4, 0.3), (1, 3, 0.2), (1, 2, 0.1)])
    assert graph.degree(0) != graph.degree(1)
    for matrix in ("laplacian", "adjacency"):
        assert transfer.pair_partition(graph, matrix, 0, 1) is not None
    # a loop of a different weight at one of them does tell them apart
    looped = WeightedGraph(5, list(zip(graph.rows, graph.cols, graph.weights)), [(0, 0.5), (1, 0.25)])
    assert transfer.pair_partition(looped, "adjacency", 0, 1) is None


def test_the_cospectrality_gate_keeps_the_spectrum_errors():
    looped = WeightedGraph(2, [(0, 1, 1.0)], [(0, 1.0)])
    with pytest.raises(PreconditionError, match="simple graphs only"):
        transfer.pair_partition(looped, "laplacian", 0, 1)
    with pytest.raises(ValueError, match="unknown matrix kind"):
        transfer.pair_partition(looped, "signless", 0, 1)
    for u, v in ((0, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            transfer.pair_partition(family("P", 2), "laplacian", u, v)


def _threshold_plans(max_parts, max_size):
    """Every plan the threshold search covers, as (sizes, spec), in its order."""
    empties = {size: family("O", size) for size in range(1, max_size + 1)}
    for count in range(2, max_parts + 1):
        conns = [None] + [
            graphs.Connective.JOIN if idx % 2 == count % 2 else graphs.Connective.UNION
            for idx in range(2, count + 1)
        ]
        for sizes in itertools.product(range(1, max_size + 1), repeat=count):
            if sizes[0] >= 2:
                parts = [(empties[s], c) for s, c in zip(sizes, conns)]
                yield list(sizes), graphs.IteratedJoinSpec(parts)


def _per_plan_search(max_parts, max_size):
    """The reference search: one full analysis per plan, dead plans included."""
    hits = []
    for sizes, spec in _threshold_plans(max_parts, max_size):
        cert = iterated_join_analysis(spec, 1, 0, 1)
        if cert.pst:
            time = [cert.time.pi_numerator, cert.time.pi_denominator, cert.time.sqrt_divisor]
            hits.append({"sizes": sizes, "part": 1, "time_value": cert.time.value, "time": time})
    return hits


@pytest.mark.parametrize("max_parts, max_size", [(2, 6), (3, 4), (4, 6), (5, 4), (4, 9)])
def test_threshold_walk_returns_the_per_plan_hits(max_parts, max_size):
    assert threshold_transfer_search(max_parts, max_size) == _per_plan_search(max_parts, max_size)


def test_threshold_walk_carries_each_plans_partition(monkeypatch):
    certified = {}
    real = transfer._iterated_certificate

    def recording(spec, j, u, v, partition):
        certified[tuple(spec.orders)] = partition
        return real(spec, j, u, v, partition)

    monkeypatch.setattr(transfer, "_iterated_certificate", recording)
    threshold_transfer_search(5, 6)
    dead = 0
    for sizes, spec in _threshold_plans(5, 6):
        want = iterated_join_sign_partition(spec, 1, 0, 1)
        # a plan the walk pruned is never certified, and must be dead
        assert certified.get(tuple(sizes)) == want, sizes
        dead += want is None
    assert len(certified) == 222 and dead == 7770 - 222


def _count_carry_joins(monkeypatch) -> list:
    calls = []
    real = spectral.carry_join

    def counting(part, *args, **kwargs):
        calls.append(part)
        return real(part, *args, **kwargs)

    monkeypatch.setattr(spectral, "carry_join", counting)
    return calls


def test_threshold_walk_carries_each_prefix_once(monkeypatch):
    calls = _count_carry_joins(monkeypatch)
    threshold_transfer_search(4, 6)
    # the joins at stage 2 of [2, s] (twice: two- and four-part plans) and at
    # stage 4 of [2, s, t, w]; the per-plan loop carries stage 2 once per plan
    assert len(calls) == 6 + 6 + 216
    walked = len(calls)
    calls.clear()
    _per_plan_search(4, 6)
    assert len(calls) == 6 + 2 * 216 and walked < len(calls)


@pytest.mark.parametrize("flip", [0, 221], ids=["first live plan", "last live plan"])
def test_threshold_walk_cross_checks_every_live_plan(monkeypatch, flip):
    verdicts = []
    real = transfer._evaluate_pattern

    def flipping(partition):
        outcome = real(partition)
        verdicts.append(outcome.ok)
        if len(verdicts) - 1 == flip:
            return replace(outcome, ok=not outcome.ok)
        return outcome

    monkeypatch.setattr(transfer, "_evaluate_pattern", flipping)
    with pytest.raises(InconsistencyError, match="stacked-cone congruences"):
        threshold_transfer_search(4, 6)
    # the flipped plan ([2, 1] or [2, 6, 6, 6]) is live but not a hit
    assert verdicts[flip] is False
    monkeypatch.setattr(transfer, "_evaluate_pattern", real)
    verdicts.clear()
    monkeypatch.setattr(transfer, "_evaluate_pattern", lambda p: verdicts.append(1) or real(p))
    threshold_transfer_search(4, 6)
    assert len(verdicts) == 222


def test_threshold_search_six_parts_is_the_stacked_cone_set():
    hits = threshold_transfer_search(6, 6)
    sizes = [
        list(s)
        for count in range(2, 7)
        for s in itertools.product(range(1, 7), repeat=count)
        if count % 2 == 0 and s[0] == 2 and s[1] % 4 == 2 and all(t % 4 == 0 for t in s[2:])
    ]
    assert [h["sizes"] for h in hits] == sizes
    assert all(h["time"] == [1, 2, 1] for h in hits)


def test_threshold_search_five_parts_is_the_stacked_cone_set():
    hits = threshold_transfer_search(5, 8)
    sizes = [
        list(s)
        for count in range(2, 6)
        for s in itertools.product(range(1, 9), repeat=count)
        if count % 2 == 0 and s[0] == 2 and s[1] % 4 == 2 and all(t % 4 == 0 for t in s[2:])
    ]
    assert [h["sizes"] for h in hits] == sizes
    # the hit list as the search made it before dead plans stopped early
    assert hits == [
        {"sizes": s, "part": 1, "time_value": 1.5707963267948966, "time": [1, 2, 1]}
        for s in (
            [2, 2], [2, 6], [2, 2, 4, 4], [2, 2, 4, 8], [2, 2, 8, 4], [2, 2, 8, 8],
            [2, 6, 4, 4], [2, 6, 4, 8], [2, 6, 8, 4], [2, 6, 8, 8],
        )
    ]


# ---------------------------------------------------------------------------
# confirmation on the implicit join
# ---------------------------------------------------------------------------


def test_double_cone_on_a_million_vertices():
    cert = double_cone_pst(family("O", 1_000_002))
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    assert cert.confirmation >= 1 - 1e-9
    assert cert.details["confirmation_route"] == "whole-quotient"
    assert cert.details["krylov_dimension"] == 3
    assert cert.details["krylov_bound"] == 0.0


def certified_time(cert):
    """The transfer time of a PSTCertificate, or the period of a PeriodCertificate."""
    return cert.symbolic if isinstance(cert, PeriodCertificate) else cert.time


# positive certificates and a period, and the closed form each takes its time from
CONFIRMED = {
    "join_pst": (
        "_join_certificate",
        lambda: join_pst(family("O", 2), family("O", 6), 0, 1),
    ),
    "self_join_analysis": (
        "_join_certificate",
        lambda: self_join_analysis(family("O", 2), 4, 0, 1),
    ),
    "iterated_join_analysis": (
        "_evaluate_pattern",
        lambda: iterated_join_analysis(parse_iterated_spec("O2 v K2"), 1, 0, 1),
    ),
    "pst_certificate": ("_evaluate_pattern", lambda: pst_certificate(family("C", 4), 0, 2)),
    # |U(t)[0, 0]| = |cos t| on K2: pi/3 reaches 1/2, and no grid time below it revives
    "minimum_period": (
        "_exact_min_period",
        lambda: minimum_period([2.0, 0.0], laplacian_decomp(family("K", 2)), 0),
    ),
}


@pytest.mark.parametrize("name", list(CONFIRMED))
def test_confirmation_catches_a_wrong_transfer_time(monkeypatch, name):
    closed_form, call = CONFIRMED[name]
    assert certified_time(call()) not in (None, WRONG_TIME)
    monkeypatch.setattr(transfer, closed_form, with_wrong_time(getattr(transfer, closed_form)))
    with pytest.raises(InconsistencyError, match="only reaches magnitude"):
        call()
    # with the gate stubbed out, nothing else notices
    monkeypatch.setattr(transfer, "_confirmed", lambda entry, what: float(abs(entry)))
    assert certified_time(call()) == WRONG_TIME


def count_whole_builds(monkeypatch, order: int | None) -> list:
    """Graphs returned by the join builders, as they are made: of the given order, or all."""
    built = []

    def counting(real):
        def call(*args):
            graph = real(*args)
            if order in (None, graph.order) and all(graph is not g for g in built):
                built.append(graph)
            return graph

        return call

    for name in ("join", "disjoint_union", "self_join", "iterated_join"):
        for module in (graphs, transfer):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(graphs, name)))
    monkeypatch.setattr(graphs.JoinTree, "build", counting(graphs.JoinTree.build))
    return built


def record_decompositions(monkeypatch) -> list:
    """The matrices spectral.decompose is handed, as it is handed them."""
    seen = []
    real = spectral.decompose

    def recording(matrix):
        seen.append(np.asarray(matrix))
        return real(matrix)

    monkeypatch.setattr(spectral, "decompose", recording)
    return seen


# every public join analysis, with the order of the join it answers for;
# the search answers for joins of many orders (None)
ANALYSES = {
    **{name: (CONFIRMED[name][1], order)
       for name, order in (("join_pst", 8), ("self_join_analysis", 8),
                           ("iterated_join_analysis", 4))},
    # the edgeless O2 above is never decomposed; C4 and Q3 are
    "join_pst C4 v O4": (lambda: join_pst(family("C", 4), family("O", 4), 0, 2), 8),
    "self_join_analysis Q3": (lambda: self_join_analysis(family("Q", 3), 2, 0, 7), 16),
    "join_pst negative": (lambda: join_pst(family("O", 2), family("O", 5000), 0, 1), 5002),
    "double_cone_pst": (lambda: double_cone_pst(family("O", 6)), 8),
    "pst_preserved": (lambda: pst_preserved(family("Q", 3), family("O", 8), 0, 7), 16),
    # padding builds the padded part K2 u O2, of order 4, and no join
    "pst_preserved padded": (
        lambda: pst_preserved(family("K", 2), family("O", 4), 0, 1, pad=2), 8
    ),
    "pst_induced": (lambda: pst_induced(family("P", 3), family("O", 9), 0, 2), 12),
    "threshold_transfer_search": (lambda: threshold_transfer_search(4, 6), None),
}


@pytest.mark.parametrize("name", list(ANALYSES))
def test_no_analysis_builds_or_decomposes_the_join(monkeypatch, name):
    call, order = ANALYSES[name]
    first = call()
    built = count_whole_builds(monkeypatch, order)
    decomposed = record_decompositions(monkeypatch)
    assert call() == first
    assert built == []
    if order is None:
        # the search decomposes its edgeless first parts, and nothing else
        assert decomposed and all(not m.any() for m in decomposed)
    else:
        assert all(len(m) != order for m in decomposed)
    if name in CONFIRMED:
        assert first.pst and first.confirmation >= 1 - 1e-9
    if name == "join_pst negative":
        assert not first.pst


# strong_cospectral calls per analysis: one for the part pair, which the
# part's own certificate in pst_preserved and pst_induced reads again
PARTITION_CALLS = {
    "join_pst laplacian": (lambda: join_pst(family("C", 4), family("O", 2), 0, 2), 1),
    "join_pst adjacency": (
        lambda: join_pst(family("C", 4), family("K", 2), 0, 2, matrix="adjacency"), 1
    ),
    "self_join_analysis": (lambda: self_join_analysis(family("C", 4), 3, 0, 2), 1),
    "pst_induced": (lambda: pst_induced(family("C", 4), family("O", 2), 0, 2), 1),
    "pst_preserved": (lambda: pst_preserved(family("Q", 3), family("O", 8), 0, 7), 1),
}


@pytest.mark.parametrize("name", list(PARTITION_CALLS))
def test_part_sign_partition_is_computed_once_per_analysis(monkeypatch, name):
    call, expected = PARTITION_CALLS[name]
    calls = _count_strong_cospectral(monkeypatch)
    call()
    assert len(calls) == expected
