import math
from fractions import Fraction

import numpy as np
import pytest

import qwjoin.graphs as graphs
import qwjoin.transfer as transfer
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
    iterated_join_analysis,
    iterated_join_sign_partition,
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
)
from qwjoin.transfer import SymbolicTime

from conftest import (
    WRONG_TIME,
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
    rr = join_period_ratio(
        family("K", 2), disjoint_union(family("O", 1), family("K", 2)), 1, side="right"
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
    def wrong_formula(fracs, m, n, connected):
        return "connected-general", Fraction(7, 3)

    monkeypatch.setattr(transfer, "_laplacian_ratio_formula", wrong_formula)
    with pytest.raises(InconsistencyError):
        join_period_ratio(family("K", 4), family("K", 4), 0)


# ---------------------------------------------------------------------------
# perfect state transfer certificates
# ---------------------------------------------------------------------------


def test_pst_certificate_edge_and_cycle():
    d = laplacian_decomp(family("K", 2))
    cert = pst_certificate(d, 0, 1)
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    cert = pst_certificate(laplacian_decomp(family("C", 4)), 0, 2)
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    assert cert.eigenvalue_class == "integer"
    assert cert.confirmation >= 1 - 1e-9


def test_pst_certificate_quadratic_class():
    d = decompose(graph_matrix(family("P", 3), "adjacency"))
    cert = pst_certificate(d, 0, 2)
    assert cert.pst
    assert cert.eigenvalue_class == "quadratic" and cert.delta == 2
    assert cert.time == SymbolicTime(1, 1, 2)
    assert cert.time.value == pytest.approx(math.pi / math.sqrt(2))


def test_pst_certificate_failures():
    cert = pst_certificate(decompose(graph_matrix(family("K", 3), "adjacency")), 0, 1)
    assert not cert.pst and not cert.strong_cospectral
    # C6 antipodes are strongly cospectral but the valuations refuse
    cert = pst_certificate(laplacian_decomp(family("C", 6)), 0, 3)
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


def test_join_pst_verify_modes():
    unchecked = join_pst(family("O", 2), family("O", 2), 0, 1, verify="none")
    assert unchecked.pst and unchecked.confirmation is None
    numeric = join_pst(family("O", 2), family("O", 2), 0, 1, verify="numeric")
    assert numeric.confirmation >= 1 - 1e-9
    full = join_pst(family("O", 2), family("O", 2), 0, 1, verify="full")
    assert full.pst and full.confirmation >= 1 - 1e-9
    with pytest.raises(ValueError):
        join_pst(family("O", 2), family("O", 2), 0, 1, verify="sometimes")


def test_join_pst_randomized_full_verification():
    rng = np.random.default_rng(301)
    for _ in range(60):
        x = random_simple(rng, int(rng.integers(2, 6)))
        y = random_simple(rng, int(rng.integers(1, 6)))
        u, v = sorted(rng.choice(x.order + y.order, size=2, replace=False).tolist())
        join_pst(x, y, int(u), int(v), verify="full")
    for _ in range(40):
        x = random_circulant(rng, int(rng.integers(2, 6)))
        y = random_circulant(rng, int(rng.integers(1, 6)))
        u, v = sorted(rng.choice(x.order + y.order, size=2, replace=False).tolist())
        join_pst(x, y, int(u), int(v), matrix="adjacency", verify="full")


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
    cert = self_join_analysis(family("O_loops", 2, 3.0), 2, 0, 1, matrix="adjacency")
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    with pytest.raises(PreconditionError):
        self_join_analysis(family("O_loops", 2, 0.5), 2, 0, 1, matrix="adjacency")


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
                    cert = self_join_analysis(x, r, u, v, matrix=matrix, verify="none")
                    want = oracle_strong_cospectral(built, u, v)
                    assert cert.strong_cospectral == (want is not None), (x, r, u, v)
                    assert (cert.partition is None) == (want is None)
                    if want is not None:
                        assert sets_close(cert.partition.plus, want[0])
                        assert sets_close(cert.partition.minus, want[1])


def test_self_join_full_verification_randomized():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = random_simple(rng, int(rng.integers(2, 5)))
        self_join_analysis(x, int(rng.integers(2, 5)), 0, 1, verify="full")


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


def test_iterated_analysis_positive_case():
    spec = parse_iterated_spec("O2 v O2 u O4 v O4")
    cert = iterated_join_analysis(spec, 1, 0, 1, verify="full")
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)


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


# ---------------------------------------------------------------------------
# confirmation on the implicit join
# ---------------------------------------------------------------------------


def test_double_cone_on_a_million_vertices():
    cert = double_cone_pst(family("O", 1_000_002))
    assert cert.pst and cert.time == SymbolicTime(1, 2, 1)
    assert cert.confirmation >= 1 - 1e-9
    assert cert.details["confirmation_route"] == "lanczos"
    assert cert.details["krylov_dimension"] == 3
    assert cert.details["krylov_bound"] < 1e-10


# positive certificates, and the closed form each takes its time from
CONFIRMED = {
    "join_pst": (
        "_join_pst_laplacian",
        lambda **kw: join_pst(family("O", 2), family("O", 6), 0, 1, **kw),
    ),
    "self_join_analysis": (
        "_evaluate_pattern",
        lambda **kw: self_join_analysis(family("O", 2), 4, 0, 1, **kw),
    ),
    "iterated_join_analysis": (
        "_evaluate_pattern",
        lambda **kw: iterated_join_analysis(parse_iterated_spec("O2 v K2"), 1, 0, 1, **kw),
    ),
}


@pytest.mark.parametrize("name", list(CONFIRMED))
def test_confirmation_catches_a_wrong_transfer_time(monkeypatch, name):
    closed_form, call = CONFIRMED[name]
    assert call().pst
    monkeypatch.setattr(transfer, closed_form, with_wrong_time(getattr(transfer, closed_form)))
    with pytest.raises(InconsistencyError, match="only reaches magnitude"):
        call()
    # with the walk check off, nothing else notices
    assert call(verify="none").time == WRONG_TIME


def count_whole_builds(monkeypatch, order: int) -> list:
    """Graphs of the given order returned by the join builders, as they are made."""
    built = []
    for name in ("join", "disjoint_union", "self_join", "iterated_join"):
        real = getattr(graphs, name)

        def counting(*args, _real=real):
            graph = _real(*args)
            if graph.order == order and all(graph is not g for g in built):
                built.append(graph)
            return graph

        for module in (graphs, transfer):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return built


@pytest.mark.parametrize("name", list(CONFIRMED))
def test_numeric_confirmation_builds_nothing_and_full_builds_once(monkeypatch, name):
    call = CONFIRMED[name][1]
    cert = call(verify="numeric")
    order = {"join_pst": 8, "self_join_analysis": 8, "iterated_join_analysis": 4}[name]
    built = count_whole_builds(monkeypatch, order)
    assert call(verify="numeric").confirmation == cert.confirmation
    assert built == []
    full = call(verify="full")
    assert len(built) == 1
    assert full.pst and full.confirmation >= 1 - 1e-9
