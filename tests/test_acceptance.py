"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every numeric confirmation goes through the scipy/numpy oracles from
conftest, never through the package's own spectral code.
"""

import math
import time
from fractions import Fraction

import numpy as np

from qwjoin import (
    WeightedGraph,
    decompose,
    disjoint_union,
    eigenvalue_support,
    family,
    graph_matrix,
    iterated_join,
    iterated_join_support,
    iterated_vertex,
    join,
    join_entry,
    join_period_ratio,
    join_pst,
    join_strong_cospectral,
    join_support,
    minimum_period,
    pst_certificate,
    pst_preserved,
    threshold_transfer_search,
    transition_matrix,
)
from qwjoin.bounds import bound_sweep
from qwjoin.graphs import Connective, IteratedJoinSpec
from qwjoin.transfer import SymbolicTime

from conftest import (
    oracle_max_transfer,
    oracle_strong_cospectral,
    oracle_support,
    oracle_transition,
    random_circulant,
    random_simple,
    sets_close,
)


def _verdict(number, text, started):
    print(f"criterion {number} PASS: {text} ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_double_cone_parity():
    started = time.perf_counter()
    for n in range(2, 21):
        cert = join_pst(family("O", 2), family("O", n), 0, 1)
        assert cert.pst == (n % 4 == 2), n
        if cert.pst:
            jm = graph_matrix(join(family("O", 2), family("O", n)), "laplacian")
            mag = abs(oracle_transition(jm, cert.time.value)[0, 1])
            assert mag >= 1 - 1e-6, (n, mag)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _verdict(1, "double cones transfer exactly at sizes 2 mod 4 over n=2..20", started)


def test_criterion_02_complete_minus_edge():
    started = time.perf_counter()
    hits = []
    for d in range(4, 18):
        cert = join_pst(family("O", 2), family("K", d - 2), 0, 1)
        if cert.pst:
            hits.append(d)
            g = family("K_minus_e", d)
            mag = abs(oracle_transition(graph_matrix(g, "laplacian"), cert.time.value)[0, 1])
            assert mag >= 1 - 1e-6, (d, mag)
    assert hits == [4, 8, 12, 16]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _verdict(2, "complete graphs minus an edge transfer exactly at orders 4, 8, 12, 16", started)


def test_criterion_03_cocktail_party_growth():
    started = time.perf_counter()
    for m in (2, 6, 10, 14, 18):
        base = family("CP", m)
        antipode = m // 2
        cert = pst_certificate(base, 0, antipode)
        assert not cert.pst, m
        grown = join(base, family("O", 2))
        bigger = family("CP", m + 2)
        assert grown.order == bigger.order
        got = np.sort(np.linalg.eigvalsh(graph_matrix(grown, "laplacian")))
        want = np.sort(np.linalg.eigvalsh(graph_matrix(bigger, "laplacian")))
        assert np.allclose(got, want, atol=1e-9)
        cone = join_pst(base, family("O", 2), 0, antipode)
        assert cone.pst, m
        mag = abs(
            oracle_transition(graph_matrix(grown, "laplacian"), cone.time.value)[0, antipode]
        )
        assert mag >= 1 - 1e-6, (m, mag)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict(3, "cocktail parties gain antipodal transfer exactly by growing two vertices", started)


def test_criterion_04_hypercube_cones():
    started = time.perf_counter()
    for p, pair in ((2, (0, 3)), (3, (0, 7))):
        cube = family("Q", p)
        for n in range(1, 17):
            cert = pst_preserved(cube, family("O", n), *pair)
            assert cert.pst == (n % 4 == 0), (p, n)
            if cert.pst:
                jm = graph_matrix(join(cube, family("O", n)), "laplacian")
                mag = abs(oracle_transition(jm, cert.time.value)[pair[0], pair[1]])
                assert mag >= 1 - 1e-6, (p, n, mag)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict(4, "hypercube transfer survives cones exactly at sizes 0 mod 4 up to 16", started)


def test_criterion_05_period_ratios():
    started = time.perf_counter()
    rr = join_period_ratio(family("K", 4), family("K", 4), 0)
    assert rr.ratio == Fraction(4, 8)
    assert rr.period_part == SymbolicTime(1, 2, 1)  # 2 pi / 4
    for n in range(1, 7):
        rr = join_period_ratio(family("K_bipartite", 3, 3), family("O", n), 0)
        assert rr.ratio == Fraction(3, math.gcd(3, n)), n
        joined = join(family("K_bipartite", 3, 3), family("O", n))
        d = decompose(graph_matrix(joined, "laplacian"))
        cert = minimum_period(eigenvalue_support(d, 0), d, 0)
        assert cert.periodic
        rel = abs(cert.period - rr.period_join.value) / rr.period_join.value
        assert rel <= 1e-9, (n, rel)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _verdict(5, "join periods follow the closed-form ratios and the direct engine agrees", started)


def test_criterion_06_deviation_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(200):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(1, 11))
        x, y = random_simple(rng, m), random_simple(rng, n)
        u = int(rng.integers(0, m))
        v = int(rng.integers(0, m))
        rep = bound_sweep(x, y, u, v, t_max=4 * math.pi, samples=257)
        assert rep.max_abs_deviation <= 2.0 / m + 1e-9
    # tightness, Laplacian: m=6, n=2 with equal offset valuations
    x = disjoint_union(family("C", 4), family("O", 2))
    jm = graph_matrix(join(x, family("O", 2)), "laplacian")
    xm = graph_matrix(x, "laplacian")
    t = math.pi / 2
    f_val = abs(oracle_transition(jm, t)[0, 2]) - abs(oracle_transition(xm, t)[0, 2])
    assert abs(abs(f_val) - 1.0 / 3.0) <= 1e-6
    # tightness, adjacency: three disjoint edges under a heavy-loop pair
    xa = disjoint_union(disjoint_union(family("K", 2), family("K", 2)), family("K", 2))
    ya = family("O_loops", 2, 5.0)
    jm = graph_matrix(join(xa, ya), "adjacency")
    xm = graph_matrix(xa, "adjacency")
    f_val = abs(oracle_transition(jm, t)[0, 0]) - abs(oracle_transition(xm, t)[0, 0])
    assert abs(abs(f_val) - 2.0 / 6.0) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(6, "entry deviations respect 2/m on 200 random joins and attain it on both generators", started)


def test_criterion_07_closed_forms_match_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    instances = 0
    for _ in range(70):
        x = random_simple(rng, int(rng.integers(2, 7)))
        y = random_simple(rng, int(rng.integers(1, 7)))
        joined = join(x, y)
        jm = graph_matrix(joined, "laplacian")
        t = float(rng.uniform(0.0, 2 * math.pi))
        full = oracle_transition(jm, t)
        for _ in range(3):
            u = int(rng.integers(0, joined.order))
            v = int(rng.integers(0, joined.order))
            assert abs(join_entry(x, y, u, v, t, "laplacian") - full[u, v]) <= 1e-9
        for u in range(x.order):
            assert sets_close(join_support(x, y, u), oracle_support(jm, u), tol=1e-7)
        u, v = sorted(rng.choice(joined.order, size=2, replace=False).tolist())
        got = join_strong_cospectral(x, y, int(u), int(v))
        want = oracle_strong_cospectral(jm, int(u), int(v))
        assert (got is None) == (want is None)
        if got is not None:
            assert sets_close(got.plus, want[0], tol=1e-7)
            assert sets_close(got.minus, want[1], tol=1e-7)
        instances += 1
    for _ in range(70):
        x = random_circulant(rng, int(rng.integers(2, 7)))
        y = random_circulant(rng, int(rng.integers(1, 7)))
        joined = join(x, y)
        jm = graph_matrix(joined, "adjacency")
        t = float(rng.uniform(0.0, 2 * math.pi))
        full = oracle_transition(jm, t)
        for _ in range(3):
            u = int(rng.integers(0, joined.order))
            v = int(rng.integers(0, joined.order))
            assert abs(join_entry(x, y, u, v, t, "adjacency") - full[u, v]) <= 1e-9
        for u in range(x.order):
            assert sets_close(
                join_support(x, y, u, matrix="adjacency"), oracle_support(jm, u), tol=1e-7
            )
        u, v = sorted(rng.choice(joined.order, size=2, replace=False).tolist())
        got = join_strong_cospectral(x, y, int(u), int(v), matrix="adjacency")
        want = oracle_strong_cospectral(jm, int(u), int(v))
        assert (got is None) == (want is None)
        if got is not None:
            assert sets_close(got.plus, want[0], tol=1e-7)
            assert sets_close(got.minus, want[1], tol=1e-7)
        instances += 1
    for _ in range(60):
        count = int(rng.integers(2, 5))
        parts = []
        for j in range(1, count + 1):
            g = random_simple(rng, int(rng.integers(1, 4)))
            conn = (
                None
                if j == 1
                else (Connective.JOIN if j % 2 == count % 2 else Connective.UNION)
            )
            parts.append((g, conn))
        spec = IteratedJoinSpec(parts)
        built = iterated_join(spec)
        jm = graph_matrix(built, "laplacian")
        j = int(rng.integers(1, count + 1))
        w = int(rng.integers(0, parts[j - 1][0].order))
        got = iterated_join_support(spec, j, w)
        want = oracle_support(jm, iterated_vertex(spec, j, w))
        assert sets_close(got, want, tol=1e-7)
        instances += 1
    assert instances >= 200
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _verdict(7, f"closed forms match the oracles on {instances} randomized instances", started)


def test_criterion_08_parity_negative_controls():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    checked_l = 0
    while checked_l < 40:
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        if (m + n) % 2 == 0 or m + n > 9 or m + n < 2:
            continue
        x, y = random_simple(rng, m), random_simple(rng, n)
        joined = join(x, y)
        u, v = sorted(rng.choice(joined.order, size=2, replace=False).tolist())
        cert = join_pst(x, y, int(u), int(v))
        assert not cert.pst, (m, n, u, v)
        peak = oracle_max_transfer(joined, int(u), int(v), t_max=32 * math.pi, samples=4096)
        assert peak <= 1 - 1e-3, (m, n, u, v, peak)
        checked_l += 1
    checked_a = 0
    while checked_a < 40:
        x = random_circulant(rng, int(rng.integers(1, 8)))
        y = random_circulant(rng, int(rng.integers(1, 8)))
        k = int(round(x.degree(0))) if x.order else 0
        ell = int(round(y.degree(0))) if y.order else 0
        if (k + ell) % 2 == 0 or x.order + y.order > 9:
            continue
        joined = join(x, y)
        u, v = sorted(rng.choice(joined.order, size=2, replace=False).tolist())
        cert = join_pst(x, y, int(u), int(v), matrix="adjacency")
        assert not cert.pst, (x.edges, y.edges, u, v)
        peak = oracle_max_transfer(
            joined, int(u), int(v), matrix="adjacency", t_max=32 * math.pi, samples=4096
        )
        assert peak <= 1 - 1e-3, (x.order, y.order, u, v, peak)
        checked_a += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _verdict(8, "odd total order or odd degree sum blocks transfer, on certificates and oracle grids", started)


def test_criterion_09_threshold_search():
    started = time.perf_counter()
    hits = threshold_transfer_search(max_parts=4, max_size=6)
    assert [h["sizes"] for h in hits] == [[2, 2], [2, 6], [2, 2, 4, 4], [2, 6, 4, 4]]
    for h in hits:
        sizes = h["sizes"]
        assert sizes[0] == 2
        assert sizes[1] % 4 == 2
        assert all(s % 4 == 0 for s in sizes[2:])
        assert len(sizes) % 2 == 0
        assert abs(h["time_value"] - math.pi / 2) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(9, "threshold chains transfer only at the congruence pattern, always at pi/2", started)


def test_criterion_10_property_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    cases = 0
    # projector algebra
    for _ in range(40):
        g = random_simple(rng, int(rng.integers(2, 9)))
        d = decompose(graph_matrix(g, "laplacian"))
        eye = np.eye(g.order)
        total = sum(d.projectors)
        rebuilt = sum(lam * p for lam, p in zip(d.eigenvalues, d.projectors))
        assert all(np.allclose(p @ p, p, atol=1e-8) for p in d.projectors)
        cases += 1
        assert all(
            np.allclose(d.projectors[i] @ d.projectors[j], 0.0, atol=1e-8)
            for i in range(len(d.projectors))
            for j in range(len(d.projectors))
            if i != j
        )
        cases += 1
        assert np.allclose(total, eye, atol=1e-8)
        cases += 1
        assert np.allclose(rebuilt, graph_matrix(g, "laplacian"), atol=1e-7)
        cases += 1
    # unitarity and the group law
    for _ in range(80):
        g = random_simple(rng, int(rng.integers(2, 8)))
        d = decompose(graph_matrix(g, "adjacency"))
        s, t = rng.uniform(-6, 6, size=2)
        us, ut = transition_matrix(d, s), transition_matrix(d, t)
        assert np.allclose(us @ us.conj().T, np.eye(g.order), atol=1e-9)
        cases += 1
        assert np.allclose(us @ ut, transition_matrix(d, s + t), atol=1e-9)
        cases += 1
    # join-entry identities on both generators
    for _ in range(60):
        x = random_simple(rng, int(rng.integers(1, 6)))
        y = random_simple(rng, int(rng.integers(1, 6)))
        t = float(rng.uniform(0, 6))
        d = decompose(graph_matrix(join(x, y), "laplacian"))
        full = transition_matrix(d, t)
        for u in range(x.order):
            for v in range(x.order + y.order):
                assert abs(join_entry(x, y, u, v, t, "laplacian") - full[u, v]) <= 1e-9
        cases += 1
    for _ in range(60):
        x = random_circulant(rng, int(rng.integers(1, 6)))
        y = random_circulant(rng, int(rng.integers(1, 6)))
        t = float(rng.uniform(0, 6))
        d = decompose(graph_matrix(join(x, y), "adjacency"))
        full = transition_matrix(d, t)
        for u in range(x.order):
            for v in range(x.order + y.order):
                assert abs(join_entry(x, y, u, v, t, "adjacency") - full[u, v]) <= 1e-9
        cases += 1
    # regular graphs: the two walks agree entrywise in magnitude
    for _ in range(40):
        g = random_circulant(rng, int(rng.integers(2, 9)))
        dl = decompose(graph_matrix(g, "laplacian"))
        da = decompose(graph_matrix(g, "adjacency"))
        for t in rng.uniform(0, 8, size=2):
            assert np.allclose(
                np.abs(transition_matrix(dl, t)), np.abs(transition_matrix(da, t)), atol=1e-9
            )
            cases += 1
    assert cases >= 500
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(10, f"{cases} property cases: projectors, unitarity, group law, join entries, regular walks", started)
