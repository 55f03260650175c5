"""The exact readings of a spectrum against the forms they replaced.

reconstruct_rational, transfer._exact_min_period and
transfer._diagonal_moments compute in Python ints, and the supports and
sign partitions take each row norm as sqrt(r.dot(r)). The references below
are the former forms, kept verbatim apart from their names:
Fraction.limit_denominator, sums and differences of Fractions, and
np.linalg.norm. Every answer must be identical, not merely close, and every
exception type must match.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import qwjoin.transfer as transfer
from qwjoin import WeightedGraph, decompose, disjoint_union, family, graph_matrix, join
from qwjoin.arith import _checked_float, gcd_all, lcm_all, reconstruct_rational
from qwjoin.errors import IntegerOverflowError
from qwjoin.spectral import SUPPORT_TOL, eigenvalue_support, strong_cospectral

DENOMINATORS = (1, 2, 7, 10**4, 10**6)


def outcome(fn, *args):
    """fn's return value, or the type of the exception it raises."""
    try:
        return "returns", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc)


def reference_reconstruct_rational(x, max_denominator=10**6, tol=1e-7):
    """reconstruct_rational through Fraction.limit_denominator."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    x = _checked_float(x, tol)
    if x is None:
        return None
    candidate = Fraction(x).limit_denominator(max_denominator)
    if abs(x - candidate) <= tol:
        return candidate
    return None


def assert_same_reading(x, max_denominator, tol):
    got = outcome(reconstruct_rational, x, max_denominator, tol)
    want = outcome(reference_reconstruct_rational, x, max_denominator, tol)
    assert got == want, (x, max_denominator, tol)
    if got[0] == "returns" and got[1] is not None:
        assert type(got[1]) is Fraction, x


def _seeded_values(rng):
    values = [0.0, -0.0, 5e-324, -5e-324, 1 / 3, -11 / 3, 2.0**62, -(2.0**62), 2.0**62 - 1024.0]
    values += [2.0**63 - 1024.0, -(2.0**63 - 1024.0)]  # the last floats inside the 64-bit range
    values += [rng.uniform(-1e4, 1e4) for _ in range(400)]
    values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 15) for _ in range(400)]
    values += [math.sqrt(n) for n in rng.sample(range(2, 10**6), 200)]
    values += [2 - 2 * math.cos(math.pi * k / 8) for k in range(1, 16)]
    for _ in range(400):  # exact p/q with q <= 10**6, as close as a float gets
        values.append(rng.randint(-10**7, 10**7) / rng.randint(1, 10**6))
    return values


def _midpoints(rng, max_denominator):
    """Midpoints of the two candidates around seeded values: exact ties where
    the midpoint is a float, else its rounding and the floats beside it."""
    out, ties = [], 0
    for _ in range(300):
        x = rng.uniform(-50.0, 50.0)
        if Fraction(x).denominator <= max_denominator:
            continue
        low = Fraction(x).limit_denominator(max_denominator)
        # the neighbour of low on x's far side, within the same bound
        high = Fraction(2 * x - float(low)).limit_denominator(max_denominator)
        mid = (low + high) / 2
        m = float(mid)
        ties += Fraction(m) == mid
        out += [m, math.nextafter(m, math.inf), math.nextafter(m, -math.inf)]
    return out, ties


def test_reconstruct_rational_matches_limit_denominator():
    rng = random.Random(2024)
    values = _seeded_values(rng)
    for max_denominator in DENOMINATORS:
        midpoints, _ = _midpoints(rng, max_denominator)
        for x in values + midpoints:
            for tol in (1e-7, 1.0):
                assert_same_reading(x, max_denominator, tol)


def test_reconstruct_rational_ties_go_to_the_convergent():
    # x halfway between the candidates: the last convergent wins, which is
    # the floor at max_denominator 1, and 0 against 1/2**j at 2**j
    ties = [(k + 0.5, 1) for k in range(-4, 4)] + [(k + 0.25, 2) for k in range(-4, 4)]
    ties += [(k + 0.75, 2) for k in range(-4, 4)] + [(2.0 ** -(j + 1), 2**j) for j in (3, 13, 19)]
    for x, max_denominator in ties:
        want = Fraction(x).limit_denominator(max_denominator)
        assert abs(want - Fraction(x)) == Fraction(1, 2 * max_denominator)
        assert reconstruct_rational(x, max_denominator, 1.0) == want, (x, max_denominator)
    assert reconstruct_rational(0.5, 1, 1.0) == 0
    assert reconstruct_rational(-0.5, 1, 1.0) == -1
    # exact ties do occur among the sweep's midpoints at the small bounds
    rng = random.Random(2024)
    assert _midpoints(rng, 1)[1] > 0 and _midpoints(rng, 2)[1] > 0


def test_reconstruct_rational_keeps_its_input_checks_in_order():
    for x in (math.inf, -math.inf, math.nan):
        for max_denominator in DENOMINATORS:
            assert reconstruct_rational(x, max_denominator) is None
    for x in (2.0**63, -(2.0**63) * 2, 1e300, -1e19):
        with pytest.raises(IntegerOverflowError):
            reconstruct_rational(x)
    # max_denominator is checked first, then tol, then finiteness, then range
    cases = [(math.nan, 0, 0.0), (1e300, 0, 1e-7), (math.nan, 1, 0.0), (1e300, 1, -1.0),
             (math.inf, 1, 1e-7), (1e300, 1, math.nan), (0.5, 1, math.nan)]
    for x, max_denominator, tol in cases:
        assert_same_reading(x, max_denominator, tol)
    assert outcome(reconstruct_rational, math.nan, 0, 0.0) == ("raises", ValueError)
    assert outcome(reconstruct_rational, 1e300, 1, -1.0) == ("raises", ValueError)


# ---------------------------------------------------------------------------
# the rational period lattice
# ---------------------------------------------------------------------------


def fraction_exact_min_period(values):
    """_exact_min_period with its rational route on Fractions."""
    vals = list(values)
    family = transfer._classify_differences(vals)
    if family is not None:
        delta, coords = family
        g = gcd_all([coords[0] - c for c in coords[1:]])
        return Fraction(4 if delta > 1 else 2, g), delta
    # the route below stops at the first value that fails; every value still
    # gets reconstruct_rational's 64-bit range check, as when all were built
    for v in vals:
        _checked_float(v, 1.0)
    first = reference_reconstruct_rational(vals[0])
    if first is None:
        return None
    diffs = []
    for v in vals[1:]:
        f = reference_reconstruct_rational(v)
        # rational eigenvalues of a matrix N/c live in (1/c)Z, so an honest
        # rational spectrum keeps its denominators near the weight
        # denominators; a large one is the signature of a best-approximation
        # convergent of an irrational value
        if f is None or (first - f).denominator > 10**4:
            return None
        diffs.append(first - f)
    common = lcm_all([d.denominator for d in diffs])
    if common > 10**4:
        return None
    ints = [int(d * common) for d in diffs]
    return Fraction(2 * common, gcd_all(ints)), 1


def _supports(rng):
    """Seeded supports, distinct and descending: rational ones with small
    denominators, with denominators at the 10**4 gate, with large prime
    denominators, and irrational ones."""
    small = (1, 2, 3, 4, 5, 6, 8, 12, 100)
    gate = (100, 101, 99, 9999, 10**4, 10001, 20000)
    large = (100003, 999983, 999979, 999961, 999959)
    for _ in range(300):
        size = rng.randint(2, 6)
        kind = rng.randrange(4)
        if kind == 0:
            vals = [rng.randint(-60, 60) / rng.choice(small) for _ in range(size)]
        elif kind == 1:
            vals = [rng.randint(-300, 300) / rng.choice(gate) for _ in range(size)]
        elif kind == 2:
            vals = [rng.randint(1, 10**5) / q for q in rng.sample(large, min(size, len(large)))]
        else:
            vals = [rng.choice((math.sqrt(2), math.sqrt(5), math.pi)) * rng.randint(1, 9) + rng.uniform(-3, 3)
                    for _ in range(size)]
        vals = sorted(set(vals), reverse=True)
        if len(vals) >= 2:
            yield vals


def test_exact_min_period_matches_the_fraction_route():
    rng = random.Random(24)
    seen = {"period": 0, "none": 0}
    for vals in _supports(rng):
        got = outcome(transfer._exact_min_period, vals)
        assert got == outcome(fraction_exact_min_period, vals), vals
        seen["none" if got == ("returns", None) else "period"] += 1
    assert min(seen.values()) > 20, seen


def test_exact_min_period_denominator_gate():
    # a difference of denominator 10**4 passes; 10**4 + 1 does not
    assert transfer._exact_min_period([1e-4, 0.0]) == (Fraction(2 * 10**4), 1)
    assert transfer._exact_min_period([1 / 10001, 0.0]) is None
    # the gate reads the difference in lowest terms: 3/200 - 1/200 = 1/100
    assert transfer._exact_min_period([3 / 200, 1 / 200]) == (Fraction(200), 1)
    assert transfer._exact_min_period([3 / 200, 1 / 200, 0.0]) == (Fraction(400), 1)
    # large prime denominators stop at the first difference, before their
    # lcm could leave the 64-bit range
    primes = [999983, 999979, 999961, 999959]
    thirds = [(q // 3) / q for q in primes]
    assert transfer._exact_min_period(thirds) is None
    above = [0.0] + [-1 / p for p in (10007, 10009, 10037, 10039, 10061)]
    assert transfer._exact_min_period(above) is None
    # the lattice gate: 1/128 and 1/125 each pass, their lcm 16,000 does not
    lattice = [0.0, -1 / 128, -1 / 125]
    assert transfer._exact_min_period(lattice) is None
    assert transfer._exact_min_period(lattice[:2]) == (Fraction(256), 1)
    for vals in ([1e-4, 0.0], [1 / 10001, 0.0], [3 / 200, 1 / 200, 0.0], thirds, above, lattice):
        assert transfer._exact_min_period(vals) == fraction_exact_min_period(vals)
    # a value past 64 bits raises even after an earlier value has failed
    with pytest.raises(IntegerOverflowError):
        transfer._exact_min_period([math.sqrt(2) / 7, 0.1234567, 1e300])


# ---------------------------------------------------------------------------
# row norms of the eigenbasis blocks
# ---------------------------------------------------------------------------


def numpy_eigenvalue_support(decomp, u):
    """eigenvalue_support with np.linalg.norm."""
    return [
        lam
        for lam, basis in zip(decomp.eigenvalues, decomp.bases)
        if float(np.linalg.norm(basis[u])) > SUPPORT_TOL
    ]


def numpy_strong_cospectral(decomp, u, v):
    """strong_cospectral with np.linalg.norm, as (plus, minus) or None."""
    plus, minus = [], []
    for lam, basis in zip(decomp.eigenvalues, decomp.bases):
        cu = basis[u]
        cv = basis[v]
        if np.linalg.norm(cu) <= SUPPORT_TOL and np.linalg.norm(cv) <= SUPPORT_TOL:
            continue
        if np.linalg.norm(cu - cv) <= SUPPORT_TOL:
            plus.append(lam)
        elif np.linalg.norm(cu + cv) <= SUPPORT_TOL:
            minus.append(lam)
        else:
            return None
    return plus, minus


def _weighted_circulant(rng, order):
    """A circulant with seeded weights: lambda_k = lambda_{n-k}, so most
    eigenvalues repeat."""
    edges = {}
    for step in range(1, order // 2 + 1):
        if rng.random() < 0.7:
            w = rng.choice((0.5, 1.0, 1.5, rng.uniform(0.1, 3.0)))
            for u in range(order):
                a, b = sorted((u, (u + step) % order))
                edges[a, b] = w
    return WeightedGraph(order, [(a, b, w) for (a, b), w in edges.items()])


def _graphs_with_repeated_eigenvalues(rng):
    for _ in range(6):
        circ = _weighted_circulant(rng, rng.randint(4, 12))
        yield circ
        yield WeightedGraph(circ.order, zip(circ.rows, circ.cols, circ.weights),
                            [(v, 0.75) for v in range(circ.order)])
        small = WeightedGraph(4, [(0, 1, rng.uniform(0.5, 2)), (1, 2, rng.uniform(0.5, 2)),
                                  (2, 3, rng.uniform(0.5, 2)), (0, 3, rng.uniform(0.5, 2))])
        yield disjoint_union(small, small)
        yield join(small, small)
        # the centre of a star sees neither the leaves' repeated eigenvalue nor 0
        star = WeightedGraph(5, [(0, leaf, small.weights[0]) for leaf in range(1, 5)])
        yield disjoint_union(star, star)
    yield from (family("Q", 3), family("CP", 8), family("K", 5), family("C", 9))


def test_supports_and_partitions_match_numpy_norms():
    rng = random.Random(7)
    proper = partitions = repeated = 0
    for graph in _graphs_with_repeated_eigenvalues(rng):
        kinds = ("adjacency",) if len(graph.loop_at) else ("adjacency", "laplacian")
        for kind in kinds:
            decomp = decompose(graph_matrix(graph, kind))
            repeated += max(decomp.multiplicities) > 1
            for u in range(graph.order):
                support = eigenvalue_support(decomp, u)
                assert support == numpy_eigenvalue_support(decomp, u)
                proper += len(support) < len(decomp.eigenvalues)
                for v in range(graph.order):
                    if u == v:
                        continue
                    got = strong_cospectral(decomp, u, v)
                    want = numpy_strong_cospectral(decomp, u, v)
                    assert (got if got is None else (got.plus, got.minus)) == want, (u, v)
                    partitions += got is not None
    assert proper > 0 and partitions > 0 and repeated > 30


# ---------------------------------------------------------------------------
# the exact cospectrality gate
# ---------------------------------------------------------------------------


def fraction_diagonal_moments(graph, laplacian, u):
    """M_uu and (M^2)_uu, summed exactly as Fractions of u's edge and loop weights."""
    incident = [Fraction(w) for w in graph.weights[(graph.rows == u) | (graph.cols == u)].tolist()]
    loops = [Fraction(w) for w in graph.loop_weights[graph.loop_at == u].tolist()]
    diagonal = sum(incident if laplacian else loops, Fraction(0))
    return diagonal, diagonal * diagonal + sum(w * w for w in incident)


ONE_ULP = (1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0))
EDGE_WEIGHTS = ONE_ULP + (0.1, 0.2, 0.3, 5e-324, 2.5e-310, 1e-300, 1e300, 0.5)
LOOP_WEIGHTS = ONE_ULP + (-1.0, 0.3, -5e-324, 1e300, -1e300, 2.0)


def _gate_graphs(rng):
    for _ in range(400):
        order = rng.randint(2, 6)
        pool = rng.sample(EDGE_WEIGHTS, rng.randint(1, 3))
        edges = [(u, v, rng.choice(pool)) for u in range(order) for v in range(u + 1, order)
                 if rng.random() < 0.6]
        loops = []
        if rng.random() < 0.5:
            loop_pool = rng.sample(LOOP_WEIGHTS, rng.randint(1, 2))
            loops = [(v, rng.choice(loop_pool)) for v in range(order) if rng.random() < 0.7]
        yield WeightedGraph(order, edges, loops)


def test_diagonal_moments_match_the_fraction_sums():
    rng = random.Random(22)
    decisions = set()
    for graph in _gate_graphs(rng):
        for laplacian in (False, True) if not len(graph.loop_at) else (False,):
            got = [transfer._diagonal_moments(graph, laplacian, u) for u in range(graph.order)]
            want = [fraction_diagonal_moments(graph, laplacian, u) for u in range(graph.order)]
            for (m1, m2), (f1, f2) in zip(got, want):
                assert (m1, m2) == (f1 * 2**1074, f2 * 2**2148)
            for u in range(graph.order):
                for v in range(u + 1, graph.order):
                    same = got[u] == got[v]
                    assert same == (want[u] == want[v]), (u, v)
                    decisions.add(same)
    assert decisions == {True, False}


def test_the_gate_tells_weights_one_ulp_apart():
    a, b = ONE_ULP[:2]
    graph = WeightedGraph(4, [(0, 2, a), (1, 3, b)])
    for laplacian in (False, True):
        assert transfer._diagonal_moments(graph, laplacian, 0) != transfer._diagonal_moments(
            graph, laplacian, 1)
    tiny = WeightedGraph(4, [(0, 2, 5e-324), (1, 3, 1e-323)])
    assert transfer._diagonal_moments(tiny, True, 0) != transfer._diagonal_moments(tiny, True, 1)
    # the P3 near-tie is still not strongly cospectral
    near_tie = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.00000001)])
    for matrix in ("laplacian", "adjacency"):
        assert transfer.pair_partition(near_tie, matrix, 0, 2) is None
