"""The exact classification against the search it replaced.

classify_eigenvalues rejects a support with an O(n) necessary condition
before its pair-sum search, and integer supports are scored without
building QuadraticEigenvalue objects. The references below are the former
classify_eigenvalues, _classify_differences, _exact_min_period and
_evaluate_pattern, kept verbatim (only renamed), which ran the search on
every support and built one object per value. Every return value and every
exception type must match them, except that a zero period lattice, where the
reference divided by zero, now raises NumericError.
"""

import itertools
import math
from fractions import Fraction

import networkx
import pytest
from hypothesis import given, settings, strategies as st

import qwjoin.arith as arith
import qwjoin.transfer as transfer
from qwjoin import (
    WeightedGraph,
    classify_eigenvalues,
    family,
    join_support,
    threshold_transfer_search,
)
from qwjoin.arith import (
    INT64_MAX,
    QuadraticEigenvalue,
    gcd_all,
    lcm_all,
    nearest_integer,
    nu2,
    reconstruct_rational,
    squarefree_part,
)
from qwjoin.spectral import SupportPartition, _merge_close, eigenvalue_support, spectrum
from qwjoin.errors import IntegerOverflowError, NumericError
from qwjoin.transfer import SymbolicTime, _PatternOutcome


def reference_classify_eigenvalues(values, tol: float = 1e-7) -> list[QuadraticEigenvalue] | None:
    """Recognize a full list of eigenvalues as integers or one quadratic family.

    All-or-nothing: either every value is matched (shared a and delta for the
    quadratic case, delta > 1 squarefree) or None is returned. Each
    reconstruction must land within 1e-9 * max(1, |value|) of its source.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("classify_eigenvalues requires at least one value")

    def close(quad: QuadraticEigenvalue, x: float) -> bool:
        return abs(quad.value - x) <= 1e-9 * max(1.0, abs(x))

    # Integer recognition first.
    as_int: list[QuadraticEigenvalue] = []
    for v in values:
        r = nearest_integer(v, tol)
        if r is None:
            as_int = []
            break
        quad = QuadraticEigenvalue(a=2 * r, b=0, delta=1)
        if not close(quad, v):
            as_int = []
            break
        as_int.append(quad)
    if as_int:
        return as_int

    # Quadratic family: candidate shared a from pair sums (i == j covers the
    # lone rational member a/2).
    candidates: set[int] = set()
    for i in range(len(values)):
        for j in range(i, len(values)):
            r = nearest_integer(values[i] + values[j], tol)
            if r is not None:
                candidates.add(r)
    for a in sorted(candidates, key=lambda c: (abs(c), c)):
        family: list[QuadraticEigenvalue] = []
        delta: int | None = None
        ok = True
        for v in values:
            x = 2.0 * v - a
            if abs(x) <= tol * max(1.0, abs(v)):
                family.append(None)  # placeholder: b = 0 member
                continue
            y = x * x
            ry = nearest_integer(y, tol * max(1.0, y))
            if ry is None or ry <= 0:
                ok = False
                break
            s, f = squarefree_part(ry)
            if s == 1:
                ok = False  # would be rational, and integer recognition failed
                break
            if delta is None:
                delta = s
            elif delta != s:
                ok = False
                break
            family.append(QuadraticEigenvalue(a=a, b=f if x > 0 else -f, delta=s))
        if not ok or delta is None:
            continue
        result = [
            QuadraticEigenvalue(a=a, b=0, delta=delta) if q is None else q
            for q in family
        ]
        if all(close(q, v) for q, v in zip(result, values)):
            return result
    return None


def reference_classify_differences(values):
    """classify_eigenvalues, retried after removing a global shift.

    Phase alignment and transfer patterns depend only on eigenvalue
    differences, so a support that is an integer or quadratic family up to
    a common real offset (loop weights produce these) classifies too.
    """
    quads = reference_classify_eigenvalues(values)
    if quads is not None:
        return quads
    base = min(values)
    return reference_classify_eigenvalues([v - base for v in values])


def reference_exact_min_period(values) -> tuple[Fraction, int] | None:
    """Smallest t with aligned phases, as (pi multiplier, root divisor).

    Rational supports give the answer over a common denominator lattice;
    otherwise a shared quadratic family is tried. None means the difference
    ratios were not recognized as rational.
    """
    vals = list(values)
    quads = reference_classify_differences(vals)
    if quads is not None:
        delta = quads[0].delta
        if delta > 1:
            bs = [q.b for q in quads]
            g = gcd_all([bs[0] - b for b in bs[1:]])
            return Fraction(4, g), delta
        ints = [q.as_integer() for q in quads]
        g = gcd_all([ints[0] - w for w in ints[1:]])
        return Fraction(2, g), 1
    fracs = [reconstruct_rational(v) for v in vals]
    if all(f is not None for f in fracs):
        diffs = [fracs[0] - f for f in fracs[1:]]
        if any(d.denominator > 10**4 for d in diffs):
            # rational eigenvalues of a matrix N/c live in (1/c)Z, so an
            # honest rational spectrum keeps its denominators near the
            # weight denominators; a large one is the signature of a
            # best-approximation convergent of an irrational value
            return None
        common = lcm_all([d.denominator for d in diffs])
        if common > 10**4:
            return None
        ints = [int(d * common) for d in diffs]
        return Fraction(2 * common, gcd_all(ints)), 1
    return None


def reference_evaluate_pattern(partition: SupportPartition) -> _PatternOutcome:
    """Transfer test on a sign partition: valuation pattern plus the time.

    Crossing differences must share one dyadic valuation, strictly below
    the valuation of every same-sign difference; integer spectra and shared
    quadratic families both reduce to integer coordinates for this.
    """
    if not partition.minus:
        return _PatternOutcome(
            False, None, None, None, "the sign partition has no flipping eigenvalues"
        )
    values = list(partition.plus) + list(partition.minus)
    quads = reference_classify_differences(values)
    if quads is None:
        return _PatternOutcome(
            False,
            None,
            None,
            None,
            "support eigenvalues are neither all integers nor a single quadratic family",
        )
    delta = quads[0].delta
    if delta == 1:
        coords = [q.a // 2 for q in quads]
        klass = "integer"
    else:
        bs = [q.b for q in quads]
        if len({b & 1 for b in bs}) > 1:
            return _PatternOutcome(
                False,
                "quadratic",
                delta,
                None,
                "quadratic coordinates of mixed parity leave non-integer half-differences",
            )
        coords = [(b - bs[0]) // 2 for b in bs]
        klass = "quadratic"
    n_plus = len(partition.plus)
    plus_c, minus_c = coords[:n_plus], coords[n_plus:]
    cross = {nu2(p - q) for p in plus_c for q in minus_c}
    if len(cross) != 1:
        return _PatternOutcome(
            False, klass, delta, None,
            "crossing differences take more than one dyadic valuation",
        )
    alpha = cross.pop()
    for i in range(n_plus):
        for j in range(i + 1, n_plus):
            if nu2(plus_c[i] - plus_c[j]) <= alpha:
                return _PatternOutcome(
                    False, klass, delta, None,
                    "a same-sign difference is not dyadically above the crossings",
                )
    g = gcd_all([plus_c[0] - c for c in coords if c != plus_c[0]])
    return _PatternOutcome(True, klass, delta, SymbolicTime(1, g, delta), None)


def outcome(fn, *args):
    """fn's return value, or the type of the exception it raises."""
    try:
        return "returns", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc)


def assert_same_classification(values, split: int = 0):
    """All three functions agree with their references on finite values.

    A support with a value that is not finite classifies as nothing, where
    the references read an infinite value as a b = 0 member of a quadratic
    family (and a NaN beside 1e308 as a pair sum past 64 bits).
    """
    values = list(values)
    partition = SupportPartition(values[:split], values[split:])
    if not all(math.isfinite(v) for v in values):
        assert outcome(classify_eigenvalues, values) == ("returns", None), values
        # the rational route still range-checks every finite value
        big = any(math.isfinite(v) and abs(v) > INT64_MAX for v in values)
        want = ("raises", IntegerOverflowError) if big else ("returns", None)
        assert outcome(transfer._exact_min_period, values) == want, values
        got = transfer._evaluate_pattern(partition)
        assert not got.ok and got.eigenvalue_class is None, values
        return
    assert outcome(classify_eigenvalues, values) == outcome(
        reference_classify_eigenvalues, values
    ), values
    want = outcome(reference_exact_min_period, values)
    if want == ("raises", ZeroDivisionError):
        # a zero period lattice, every value read as one, is now a NumericError
        want = ("raises", NumericError)
    assert outcome(transfer._exact_min_period, values) == want, values
    assert outcome(transfer._evaluate_pattern, partition) == outcome(
        reference_evaluate_pattern, partition
    ), (values, split)


# ---------------------------------------------------------------------------
# drawn supports
# ---------------------------------------------------------------------------

SQUAREFREE = [d for d in range(2, 200) if squarefree_part(d)[1] == 1]


@st.composite
def perturbed_families(draw):
    """(a + b_i sqrt(delta))/2, each moved by up to the gate 1e-9 * max(1, |v|).

    The search finds a only from a pair sum, so the b_i include a conjugate
    pair b, -b (or b = 0), as in a graph's spectrum.
    """
    a = draw(st.one_of(st.integers(-60, 60), st.integers(-10**7, 10**7)))
    delta = draw(st.sampled_from(SQUAREFREE))
    b = draw(st.integers(0, 40))
    rest = draw(st.lists(st.integers(-40, 40), max_size=5))
    bs = draw(st.permutations(list(dict.fromkeys([b, -b, *rest]))))
    out = []
    for b in bs:
        v = (a + b * math.sqrt(delta)) / 2.0
        out.append(v + draw(st.floats(-1.0, 1.0)) * 1e-9 * max(1.0, abs(v)))
    return out


integer_lists = st.lists(
    st.one_of(st.integers(-40, 40), st.integers(-2**40, 2**40)), min_size=1, max_size=8
).map(lambda ints: [float(i) for i in ints])


@st.composite
def near_integer_lists(draw):
    """Integers moved by up to 2e-7: some within nearest_integer's 1e-7 but not the gate."""
    ints = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=6))
    return [i + draw(st.sampled_from([0.0, 5e-10, 5e-8, -1e-7, 2e-7])) for i in ints]


@st.composite
def cosine_supports(draw):
    """Eigenvalues c + 2 cos(2 pi k / n) of a cycle, a subset of them."""
    n = draw(st.integers(3, 40))
    ks = draw(st.lists(st.integers(0, n // 2), min_size=1, max_size=8, unique=True))
    c = draw(st.sampled_from([0.0, 2.0, 3.0, -1.5]))
    return [c + 2.0 * math.cos(2.0 * math.pi * k / n) for k in ks]


EXTREMES = [
    2.0**62, -(2.0**62), 2.0**62 - 512, -(2.0**62 - 512), 2.0**62 + 1024,
    2.0**63, -(2.0**63), 2.0**63 - 1024, -(2.0**63 - 1024), float(INT64_MAX),
    1e308, -1e308, math.nan, math.inf, -math.inf,
    # spans beyond 2**30, where the search squares offsets past 64 bits
    2e9 + 0.5, -3e9, 2.0**40 + 0.25, 3e15,
]


@st.composite
def extreme_supports(draw):
    """Small values mixed with values near 2**62, near INT64_MAX, NaN and infinities."""
    small = st.one_of(st.integers(-6, 6).map(float), st.sampled_from([0.5, -1.5, math.sqrt(2)]))
    values = draw(st.lists(st.one_of(small, st.sampled_from(EXTREMES)), min_size=1, max_size=6))
    return draw(st.permutations(values))


supports = st.one_of(
    perturbed_families(), integer_lists, near_integer_lists(), cosine_supports(), extreme_supports()
)
offsets = st.one_of(st.just(0.0), st.integers(-9, 9).map(float), st.floats(-50.0, 50.0))


@settings(max_examples=400, deadline=None)
@given(supports, offsets, st.integers(0, 8))
def test_classification_matches_the_reference(values, offset, split):
    assert_same_classification([v + offset for v in values], min(split, len(values)))


@settings(max_examples=100, deadline=None)
@given(supports, st.floats(1e-12, 1e-3))
def test_classify_matches_the_reference_at_other_tolerances(values, tol):
    if not all(math.isfinite(v) for v in values):
        assert classify_eigenvalues(values, tol) is None
        return
    assert outcome(classify_eigenvalues, values, tol) == outcome(
        reference_classify_eigenvalues, values, tol
    )


def test_families_moved_to_the_edge_of_the_gate_are_kept():
    # members pushed apart by 0.999 of the gate, alternately up and down:
    # the family test must pass every family the search accepts
    accepted = 0
    for delta in (2, 3, 5, 6, 7, 10, 101):
        for a in (-7, 0, 3, 20001, -1234567):
            for bs in ([1, -1], [0, 2, -2, 4], [3, -3, 1, 5, -7], [6, -6, 2, -2, 4, -4]):
                for sign in (1.0, -1.0):
                    values = []
                    for i, b in enumerate(bs):
                        v = (a + b * math.sqrt(delta)) / 2.0
                        values.append(v + sign * (-1) ** i * 0.999e-9 * max(1.0, abs(v)))
                    want = reference_classify_eigenvalues(values)
                    assert classify_eigenvalues(values) == want, values
                    accepted += want is not None
    assert accepted > 100


def test_empty_and_invalid_inputs_raise_as_before():
    for tol in (0.0, -1e-7):
        assert outcome(classify_eigenvalues, [0.5, 1.5], tol) == ("raises", ValueError)
        assert outcome(reference_classify_eigenvalues, [0.5, 1.5], tol) == ("raises", ValueError)
    assert outcome(classify_eigenvalues, []) == ("raises", ValueError)
    assert outcome(transfer._exact_min_period, []) == outcome(reference_exact_min_period, [])
    # values near 2**62: the integer pass refuses 2r beyond 64 bits, and the
    # overflow of a pair sum is raised before the family test
    for values in ([2.0**62, 1.0], [0.5, 2.0**62 - 512], [0.5, 1e308]):
        assert_same_classification(values)
    # a NaN now makes the answer None before the search, which raised here
    for values in ([math.nan, 1e308], [1e308, math.nan]):
        assert_same_classification(values)
    assert outcome(reference_classify_eigenvalues, [1e308, math.nan]) == (
        "raises",
        IntegerOverflowError,
    )


def test_values_that_are_not_finite_classify_as_nothing():
    root = math.sqrt(2.0)
    for bad in (math.inf, -math.inf, math.nan):
        for values in ([bad, root, -root], [root, -root, bad], [bad], [bad, 1.0, 2.0]):
            assert classify_eigenvalues(values) is None, values
    # the former search read inf as the member b = 0 of the family a = 0, delta = 2
    assert reference_classify_eigenvalues([math.inf, root, -root]) is not None


# ---------------------------------------------------------------------------
# every support and pair partition of the small atlas graphs
# ---------------------------------------------------------------------------


def test_atlas_supports_and_partitions_match_the_reference():
    compared = 0
    for g in networkx.graph_atlas_g():
        if not 1 <= g.number_of_nodes() <= 6:
            continue
        graph = WeightedGraph(g.number_of_nodes(), [(a, b, 1.0) for a, b in g.edges()])
        for matrix in ("laplacian", "adjacency"):
            decomp = spectrum(graph, matrix)
            for u in range(graph.order):
                support = eigenvalue_support(decomp, u)
                assert_same_classification(_merge_close(support))
                compared += 1
            for u, v in itertools.combinations(range(graph.order), 2):
                partition = transfer.pair_partition(graph, matrix, u, v)
                if partition is not None:
                    assert outcome(transfer._evaluate_pattern, partition) == outcome(
                        reference_evaluate_pattern, partition
                    ), (g.edges(), matrix, u, v)
                    compared += 1
    assert compared > 2000


# ---------------------------------------------------------------------------
# the work the new route saves
# ---------------------------------------------------------------------------


def test_an_irrational_support_makes_no_pair_sum_pass(monkeypatch):
    support = join_support(family("C", 16), family("O", 2), 0)
    assert len(support) == 10
    calls, read = [], []
    real = arith.nearest_integer
    real_pass = arith._integer_values

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    class Counted(list):
        """A list whose iteration records each value the integer pass reads."""

        def __iter__(self):
            for v in list.__iter__(self):
                read.append(v)
                yield v

    monkeypatch.setattr(arith, "nearest_integer", counting)
    monkeypatch.setitem(globals(), "nearest_integer", counting)
    monkeypatch.setattr(arith, "_integer_values", lambda values, *args: real_pass(Counted(values), *args))
    assert classify_eigenvalues(support) is None
    # the integer pass stops at the first non-integer, the third value, and
    # reads each value itself, so no pair sum reaches nearest_integer
    assert len(read) == 3
    assert calls == []
    # the search adds one call per pair sum (55) and per tried member
    assert reference_classify_eigenvalues(support) is None
    assert len(calls) == 68


def test_threshold_search_builds_no_quadratic_objects(monkeypatch):
    built = []
    real = QuadraticEigenvalue.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(QuadraticEigenvalue, "__post_init__", counting)
    hits = threshold_transfer_search(4, 6)
    assert [h["sizes"] for h in hits] == [[2, 2], [2, 6], [2, 2, 4, 4], [2, 6, 4, 4]]
    assert built == []


def test_integer_objects_skip_factoring(monkeypatch):
    factored = []
    real = arith.squarefree_part
    monkeypatch.setattr(arith, "squarefree_part", lambda d: factored.append(d) or real(d))
    quads = classify_eigenvalues([4.0, 2.0, 0.0])
    assert [q.as_integer() for q in quads] == [4, 2, 0]
    assert factored == []
    QuadraticEigenvalue(0, 2, 2)
    assert factored == [2]


def test_quadratic_search_factors_each_value_once(monkeypatch):
    factored = []
    real = arith.squarefree_part
    monkeypatch.setattr(arith, "squarefree_part", lambda d: factored.append(d) or real(d))
    r6 = math.sqrt(6)
    assert transfer._classify_differences([-1 + r6, -1 - r6, -1.0]) == (6, [2, -2, 0])
    # the two members with b != 0, each factored once as b**2 * delta
    assert factored == [24, 24]
