"""Part facts read once: cached regularity, the carried join support, the integer ratio table.

graphs.is_regular is kept on the graph per tol. join_period_ratio carries
the join support from the part support it already holds. The Laplacian
branch of the period-ratio table reads ints on one common denominator;
reference_ratio_formula below is the former table on Fraction values, kept
verbatim apart from its name, and every answer must match it exactly.
"""

import json
import math
import random
from fractions import Fraction

import pytest

import qwjoin.transfer as transfer
from qwjoin import (
    WeightedGraph,
    disjoint_union,
    family,
    graph_periodic,
    is_connected,
    is_regular,
    join,
    join_params,
    join_period_ratio,
    join_pst,
    minimum_period,
)
from qwjoin.arith import lcm_all, reconstruct_rational, squarefree_part
from qwjoin.cli import main
from qwjoin.errors import InconsistencyError, NumericError
from qwjoin.spectral import _close, eigenvalue_support, spectrum


def reference_ratio_formula(
    others: list[float] | list[Fraction],
    support_quadratic: bool,
    connected: bool,
    k: float | Fraction,
    lam_plus: float | Fraction,
    lam_minus: float | Fraction,
    discriminant: Fraction | int,
) -> tuple[str, Fraction, int]:
    """Closed-form period ratio for an adjacency-type join, by support shape.

    others is the part vertex's support without k; discriminant is
    D = (k - ell)^2 + 4mn, exactly. Float values have their ratios
    reconstructed as rationals; Fraction values (the negated Laplacian
    data, see the module docstring) keep the arithmetic exact.
    """
    exact = isinstance(others[0], Fraction)
    root_d = lam_plus - lam_minus if exact else math.sqrt(float(discriminant))

    def as_fraction(x) -> Fraction | None:
        return x if isinstance(x, Fraction) else reconstruct_rational(x)

    def rat(x) -> Fraction:
        fr = as_fraction(x)
        if fr is None:
            raise InconsistencyError(f"expected a rational ratio, got {x!r}")
        return fr

    def over_root(a, b) -> tuple[Fraction, int]:
        """|a - b| / sqrt(D) as a rational over the root of a squarefree divisor.

        The magnitude matters in the pair-special case: the other eigenvalue
        can lie below lam_minus (in the negated Laplacian data, a weighted
        part eigenvalue above m).
        """
        if support_quadratic or exact:
            return rat(abs(a - b) / root_d), 1
        fa, fb = as_fraction(a), as_fraction(b)
        if fa is None or fb is None:
            raise InconsistencyError("missing an exact value for a rational support")
        s, g = squarefree_part(discriminant.numerator * discriminant.denominator)
        return abs(fa - fb) * discriminant.denominator / g, s

    def same(a, b) -> bool:
        return a == b if exact else _close(a, b)

    special = any(same(v, lam_minus) for v in others)
    ordered = sorted(others, reverse=True)
    r = len(ordered)
    if connected:
        if r == 1:
            lam = ordered[0]
            if special:
                return ("connected-single-special", *over_root(k, lam))
            q = rat((lam_plus - lam) / root_d).denominator
            fr0, dv = over_root(k, lam)
            return "connected-single", q * fr0, dv
        if special and r == 2:
            lam = next(v for v in ordered if not same(v, lam_minus))
            lam_m = next(v for v in ordered if same(v, lam_minus))
            q = rat((lam_plus - lam) / root_d).denominator
            qp = rat((lam - k) / (lam - lam_m)).denominator
            fr0, dv = over_root(lam, lam_m)
            return "connected-pair-special", fr0 * q / qp, dv
        if not special:
            lam1, lam2 = ordered[0], ordered[1]
            base = lam1 - lam2
            qs = [rat((lam1 - l) / base).denominator for l in ordered[2:]]
            q_k = rat((lam1 - k) / base).denominator
            q_lm = rat((lam1 - lam_minus) / base).denominator
            q_lp = rat((lam1 - lam_plus) / base).denominator
            r1 = lcm_all(qs) if qs else 1
            r2 = lcm_all([r1, q_lm])
            num = q_lm * q_lp * math.gcd(r1, q_k)
            den = q_k * math.gcd(r1, q_lm) * math.gcd(r2, q_lp)
            return "connected-general", Fraction(num, den), 1
        rest = sorted((v for v in others if not same(v, lam_minus)), reverse=True)
        ordered2 = rest + [next(v for v in ordered if same(v, lam_minus))]
        lam1, lam2 = ordered2[0], ordered2[1]
        base = lam1 - lam2
        qs = [rat((lam1 - l) / base).denominator for l in ordered2[2:]]
        q_last = qs[-1]
        q_k = rat((lam1 - k) / base).denominator
        q_lp = rat((lam1 - lam_plus) / base).denominator
        r1 = lcm_all(qs)
        num = q_last * q_lp * math.gcd(r1, q_k)
        den = q_k * math.gcd(r1, q_last) * math.gcd(r1, q_lp)
        return "connected-special-among-many", Fraction(num, den), 1
    if r == 1:
        lam = ordered[0]
        base = k - lam
        q3 = rat((k - lam_plus) / base).denominator
        q4 = rat((k - lam_minus) / base).denominator
        case = "disconnected-single-special" if special else "disconnected-single"
        return case, Fraction(lcm_all([q3, q4])), 1
    if special and r == 2:
        lam = next(v for v in ordered if not same(v, lam_minus))
        base = k - lam
        q2 = rat((k - lam_minus) / base).denominator
        q5 = rat((k - lam_plus) / base).denominator
        return "disconnected-pair-special", Fraction(lcm_all([q2, q5]), q2), 1
    if not special:
        lam1, lam2 = ordered[0], ordered[1]
        base = lam1 - lam2
        qs = [rat((lam1 - l) / base).denominator for l in ordered[2:]]
        qs.append(rat((lam1 - k) / base).denominator)
        q = lcm_all(qs)
        q_lm = rat((lam1 - lam_minus) / base).denominator
        q_lp = rat((lam1 - lam_plus) / base).denominator
        return "disconnected-general", Fraction(lcm_all([q, q_lm, q_lp]), q), 1
    lam1 = ordered[0]
    base = lam1 - k
    qs = [rat((lam1 - l) / base).denominator for l in ordered[1:]]
    q = lcm_all(qs)
    q_lp = rat((lam1 - lam_plus) / base).denominator
    return "disconnected-special-among-many", Fraction(lcm_all(qs + [q_lp]), q), 1


CASES = {
    f"{side}-{shape}"
    for side in ("connected", "disconnected")
    for shape in ("single", "single-special", "pair-special", "general", "special-among-many")
}


def outcome(fn, *args):
    """fn's return value, or the type of the exception it raises."""
    try:
        return "returns", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc)


def integer_table(negated: list[Fraction], connected: bool, m: int, n: int):
    """The table on the ints of one common denominator, as join_period_ratio calls it."""
    scale = math.lcm(*(f.denominator for f in negated))
    ints = [int(f * scale) for f in negated]
    assert all(i == f * scale for i, f in zip(ints, negated))
    return transfer._ratio_formula(
        ints, False, connected, 0, n * scale, -m * scale, ((m + n) * scale) ** 2
    )


def test_integer_ratio_table_matches_the_fraction_table():
    rng = random.Random(2011)
    seen = set()
    for _ in range(3000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        special = rng.random() < 0.5
        values = {Fraction(-m)} if special else set()
        for _ in range(rng.randint(0 if special else 1, 4)):
            den = rng.choice((1, 2, 3, 7))
            v = Fraction(-rng.randint(1, 12 * den), den)
            if v != -m:
                values.add(v)
        negated = rng.sample(sorted(values), len(values))
        connected = rng.random() < 0.5
        want = outcome(
            reference_ratio_formula, negated, False, connected, 0, n, -m, (m + n) ** 2
        )
        got = outcome(integer_table, negated, connected, m, n)
        assert got == want, (negated, connected, m, n)
        if got[0] == "returns":
            case, ratio, divisor = got[1]
            assert type(ratio) is Fraction and type(divisor) is int
            seen.add(case)
    assert seen == CASES


def _weighted(graph: WeightedGraph, w: float) -> WeightedGraph:
    return WeightedGraph(graph.order, [(a, b, w * c) for (a, b), c in graph.edges.items()])


WEIGHTED_PARTS = [
    join(_weighted(family("K", 2), 1 / 3), family("O", 1)),
    join(disjoint_union(_weighted(family("K", 2), 1 / 2), _weighted(family("K", 2), 1 / 7)),
         family("O", 1)),
    join(disjoint_union(_weighted(family("K", 3), 1 / 3), _weighted(family("K", 2), 1 / 2)),
         family("O", 2)),
    disjoint_union(join(_weighted(family("C", 4), 1 / 7), family("O", 1)), family("O", 1)),
    disjoint_union(_weighted(family("K", 2), 2 / 3), family("O", 2)),
]


def test_weighted_parts_read_the_ratio_on_one_common_denominator():
    """Laplacian supports with mixed denominators, through join_period_ratio."""
    mixed = 0
    for part in WEIGHTED_PARTS:
        for u in range(part.order):
            support = eigenvalue_support(spectrum(part, "laplacian"), u)
            fracs = [reconstruct_rational(v) for v in support if not _close(v, 0.0)]
            if not fracs:
                continue  # a one-point support has no period ratio
            mixed += len({f.denominator for f in fracs}) > 1
            connected = is_connected(part)
            for y in (family("O", 1), family("O", 3), family("K", 3)):
                m, n = part.order, y.order
                want = reference_ratio_formula(
                    [-f for f in fracs], False, connected, 0, n, -m, (m + n) ** 2
                )
                got = join_period_ratio(part, y, u)
                assert (got.case, got.ratio, got.sqrt_divisor) == want, (part, u, n)
    assert mixed >= 4


def _counting_products(monkeypatch) -> list:
    calls = []
    product = WeightedGraph._product

    def counted(self, x):
        calls.append(self)
        return product(self, x)

    monkeypatch.setattr(WeightedGraph, "_product", counted)
    return calls


def test_is_regular_is_computed_once_per_graph_and_tol(monkeypatch):
    calls = _counting_products(monkeypatch)
    x, y = family("Q", 4), family("K", 4)
    assert join_params(x, y, "adjacency").k == 4.0
    assert len(calls) == 2
    params = join_params(x, y, "adjacency")
    assert (params.k, params.ell) == (4.0, 3.0)
    assert len(calls) == 2  # the second reading computes nothing
    assert is_regular(x) == 4.0 and len(calls) == 2
    assert is_regular(x, 1e-3) == 4.0 and len(calls) == 3  # another tol, its own entry
    assert is_regular(x, 1e-3) == 4.0 and len(calls) == 3
    join_pst(x, y, 3, 12, matrix="adjacency")
    assert len(calls) == 3


@pytest.mark.parametrize("loose_first", [False, True])
def test_is_regular_keeps_each_tol_apart(loose_first):
    """A 4-cycle with one weight 1e-6 heavy is regular at tol 1e-3 only."""
    graph = WeightedGraph(4, [(0, 1, 1.0 + 1e-6), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    reads = [(1e-3, True), (1e-12, False)]
    for tol, regular in reads[::-1] if loose_first else reads:
        assert (is_regular(graph, tol) is not None) == regular, tol
    assert is_regular(graph) is None


@pytest.mark.parametrize(
    "x, y, u, matrix",
    [
        (family("CP", 16), family("O", 4), 3, "laplacian"),
        (family("K", 16), family("K", 16), 5, "laplacian"),
        (family("Q", 3), family("Q", 3), 2, "adjacency"),
        (family("C", 4), family("C", 4), 1, "adjacency"),
    ],
)
def test_join_period_ratio_carries_the_support_in_hand(monkeypatch, x, y, u, matrix):
    want = join_period_ratio(x, y, u, matrix=matrix)

    def no_second_read(*args, **kwargs):
        raise AssertionError("join_support read again")

    monkeypatch.setattr(transfer, "join_support", no_second_read)
    assert join_period_ratio(x, y, u, matrix=matrix) == want
    assert join_period_ratio(y, x, y.order + u, matrix=matrix) == want


def test_a_support_read_as_one_value_raises_a_numeric_error():
    with pytest.raises(NumericError, match="read as one"):
        minimum_period([1 + 9e-8, 1 - 9e-8])
    with pytest.raises(NumericError, match="read as one"):
        transfer._exact_min_period([1 / 3 + 9e-8, 1 / 3 - 9e-8])  # the rational route


NEAR_TIE = {"order": 2, "edges": [[0, 1, 9e-08]], "loops": [[0, 1.0], [1, 1.0]]}


def test_eigenvalues_reading_as_one_integer_are_not_periodic_outright():
    graph = WeightedGraph(2, [(0, 1, 9e-8)], [(0, 1.0), (1, 1.0)])
    with pytest.raises(NumericError):
        graph_periodic(graph, "adjacency")


def test_cli_refuses_a_support_read_as_one_value(tmp_path, capsys):
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps(NEAR_TIE))
    assert main(["analyze", "--graph", str(path), "--matrix", "adjacency"]) == 3
    err = capsys.readouterr().err
    assert "internal cross-check failed" in err and "Traceback" not in err
