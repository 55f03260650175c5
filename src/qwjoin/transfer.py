"""Strong cospectrality, periodicity, and perfect state transfer.

Everything join-related here runs on closed forms derived from the parts:
supports, sign partitions, transfer times, and period ratios never require
the joined graph to be diagonalized. Each closed-form verdict is still
checked against an independent computation (an exact eigenvalue lattice, a
generic valuation pattern, or a numerically computed walk), and any
disagreement raises InconsistencyError rather than being smoothed over.

The Laplacian and adjacency joins are one statement on the part side.
Negated and shifted by n, L(X v Y) is the adjacency-type join of -L(X),
with distinguished eigenvalue k = 0, and -L(Y) + (n - m)I, of row sum
ell = n - m; its fresh eigenvalues are lam_plus = n and lam_minus = -m,
and sqrt(D) = m + n. spectral.JoinParams records that reading of each
join, and spectral.join_side reads each join vertex pair on its side. So
the adjacency rules applied to the negated Laplacian part eigenvalues are
the Laplacian rules, and the period-ratio table (_ratio_formula) is
written once for both matrices. The Laplacian data
enter it as ints on one common denominator; every ratio the table reads is
one of differences, so the scale changes none of them.

One transfer tree (_transfer_tree) serves Laplacian joins and regular
adjacency joins, self-joins among them: on a K-regular graph
exp(itA) = exp(itK) exp(-itL) with L = KI - A (Godsil, "State transfer on
graphs", 2012), so the adjacency tree is the Laplacian one run on k - theta.

The walk check (_confirm_transfer) never builds the join either: it works
on the JoinTree's equitable quotient at u, of order (cells of the part) +
depth, read from the orders and the part's coarsest equitable partition
with u alone in its cell, and exponentiates that quotient whole with a
series, so it shares no eigensolver with the certificate it checks and
reads none of the parts' matrices. Every positive verdict gets this
check; nothing in this module builds or diagonalizes a joined graph.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .arith import (
    _TWO62,
    _as_int_list,
    _checked_float,
    _classify_coordinates,
    _rational_pair,
    gcd_all,
    lcm_all,
    nearest_integer,
    nu2,
    reconstruct_rational,
    squarefree_part,
)
from .errors import InconsistencyError, NumericError, PreconditionError
from .graphs import (
    Connective,
    IteratedJoinSpec,
    JoinTree,
    WeightedGraph,
    disjoint_union,
    family,
    is_connected,
    is_regular,
    is_simple,
    iterated_tree,
    iterated_vertex,
)
from .spectral import (
    JoinParams,
    SpectralDecomposition,
    SupportPartition,
    _close,
    _contains,
    _merge_close,
    carry_join,
    carry_stage,
    carry_support,
    carry_through_plan,
    eigenvalue_support,
    join_params,
    join_side,
    join_support,
    laplacian_plan_part,
    spectrum,
    strong_cospectral,
    vertex_supports,
)
from .walk import krylov_entry, transition_entries

# The two apexes of a double cone, shared so that their spectra are
# computed once per process.
APEXES = family("O", 2)

# A certified transfer, or a computed period, must revive the walk entry to
# at least this magnitude, or the check raises InconsistencyError.
CONFIRMATION_GATE = 1 - 1e-6


def _confirmed(entry: complex, what: str) -> float:
    """The magnitude of a walk entry at a certified time: the one place it is judged.

    Below CONFIRMATION_GATE it raises InconsistencyError, naming what
    (the certified time or transfer) fell short.
    """
    mag = float(abs(entry))
    if mag < CONFIRMATION_GATE:
        raise InconsistencyError(f"{what} only reaches magnitude {mag}")
    return mag


def _nu2_inf(value: int):
    """Dyadic valuation with the zero convention of +infinity."""
    return math.inf if value == 0 else nu2(value)


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicTime:
    """A time of the form pi * numerator / (denominator * sqrt(divisor))."""

    pi_numerator: int
    pi_denominator: int
    sqrt_divisor: int = 1

    def __post_init__(self) -> None:
        if self.pi_numerator <= 0 or self.pi_denominator <= 0:
            raise ValueError("symbolic times are positive")
        if math.gcd(self.pi_numerator, self.pi_denominator) != 1:
            raise ValueError("symbolic times are kept in lowest terms")
        if self.sqrt_divisor < 1 or squarefree_part(self.sqrt_divisor)[1] != 1:
            raise ValueError("the root divisor must be squarefree")

    @property
    def value(self) -> float:
        return (
            math.pi
            * self.pi_numerator
            / (self.pi_denominator * math.sqrt(self.sqrt_divisor))
        )


def _sym_time(pi_mult: Fraction, root: int) -> SymbolicTime:
    return SymbolicTime(pi_mult.numerator, pi_mult.denominator, root)


@dataclass
class PeriodCertificate:
    periodic: bool
    period: float | None
    symbolic: SymbolicTime | None
    support: list[float]
    confirmation: float | None = None
    minimal_on_grid: bool | None = None
    reason: str | None = None


@dataclass
class PSTCertificate:
    pst: bool
    u: int
    v: int
    matrix: str | None = None
    strong_cospectral: bool = False
    partition: SupportPartition | None = None
    eigenvalue_class: str | None = None
    delta: int | None = None
    time: SymbolicTime | None = None
    confirmation: float | None = None
    reason: str | None = None
    details: dict = field(default_factory=dict)


@dataclass
class JoinPeriodRatio:
    """Minimum period of a join vertex relative to the part vertex."""

    ratio: Fraction
    sqrt_divisor: int
    case: str
    period_part: SymbolicTime
    period_join: SymbolicTime

    @property
    def value(self) -> float:
        return float(self.ratio) / math.sqrt(self.sqrt_divisor)


@dataclass
class InducedTransferReport:
    induced: bool
    mechanism: str
    join_certificate: PSTCertificate
    part_certificate: PSTCertificate
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# strong cospectrality
# ---------------------------------------------------------------------------


def _scaled(w: float) -> int:
    """w * 2**1074, an integer for every finite float."""
    num, den = w.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _diagonal_moments(graph: WeightedGraph, laplacian: bool, u: int) -> tuple[int, int]:
    """M_uu * 2**1074 and (M^2)_uu * 2**2148, exact integer sums of u's edge and loop weights.

    (M^2)_uu is the sum over w of M_uw^2: the squared edge weights at u
    plus the square of the diagonal. Each float is a multiple of 2**-1074,
    so the sums are exact, whatever the order of the edges.
    """
    incident = [_scaled(w) for w in graph.weights[(graph.rows == u) | (graph.cols == u)].tolist()]
    loops = [_scaled(w) for w in graph.loop_weights[graph.loop_at == u].tolist()]
    diagonal = sum(incident if laplacian else loops)
    return diagonal, diagonal * diagonal + sum(w * w for w in incident)


def pair_partition(graph: WeightedGraph, matrix: str, u: int, v: int) -> SupportPartition | None:
    """strong_cospectral on the graph's spectrum, computed once per pair.

    Cospectral vertices have equal (M^k)_uu for every k. So before the
    spectrum is read, M_uu and (M^2)_uu are compared with those at v, as
    exact sums of the weights, whatever the order of the edges; a pair
    that differs in either is not cospectral, and gets None however close
    its eigenbasis rows are. The result is cached on the graph next to its
    spectrum; each caller gets its own copy, so mutating one cannot change
    a later analysis.
    """

    def partition():
        laplacian = graph._is_laplacian(matrix)  # raises as spectrum would
        if 0 <= min(u, v) and max(u, v) < graph.order and (
                _diagonal_moments(graph, laplacian, u) != _diagonal_moments(graph, laplacian, v)):
            return None
        return strong_cospectral(spectrum(graph, matrix), u, v)

    part = graph.cached(("pair_partition", matrix, u, v), partition)
    return None if part is None else SupportPartition(list(part.plus), list(part.minus))


def _own_partition(
    part: WeightedGraph, matrix: str, u: int, v: int
) -> tuple[SupportPartition | None, bool]:
    """(partition, isolated_pair) of a part's pair before any join carries it.

    An edgeless two-vertex part (isolated_pair) has no partition of its
    own; its first join supplies one.
    """
    isolated_pair = part.order == 2 and not len(part.weights)
    return (None if isolated_pair else pair_partition(part, matrix, u, v)), isolated_pair


def join_strong_cospectral(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    matrix: str = "laplacian",
) -> SupportPartition | None:
    """Sign partition of a join pair, computed from one part's spectrum.

    u and v index the joined graph as spectral.join_side reads it. Cross
    pairs fail except when both parts are single vertices (a weight-one
    edge, whose endpoints are strongly cospectral whenever the loop weights
    agree). A two-vertex edgeless part is the one case where a pair that is
    not strongly cospectral within its part becomes so in the join.
    """
    if u == v:
        raise ValueError("strong cospectrality concerns two distinct vertices")
    params, part, u, v, cross = join_side(x, y, u, v, matrix)
    if cross:
        if params.m == 1 and params.n == 1:
            if matrix == "laplacian":
                return SupportPartition([0.0], [2.0])
            a = float(x.loop_weights.sum())  # a single vertex's loop, or 0.0
            b = float(y.loop_weights.sum())
            if _close(a, b):
                return SupportPartition([a + 1.0], [a - 1.0])
        return None
    own, isolated_pair = _own_partition(part, matrix, u, v)
    return carry_join(own, params, is_connected(part), isolated_pair)


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------


def _classify_differences(values) -> tuple[int, list[int]] | None:
    """classify_eigenvalues' (delta, coordinates), retried after removing a global shift.

    Phase alignment and transfer patterns depend only on eigenvalue
    differences, so a support that is an integer or quadratic family up to
    a common real offset (loop weights produce these) classifies too.
    """
    coords = _classify_coordinates(values)
    if coords is None:
        base = min(values)
        coords = _classify_coordinates([v - base for v in values])
    return None if coords is None else coords[1:]


def _exact_min_period(values) -> tuple[Fraction, int] | None:
    """Smallest t with aligned phases, as (pi multiplier, root divisor).

    An integer or quadratic family of the differences gives it first.
    Otherwise each value is read as a rational, an int pair, and the
    differences to the first give it over their common denominator lattice;
    only the result is a Fraction. None means the difference ratios were not
    recognized as rational. A zero lattice gcd means distinct values were
    read as one, and raises NumericError.
    """
    vals = list(values)
    family = _classify_differences(vals)
    if family is not None:
        delta, coords = family
        g = gcd_all([coords[0] - c for c in coords[1:]])
        mult = 4 if delta > 1 else 2
    else:
        # the route below stops at the first value that fails; every value still
        # gets reconstruct_rational's 64-bit range check, as when all were built.
        # Below 2**62 in magnitude (NaN fails the test) none can fail it
        if not max(map(abs, vals)) < _TWO62:
            for v in vals:
                _checked_float(v, 1.0)
        first = _rational_pair(vals[0])
        if first is None:
            return None
        (p0, q0), diffs = first, []
        for v in vals[1:]:
            f = _rational_pair(v)
            if f is None:
                return None
            # first - f in lowest terms. Rational eigenvalues of a matrix N/c live
            # in (1/c)Z, so an honest rational spectrum keeps its denominators
            # near the weight denominators; a large one is the signature of a
            # best-approximation convergent of an irrational value
            num, den = p0 * f[1] - f[0] * q0, q0 * f[1]
            g = math.gcd(num, den)
            if den // g > 10**4:
                return None
            diffs.append((num // g, den // g))
        common = lcm_all([den for _, den in diffs])
        if common > 10**4:
            return None
        g = gcd_all([num * (common // den) for num, den in diffs])
        mult, delta = 2 * common, 1
    if g == 0:
        raise NumericError(f"distinct support values {vals[0]!r} and {vals[1]!r} read as one")
    return Fraction(mult, g), delta


def is_periodic(decomp: SpectralDecomposition, u: int) -> bool:
    return minimum_period(eigenvalue_support(decomp, u)).periodic


def _read_period(support) -> PeriodCertificate:
    """The minimum period a support gives on its own, not yet checked on any walk."""
    vals = _merge_close(support)
    if not vals:
        raise ValueError("an empty support has no period")
    if len(vals) == 1:
        reason = "a one-point support keeps the vertex state fixed up to phase"
        return PeriodCertificate(True, 0.0, None, vals, reason=reason)
    exact = _exact_min_period(vals)
    if exact is None:
        reason = "eigenvalue difference ratios are not recognized as rational"
        return PeriodCertificate(False, None, None, vals, reason=reason)
    symbolic = _sym_time(*exact)
    return PeriodCertificate(True, symbolic.value, symbolic, vals)


def _walk_periods(
    decomp: SpectralDecomposition, vertices, supports, weights: np.ndarray
) -> list[PeriodCertificate]:
    """Period certificates of the given vertices, each confirmed on the walk.

    weights[j] is the row entry_vector(u, u) of vertices[j] = u. Each
    distinct support is read once. Each period is confirmed at each of its
    vertices, and its minimality is checked on the central half of a
    1024-point grid, for all of its vertices in one product: any true
    sub-period rho/j has a revival multiple within rho/(2j) <= rho/4 of the
    midpoint, while continuity forces |U| -> 1 at both ends for every period.
    """
    readings: dict[tuple, PeriodCertificate] = {}
    rows_of: dict[float, list[int]] = {}
    certs = []
    for j, (u, support) in enumerate(zip(vertices, supports)):
        key = tuple(support)
        if key not in readings:
            readings[key] = _read_period(support)
        reading, checked = readings[key], {}
        if reading.symbolic is not None:
            rho = reading.period
            mag = _confirmed(transition_entries(decomp, u, u, [rho])[0], f"period {rho}")
            checked = {"confirmation": mag, "minimal_on_grid": True}
            rows_of.setdefault(rho, []).append(j)
        certs.append(replace(reading, support=list(reading.support), **checked))
    for rho, rows in rows_of.items():
        grid = rho * np.arange(256, 769) / 1024.0
        phases = np.exp(1j * np.outer(grid, decomp.eigenvalues))
        if float(np.abs(phases @ weights[rows].T).max()) >= 1 - 1e-4:
            raise InconsistencyError(
                "a grid time below the computed minimum period already revives the state"
            )
    return certs


def vertex_periods(decomp: SpectralDecomposition) -> list[tuple[list[float], PeriodCertificate]]:
    """Each vertex's support and walk-confirmed minimum period, in one pass.

    Vertex u gets (eigenvalue_support(decomp, u), minimum_period(that
    support, decomp, u)), with the supports read in one NumPy pass.
    """
    supports, weights = vertex_supports(decomp)
    return list(zip(supports, _walk_periods(decomp, range(decomp.size), supports, weights)))


def minimum_period(
    support,
    decomp: SpectralDecomposition | None = None,
    u: int | None = None,
) -> PeriodCertificate:
    """Minimum period certificate for a vertex support.

    With a decomposition and vertex supplied, the period is confirmed on the
    actual walk and its minimality is checked on a 1024-point grid; a
    failure of either check is an InconsistencyError. Without them, a phase
    alignment proxy guards against bogus rational reconstructions.
    """
    if decomp is not None and u is not None:
        return _walk_periods(decomp, [u], [support], decomp.entry_vector(u, u)[None])[0]
    cert = _read_period(support)
    if cert.symbolic is None:
        return cert
    phases = np.exp(1j * cert.period * np.asarray(cert.support))
    proxy = float(abs(np.mean(phases)))
    if proxy < CONFIRMATION_GATE:
        reason = "the reconstructed period fails the phase alignment check"
        return PeriodCertificate(False, None, None, cert.support, confirmation=proxy, reason=reason)
    return replace(cert, confirmation=proxy)


def join_periodic(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    matrix: str = "laplacian",
) -> PeriodCertificate:
    """Periodicity of join vertex u decided from its part's spectrum."""
    return minimum_period(join_support(x, y, u, matrix=matrix))


def graph_periodic(graph: WeightedGraph, matrix: str = "laplacian") -> bool:
    """Whether every vertex of the graph is periodic.

    A spectrum whose distinct eigenvalues read as distinct integers is
    periodic outright; otherwise each vertex is tested.
    """
    decomp = spectrum(graph, matrix)
    ints = _as_int_list(decomp.eigenvalues)
    if ints is not None and len(set(ints)) == len(ints):
        return True
    return all(is_periodic(decomp, u) for u in range(decomp.size))


# ---------------------------------------------------------------------------
# join period ratios
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction | None:
    return x if isinstance(x, Fraction) else reconstruct_rational(x)


def _rat(x) -> Fraction:
    fr = _as_fraction(x)
    if fr is None:
        raise InconsistencyError(f"expected a rational ratio, got {x!r}")
    return fr


def _int_denominator(a: int, b: int) -> int:
    """The denominator of a / b in lowest terms."""
    if b == 0:
        raise ZeroDivisionError(f"Fraction({a}, 0)")
    return abs(b) // math.gcd(a, b)


def _float_denominator(a: float, b: float) -> int:
    """The denominator of a / b read as a rational."""
    return _rat(a / b).denominator


def _over_root(a, b, root_d, support_quadratic: bool, discriminant) -> tuple[Fraction, int]:
    """|a - b| / sqrt(D) as a rational over the root of a squarefree divisor.

    root_d is sqrt(D): an int for int data, else a float. The magnitude
    matters in the pair-special case: the other eigenvalue can lie below
    lam_minus (in the negated Laplacian data, a weighted part eigenvalue
    above m).
    """
    if isinstance(root_d, int):
        return Fraction(abs(a - b), root_d), 1
    if support_quadratic:
        return _rat(abs(a - b) / root_d), 1
    fa, fb = _as_fraction(a), _as_fraction(b)
    if fa is None or fb is None:
        raise InconsistencyError("missing an exact value for a rational support")
    s, g = squarefree_part(discriminant.numerator * discriminant.denominator)
    return abs(fa - fb) * discriminant.denominator / g, s


def _ratio_formula(
    others: list[float] | list[int],
    support_quadratic: bool,
    connected: bool,
    k: float | Fraction | int,
    lam_plus: float | int,
    lam_minus: float | int,
    discriminant: Fraction | int,
) -> tuple[str, Fraction, int]:
    """Closed-form period ratio for an adjacency-type join, by support shape.

    others is the part vertex's support without k; discriminant is
    D = (k - ell)^2 + 4mn, exactly. Float values have their ratios
    reconstructed as rationals. Int values (the negated Laplacian data on
    one common denominator, see the module docstring) keep the arithmetic
    exact: every ratio read is one of differences, so the scale cancels.
    """
    if isinstance(others[0], int):
        denom, same, root_d = _int_denominator, operator.eq, lam_plus - lam_minus
    else:
        denom, same, root_d = _float_denominator, _close, math.sqrt(float(discriminant))

    special = any(same(v, lam_minus) for v in others)
    ordered = sorted(others, reverse=True)
    r = len(ordered)
    if connected:
        if r == 1:
            lam = ordered[0]
            if special:
                return ("connected-single-special",
                        *_over_root(k, lam, root_d, support_quadratic, discriminant))
            q = denom(lam_plus - lam, root_d)
            fr0, dv = _over_root(k, lam, root_d, support_quadratic, discriminant)
            return "connected-single", q * fr0, dv
        if special and r == 2:
            lam = next(v for v in ordered if not same(v, lam_minus))
            lam_m = next(v for v in ordered if same(v, lam_minus))
            q = denom(lam_plus - lam, root_d)
            qp = denom(lam - k, lam - lam_m)
            fr0, dv = _over_root(lam, lam_m, root_d, support_quadratic, discriminant)
            return "connected-pair-special", fr0 * q / qp, dv
        if not special:
            lam1, lam2 = ordered[0], ordered[1]
            base = lam1 - lam2
            qs = [denom(lam1 - l, base) for l in ordered[2:]]
            q_k = denom(lam1 - k, base)
            q_lm = denom(lam1 - lam_minus, base)
            q_lp = denom(lam1 - lam_plus, base)
            r1 = lcm_all(qs) if qs else 1
            r2 = lcm_all([r1, q_lm])
            num = q_lm * q_lp * math.gcd(r1, q_k)
            den = q_k * math.gcd(r1, q_lm) * math.gcd(r2, q_lp)
            return "connected-general", Fraction(num, den), 1
        rest = sorted((v for v in others if not same(v, lam_minus)), reverse=True)
        ordered2 = rest + [next(v for v in ordered if same(v, lam_minus))]
        lam1, lam2 = ordered2[0], ordered2[1]
        base = lam1 - lam2
        qs = [denom(lam1 - l, base) for l in ordered2[2:]]
        q_last = qs[-1]
        q_k = denom(lam1 - k, base)
        q_lp = denom(lam1 - lam_plus, base)
        r1 = lcm_all(qs)
        num = q_last * q_lp * math.gcd(r1, q_k)
        den = q_k * math.gcd(r1, q_last) * math.gcd(r1, q_lp)
        return "connected-special-among-many", Fraction(num, den), 1
    if r == 1:
        lam = ordered[0]
        base = k - lam
        q3 = denom(k - lam_plus, base)
        q4 = denom(k - lam_minus, base)
        case = "disconnected-single-special" if special else "disconnected-single"
        return case, Fraction(lcm_all([q3, q4])), 1
    if special and r == 2:
        lam = next(v for v in ordered if not same(v, lam_minus))
        base = k - lam
        q2 = denom(k - lam_minus, base)
        q5 = denom(k - lam_plus, base)
        return "disconnected-pair-special", Fraction(lcm_all([q2, q5]), q2), 1
    if not special:
        lam1, lam2 = ordered[0], ordered[1]
        base = lam1 - lam2
        qs = [denom(lam1 - l, base) for l in ordered[2:]]
        qs.append(denom(lam1 - k, base))
        q = lcm_all(qs)
        q_lm = denom(lam1 - lam_minus, base)
        q_lp = denom(lam1 - lam_plus, base)
        return "disconnected-general", Fraction(lcm_all([q, q_lm, q_lp]), q), 1
    lam1 = ordered[0]
    base = lam1 - k
    qs = [denom(lam1 - l, base) for l in ordered[1:]]
    q = lcm_all(qs)
    q_lp = denom(lam1 - lam_plus, base)
    return "disconnected-special-among-many", Fraction(lcm_all(qs + [q_lp]), q), 1


def join_period_ratio(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    matrix: str = "laplacian",
) -> JoinPeriodRatio:
    """Ratio of the period of join vertex u to its period in its part.

    u indexes the join, as in join_support. The ratio is produced twice:
    once by the closed-form case formulas and once from the exact
    eigenvalue lattices of both walks. The two must agree exactly or an
    InconsistencyError is raised.
    """
    params, part, u, _, _ = join_side(x, y, u, u, matrix)
    m, n = params.m, params.n
    support = eigenvalue_support(spectrum(part, matrix), u)
    connected = is_connected(part)
    others = [v for v in support if not _close(v, params.distinguished)]
    if len(others) == len(support):
        raise InconsistencyError(
            "the distinguished eigenvalue is missing from the vertex support"
        )
    if not others:
        raise PreconditionError(
            "the vertex support is a single eigenvalue, so no period ratio is defined"
        )
    per_x = _exact_min_period(_merge_close(support))
    per_j = _exact_min_period(carry_support(support, params, connected))
    if per_x is None:
        raise PreconditionError("the part walk is not periodic at this vertex")
    if per_j is None:
        raise PreconditionError("the join walk is not periodic at this vertex")
    (mx, dx), (mj, dj) = per_x, per_j
    s0, f0 = squarefree_part(dx * dj)
    # (mj / mx) * (f0 * s0 / dj), built as one Fraction
    ratio = Fraction(mj.numerator * mx.denominator * f0 * s0, mj.denominator * mx.numerator * dj)
    divisor = s0
    if matrix == "laplacian":
        pairs = [_rational_pair(v) for v in others]
        if None in pairs:
            raise InconsistencyError("a periodic Laplacian support must be rational")
        # the negated, shifted Laplacian join (module docstring), in the ints
        # of one common denominator
        scale = math.lcm(*(den for _, den in pairs))
        case, formula, f_div = _ratio_formula(
            [-num * (scale // den) for num, den in pairs], False, connected,
            0, n * scale, -m * scale, ((m + n) * scale) ** 2,
        )
    else:
        kf = reconstruct_rational(float(params.k))  # type: ignore[arg-type]
        lf = reconstruct_rational(float(params.ell))  # type: ignore[arg-type]
        if kf is None or lf is None:
            raise PreconditionError(
                "the closed-form period analysis needs rational regular degrees"
            )
        case, formula, f_div = _ratio_formula(
            others, dx > 1, connected, kf, params.lam_plus, params.lam_minus,
            (kf - lf) ** 2 + 4 * m * n,
        )
    if (formula, f_div) != (ratio, divisor):
        raise InconsistencyError(
            f"case {case} gives period ratio {formula}/sqrt({f_div}) but the exact "
            f"lattice gives {ratio}/sqrt({divisor})"
        )
    return JoinPeriodRatio(
        ratio=ratio,
        sqrt_divisor=divisor,
        case=case,
        period_part=_sym_time(mx, dx),
        period_join=_sym_time(mj, dj),
    )


# ---------------------------------------------------------------------------
# perfect state transfer: the generic valuation pattern
# ---------------------------------------------------------------------------


@dataclass
class _PatternOutcome:
    ok: bool
    eigenvalue_class: str | None
    delta: int | None
    time: SymbolicTime | None
    reason: str | None


def _evaluate_pattern(partition: SupportPartition) -> _PatternOutcome:
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
    family = _classify_differences(values)
    if family is None:
        return _PatternOutcome(
            False,
            None,
            None,
            None,
            "support eigenvalues are neither all integers nor a single quadratic family",
        )
    delta, coords = family
    if delta == 1:
        klass = "integer"
    else:
        if len({b & 1 for b in coords}) > 1:
            return _PatternOutcome(
                False,
                "quadratic",
                delta,
                None,
                "quadratic coordinates of mixed parity leave non-integer half-differences",
            )
        coords = [(b - coords[0]) // 2 for b in coords]
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


def _certificate(
    u: int,
    v: int,
    matrix: str | None,
    partition: SupportPartition | None,
    outcome: _PatternOutcome | None,
    reason: str | None = None,
    details: dict | None = None,
) -> PSTCertificate:
    """The certificate of a pair whose sign partition scored outcome.

    partition and outcome are None when the pair is not strongly
    cospectral. A negative verdict carries reason, else the pattern's own.
    A support that is integral only after a common shift is "shifted-integer".
    """
    ok = outcome is not None and outcome.ok
    if reason is None and outcome is not None:
        reason = outcome.reason
    klass = outcome.eigenvalue_class if outcome else None
    # the differences are integers, so one value decides: the least, which the shift removes
    if klass == "integer" and nearest_integer(min(partition.plus + partition.minus)) is None:
        klass = "shifted-integer"
    return PSTCertificate(
        ok,
        u,
        v,
        matrix=matrix,
        strong_cospectral=partition is not None,
        partition=partition,
        eigenvalue_class=klass,
        delta=outcome.delta if outcome else None,
        time=outcome.time if ok else None,
        reason=None if ok else reason,
        details={} if details is None else details,
    )


def pst_certificate(
    graph: WeightedGraph, u: int, v: int, matrix: str = "laplacian"
) -> PSTCertificate:
    """Transfer certificate for a vertex pair of a graph under matrix.

    The sign partition is pair_partition's. A positive verdict is confirmed
    on the walk of the graph's cached spectrum at the certified time;
    disagreement raises InconsistencyError. The certificate's matrix is
    left None, as the part certificate inside a join analysis.
    """
    partition = pair_partition(graph, matrix, u, v)
    if partition is None:
        return _certificate(u, v, None, None, None, "the vertices are not strongly cospectral")
    outcome = _evaluate_pattern(partition)
    cert = _certificate(u, v, None, partition, outcome)
    if outcome.ok:
        t = outcome.time.value
        entry = transition_entries(spectrum(graph, matrix), u, v, [t])[0]
        cert.confirmation = _confirmed(entry, f"certified transfer time {t}")
    return cert


# ---------------------------------------------------------------------------
# perfect state transfer across a join
# ---------------------------------------------------------------------------


def _tree_dominant_plus(lams: list[int], mus: list[int], n: int) -> bool:
    alphas = {nu2(mu) for mu in mus}
    if len(alphas) != 1:
        return False
    alpha = alphas.pop()
    return all(nu2(lam) > alpha for lam in lams) and nu2(n) > alpha


def _tree_dominant_minus(lams: list[int], mus: list[int], n: int) -> bool:
    cs = {nu2(lam) for lam in lams} | {nu2(n)}
    if len(cs) != 1:
        return False
    c0 = cs.pop()
    return all(nu2(mu) > c0 for mu in mus)


def _tree_balanced(lams: list[int], mus: list[int], n: int) -> bool:
    beta = nu2(n)
    if any(nu2(t) != beta for t in lams + mus):
        return False
    shifted_minus = {_nu2_inf((mu + n) >> beta) for mu in mus}
    if len(shifted_minus) != 1:
        return False
    s0 = shifted_minus.pop()
    return all(_nu2_inf((lam + n) >> beta) > s0 for lam in lams)


def _transfer_tree(
    own: SupportPartition | None, isolated_pair: bool, m: int, n: int, connected: bool
) -> tuple[bool, str, str | None]:
    """The gates and the transfer tree of a Laplacian join: (verdict, branch, reason).

    own is the pair's sign partition within its part, of order m, in
    Laplacian coordinates: the Laplacian eigenvalues, or k - theta for a
    k-regular part of a regular adjacency join. n is the order of the other
    side: the cone, or the other r - 1 copies of a self-join. reason is
    None for a positive verdict.
    """
    if isolated_pair:
        ok = n % 4 == 2
        return ok, "isolated-pair", None if ok else "the cone size is not 2 modulo 4"
    if own is None:
        return False, "not-cospectral", "the pair is not strongly cospectral within the part"
    if _contains(own.minus, float(m)):
        return False, "order-collision", "the part order lands on a sign-flipping eigenvalue"
    plus, minus = _as_int_list(own.plus), _as_int_list(own.minus)
    if plus is None or minus is None:
        return False, "non-integer-support", "the part support is not integral"
    if not minus:
        return False, "trivial-partition", "the sign partition has no flipping eigenvalues"
    lam_pool = sorted({l for l in plus if l != 0} | {m})
    branches = (
        [("dominant-plus", _tree_dominant_plus), ("dominant-minus", _tree_dominant_minus),
         ("balanced-shifted", _tree_balanced)]
        if connected else [("dominant-plus-disconnected", _tree_dominant_plus)]
    )
    for branch, test in branches:
        if test(lam_pool, minus, n):
            return True, branch, None
    return False, "no-valuation-pattern", "no dyadic valuation pattern matches the support"


def _join_certificate(x: WeightedGraph, u: int, v: int, params: JoinParams) -> PSTCertificate:
    """Certificate of a pair of x, the left part of the join that params describes.

    carry_join carries the pair's partition and the pattern scores it. A
    Laplacian join, and an adjacency join whose built graph is regular
    (k - ell = m - n), also run the transfer tree: its verdict must agree
    with the pattern's, and a certified time must be pi over the gcd of the
    join support's differences. Other adjacency joins take the pattern's
    verdict, behind the not-cospectral and collision gates.
    """
    m, n, matrix = params.m, params.n, params.matrix
    details: dict = {}
    regular = params.gap == m - n  # always so for the Laplacian
    if matrix == "laplacian":
        square = True
        odd = "an odd join order" if (m + n) % 2 else None
    else:
        k = params.distinguished
        if regular:  # D = (k - ell)^2 + 4mn = (m + n)^2, whatever the degrees
            d, square = (m + n) ** 2, True
            # k + ell = 2k - (m - n): for an integer k, the parity of m + n
            odd = "an odd degree sum" if (m + n) % 2 else None
        else:
            k_int = nearest_integer(k)
            ell = nearest_integer(float(params.ell))  # type: ignore[arg-type]
            if k_int is None or ell is None:
                raise PreconditionError(
                    "adjacency transfer analysis needs integer regular degrees"
                )
            d = (k_int - ell) ** 2 + 4 * m * n
            square = math.isqrt(d) ** 2 == d
            odd = "an odd degree sum" if (k_int + ell) % 2 else None
        details = {"discriminant": d, "discriminant_square": square}
    own, isolated_pair = _own_partition(x, matrix, u, v)
    connected = is_connected(x)
    jpart = carry_join(own, params, connected, isolated_pair)
    outcome = _evaluate_pattern(jpart) if jpart is not None else None
    verdict = bool(outcome and outcome.ok)
    if regular:
        if matrix == "adjacency" and own is not None:
            # Laplacian coordinates: the k-regular part's eigenvalue theta is k - theta
            own = SupportPartition([k - t for t in own.plus], [k - t for t in own.minus])
        ok, branch, reason = _transfer_tree(own, isolated_pair, m, n, connected)
        if ok != verdict:
            raise InconsistencyError(
                f"the transfer tree branch {branch!r} says {ok} but the join "
                f"support pattern says {verdict}"
            )
        if verdict:
            support = jpart.plus + jpart.minus
            gaps = _as_int_list([w - support[0] for w in support])
            if gaps is None:
                raise InconsistencyError("a certified join support must have integer differences")
            if SymbolicTime(1, gcd_all(gaps), 1) != outcome.time:
                raise InconsistencyError("the support gcd time disagrees with the pattern time")
    elif isolated_pair:
        branch, reason = "isolated-pair", None
    elif own is None:
        branch, reason = "not-cospectral", "the pair is not strongly cospectral within the part"
    elif _contains(own.minus, params.lam_minus):
        branch = "eigenvalue-collision"
        reason = "a fresh join eigenvalue lands on a sign-flipping eigenvalue"
    else:
        klass = outcome.eigenvalue_class if outcome else None
        branch = f"{klass}-class" if klass else "no-valuation-pattern"
        reason = None if jpart is not None else "the pair is not strongly cospectral in the join"
    if verdict and outcome.eigenvalue_class == "integer" and not square:
        raise InconsistencyError(
            "integral transfer certified although the join discriminant is not square"
        )
    if odd:
        details["parity_note"] = f"{odd} rules out transfer for every pair"
        if verdict:
            raise InconsistencyError(f"transfer certified despite {odd}")
    details["branch"] = branch
    return _certificate(u, v, matrix, jpart, outcome, reason, details)


def _confirm_transfer(
    tree: JoinTree, u: int, v: int, cert: PSTCertificate, what: str
) -> PSTCertificate:
    """Check cert on the walk of the join that tree describes; confirm it in place.

    u and v index the tree. A negative verdict is returned unchanged. A
    positive one must reach |exp(itM)[v, u]| >= CONFIRMATION_GATE at the
    certified time, computed by krylov_entry on the tree's equitable
    quotient at u, or InconsistencyError is raised. The magnitude is set
    as cert's confirmation, and the route, the Krylov dimension, the error
    bound and the operator with its order go into cert's details, which
    every caller has just made; cert is returned. krylov_entry has one
    route, so confirmation_route is always "whole-quotient" and
    krylov_operator "quotient", and krylov_operator_order repeats the
    dimension, the quotient's order; the five keys keep the report layout.
    """
    if not cert.pst:
        return cert
    entry = krylov_entry(tree, u, v, cert.time.value, cert.matrix)
    cert.confirmation = _confirmed(entry.value, f"the certified {what} transfer")
    cert.details.update(
        confirmation_route="whole-quotient", krylov_dimension=entry.dimension,
        krylov_bound=entry.bound, krylov_operator="quotient",
        krylov_operator_order=entry.dimension)
    return cert


def join_pst(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    matrix: str = "laplacian",
) -> PSTCertificate:
    """Transfer certificate for a join pair, from the parts alone.

    u and v index the join as spectral.join_side reads it. A positive
    verdict is confirmed on an independently computed walk of the join
    (_confirm_transfer), which never builds the joined graph; a pair in
    the right part is analysed, and confirmed, in the swapped join.
    """
    if u == v:
        raise ValueError("transfer concerns two distinct vertices")
    params, part, pu, pv, cross = join_side(x, y, u, v, matrix)
    right = pu != u  # a right-side pair, read in the swapped join
    if cross:
        partition = join_strong_cospectral(x, y, u, v, matrix=matrix)
        if partition is None:
            return _certificate(
                u, v, matrix, None, None,
                "vertices on opposite sides of a join are never strongly cospectral",
            )
        # single-vertex parts: the join is one weighted edge, the only
        # cross pair that is strongly cospectral; score its pattern directly
        outcome = _evaluate_pattern(partition)
        cert = _certificate(u, v, matrix, partition, outcome, details={"branch": "single-edge"})
    else:
        cert = _join_certificate(part, pu, pv, params)
    tree = JoinTree(Connective.JOIN, (y, x) if right else (x, y))
    cert = _confirm_transfer(tree, pu, pv, cert, "join")
    if right:
        cert = replace(cert, u=u, v=v, details={**cert.details, "side": "right"})
    return cert


def double_cone_pst(
    y: WeightedGraph, matrix: str = "laplacian", apex_loop_weight: float | None = None
) -> PSTCertificate:
    """Transfer between the two apexes sitting over a base graph."""
    if matrix == "laplacian" and apex_loop_weight not in (None, 0):
        raise ValueError("apex loops apply to adjacency analyses only")
    if apex_loop_weight in (None, 0):
        apexes = APEXES
    else:
        apexes = family("O_loops", 2, apex_loop_weight)
    return join_pst(apexes, y, 0, 1, matrix=matrix)


# ---------------------------------------------------------------------------
# preservation and induction of transfer
# ---------------------------------------------------------------------------


def pst_preserved(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    matrix: str = "laplacian",
    pad: int | None = None,
) -> PSTCertificate:
    """Whether transfer already present in the part survives the join.

    The pair must have transfer within x. For the Laplacian, when the part
    order collides with a flipping eigenvalue, pad requests the analysis of
    the part padded by that many isolated vertices before joining. Every
    verdict is cross-checked against the join analysis, whose details,
    the confirmation's among them, the certificate keeps beside the rule's.

    The Laplacian valuation rules are derived for unweighted parts. A part
    with another edge weight is labelled "general" (details["rule"]) and
    takes the join analysis's verdict: K2 with weight 2 keeps its transfer
    against O2 (at pi/2) although nu2(m) = 1 does not exceed nu2(4), the
    divisor of its own time pi/4. Padding a weighted part raises
    PreconditionError.
    """
    params = join_params(x, y, matrix)
    m, n = params.m, params.n
    if u == v or not (0 <= u < m and 0 <= v < m):
        raise ValueError("the pair must be two distinct part vertices")
    base = pst_certificate(x, u, v, matrix)
    if not base.pst:
        raise PreconditionError("the pair has no transfer within the part")
    details: dict = {
        "part_time": [base.time.pi_numerator, base.time.pi_denominator, base.time.sqrt_divisor]
    }
    if matrix == "laplacian" and (x.weights != 1.0).any():
        if pad is not None:
            raise PreconditionError("padding is defined here for unweighted parts")
        details["rule"] = "general"
        check = join_pst(x, y, u, v, matrix=matrix)
        return replace(check, details={**check.details, **details})
    if matrix == "laplacian":
        if base.time.pi_numerator != 1 or base.time.sqrt_divisor != 1:
            raise InconsistencyError("a Laplacian transfer time must be pi over an integer")
        h = base.time.pi_denominator
        minus_i = _as_int_list(base.partition.minus)
        if minus_i is None:
            raise InconsistencyError("a Laplacian transfer support must be integral")
        details["part_divisor"] = h
        if pad is not None:
            r = int(pad)
            if r < 1:
                raise ValueError("the padding size must be positive")
            if m not in minus_i:
                raise PreconditionError(
                    "padding applies when the part order collides with a flipping eigenvalue"
                )
            details["padded_order"] = m + r
            if (m + r) in minus_i:
                verdict = False
                reason = "the padded order still lands on a flipping eigenvalue"
            else:
                verdict = nu2(m) == nu2(r) and nu2(n) > nu2(m)
                reason = None if verdict else "the padding and cone valuations do not line up"
            check = join_pst(disjoint_union(x, family("O", r)), y, u, v, matrix=matrix)
        elif m in minus_i:
            verdict = False
            reason = "the part order is a flipping eigenvalue, so no cone preserves the transfer"
            details["order_note"] = reason
            check = join_pst(x, y, u, v, matrix=matrix)
        else:
            verdict = nu2(m) > nu2(h) and nu2(n) > nu2(h)
            reason = None if verdict else "the order or cone valuation does not exceed the part time divisor"
            check = join_pst(x, y, u, v, matrix=matrix)
            if m & (m - 1) == 0:
                p = m.bit_length() - 1
                if p == 1:
                    details["power_of_two_note"] = "a two-vertex part never keeps its transfer"
                    if verdict:
                        raise InconsistencyError("a two-vertex part cannot keep its transfer")
                else:
                    details["power_of_two_note"] = (
                        "preservation depends only on the cone size valuation"
                    )
                    if verdict != (nu2(n) > nu2(h)):
                        raise InconsistencyError(
                            "the power-of-two preservation rule disagrees with the general one"
                        )
            if verdict:
                g = check.time.pi_denominator
                if nu2(g) != nu2(h):
                    raise InconsistencyError(
                        "the join time divisor changes the dyadic valuation"
                    )
                details["time_divisors"] = [h, g]
                if not is_connected(x):
                    expected = lcm_all([h // math.gcd(m, h), h // math.gcd(n, h)])
                    if Fraction(h, g) != expected or expected % 2 == 0:
                        raise InconsistencyError(
                            "the disconnected time divisor ratio is not the expected odd value"
                        )
        if check.pst != verdict:
            raise InconsistencyError(
                f"the preservation rule says {verdict} but the join analysis says {check.pst}"
            )
        return replace(check, reason=reason, details={**check.details, **details})
    if pad is not None:
        raise PreconditionError("padding is a Laplacian construction")
    # the rule reads only the gap g = k - ell and the offsets k - mu of the
    # flipping eigenvalues mu, as _join_certificate does, so the degrees
    # themselves need not be integers
    k, gap = params.distinguished, params.gap
    if gap is None:
        raise PreconditionError("adjacency preservation needs an integer degree gap k - ell")
    offsets = _as_int_list([k - mu for mu in base.partition.minus])
    if offsets is None:
        raise PreconditionError(
            "adjacency preservation needs integer offsets k - mu of the flipping eigenvalues"
        )
    fresh = params.offsets
    if fresh is None:
        verdict = False
        reason = "the join discriminant is not a perfect square"
    else:
        # the fresh eigenvalues are k + s and ell - s = k - (g + s)
        s = fresh[0]
        k_exact = nearest_integer(k)
        k_exact = k if k_exact is None else k_exact
        details["fresh_shift"] = s
        details["fresh_eigenvalues"] = [k_exact + s, k_exact - gap - s]
        if gap + s in offsets:
            verdict = False
            reason = "the smaller fresh eigenvalue collides with a flipping eigenvalue"
        else:
            verdict = all(_nu2_inf(s) > nu2(o) and _nu2_inf(gap) > nu2(o) for o in offsets)
            reason = None if verdict else "a crossing valuation is not dominated"
    check = join_pst(x, y, u, v, matrix=matrix)
    if check.pst != verdict:
        raise InconsistencyError(
            f"the preservation rule says {verdict} but the join analysis says {check.pst}"
        )
    if verdict:
        h = base.time.pi_denominator
        g = check.time.pi_denominator
        if nu2(g) != nu2(h):
            raise InconsistencyError("the join time divisor changes the dyadic valuation")
        details["time_divisors"] = [h, g]
    return replace(check, reason=reason, details={**check.details, **details})


def pst_induced(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    matrix: str = "laplacian",
) -> InducedTransferReport:
    """Transfer created by the join for a pair that had none in the part.

    The mechanism label records which recorded characterization applies,
    and each applicable characterization is re-evaluated and compared with
    the join verdict as a consistency check.
    """
    params = join_params(x, y, matrix)
    m, n = params.m, params.n
    if u == v or not (0 <= u < m and 0 <= v < m):
        raise ValueError("the pair must be two distinct part vertices")
    jcert = join_pst(x, y, u, v, matrix=matrix)
    part_cert = pst_certificate(x, u, v, matrix)
    induced = jcert.pst and not part_cert.pst
    mechanism = "general"
    details: dict = {}
    part_sc, is_isolated_pair = _own_partition(x, matrix, u, v)
    if is_isolated_pair:
        # the 2/m equality condition: the fresh offsets share their valuation
        # (n = 2 modulo 4 for the Laplacian, whose offsets are n and -2)
        mechanism = "isolated-pair-cone"
        offsets = params.offsets
        if offsets is None:
            details["quadratic_cone"] = True
        elif (nu2(offsets[0]) == nu2(offsets[1])) != jcert.pst or part_cert.pst:
            raise InconsistencyError("the isolated-pair rule disagrees with the join analysis")
    elif matrix == "laplacian":
        plus_i = minus_i = None
        if part_sc is not None:
            plus_i, minus_i = _as_int_list(part_sc.plus), _as_int_list(part_sc.minus)
        if plus_i is not None and minus_i is not None:
            nonzero = [l for l in plus_i if l != 0] + minus_i
            plus_nz = [l for l in plus_i if l != 0]
            alphas = {nu2(t) for t in nonzero}
            if len(alphas) == 1:
                mechanism = "uniform-valuation"
                alpha = alphas.pop()
                identity = (
                    is_connected(x)
                    and m not in minus_i
                    and nu2(m) == alpha
                    and nu2(n) == alpha
                )
                if identity:
                    z = ((n >> alpha) - 1) // 2
                    y_half = ((m >> alpha) + 1) // 2
                    ps = [((l >> alpha) + 1) // 2 for l in plus_nz]
                    qs = [((mu >> alpha) + 1) // 2 for mu in minus_i]
                    qvals = {_nu2_inf(q + z) for q in qs}
                    identity = len(qvals) == 1
                    if identity:
                        q0 = qvals.pop()
                        identity = all(
                            _nu2_inf(p + z) > q0 for p in ps
                        ) and _nu2_inf(y_half + z) > q0
                # the identity says when the join creates transfer for a
                # pair with none in the part; a pair that has its own (in a
                # disconnected part, or in K2 with weight 3) gets none created
                if not part_cert.pst and identity != induced:
                    raise InconsistencyError(
                        "the uniform-valuation rule disagrees with the join analysis"
                    )
                details["uniform_valuation"] = True
            elif (
                plus_nz
                and minus_i
                and min(nu2(mu) for mu in minus_i) > max(nu2(l) for l in plus_nz)
            ):
                mechanism = "minus-dominant"
                identity = (
                    m not in minus_i
                    and is_connected(x)
                    and len({nu2(l) for l in plus_nz} | {nu2(m), nu2(n)}) == 1
                )
                if identity != jcert.pst:
                    raise InconsistencyError(
                        "the minus-dominant rule disagrees with the join analysis"
                    )
            elif is_connected(x) and minus_i:
                lam_pool = sorted({l for l in plus_i if l != 0} | {m})
                lc5 = (
                    m not in minus_i
                    and nu2(m) == nu2(n)
                    and (
                        _tree_dominant_minus(lam_pool, minus_i, n)
                        or _tree_balanced(lam_pool, minus_i, n)
                    )
                )
                if lc5 != induced:
                    raise InconsistencyError(
                        "the induced-transfer rule disagrees with the join analysis"
                    )
                if induced:
                    mechanism = "shifted-valuation"
    elif part_sc is not None and is_connected(x):
        plus_i = _as_int_list(part_sc.plus)
        minus_i = _as_int_list(part_sc.minus)
        if plus_i is not None and minus_i is not None and minus_i:
            without_k = SupportPartition(
                [l for l in part_sc.plus if not _close(l, params.k)],  # type: ignore[arg-type]
                list(part_sc.minus),
            )
            with_k = _evaluate_pattern(part_sc)
            reduced = _evaluate_pattern(without_k) if without_k.plus else None
            if reduced is not None and reduced.ok and not with_k.ok:
                mechanism = "regularity-collision"
                if part_cert.pst:
                    raise InconsistencyError(
                        "a regularity collision should rule out transfer in the part"
                    )
    return InducedTransferReport(induced, mechanism, jcert, part_cert, details)


# ---------------------------------------------------------------------------
# self-joins
# ---------------------------------------------------------------------------


def self_join_analysis(
    x: WeightedGraph,
    r: int,
    u: int,
    v: int,
    matrix: str = "laplacian",
) -> PSTCertificate:
    """Transfer between two first-copy vertices in the r-fold self-join.

    The self-join is x joined to the other r - 1 copies, which enter only
    through their order (r - 1)m and, for a k-regular x under the adjacency
    matrix, their degree k + (r - 2)m. So the certificate is the join's
    (a regular join under the adjacency matrix), and positives are
    confirmed on the self-join's walk.
    """
    r = int(r)
    if r < 2:
        raise ValueError("a self-join needs at least two copies")
    m = x.order
    if u == v or not (0 <= u < m and 0 <= v < m):
        raise ValueError("the pair must be two distinct part vertices")
    k = ell = None
    if matrix == "laplacian" and not is_simple(x):
        raise PreconditionError("Laplacian self-join analysis requires a simple part")
    if matrix == "adjacency":
        k = is_regular(x)
        if k is None:
            raise PreconditionError("adjacency self-join analysis requires a regular part")
        ell = k + (r - 2) * m
    params = JoinParams.of(m, (r - 1) * m, matrix, k, ell)
    cert = _join_certificate(x, u, v, params)
    cert = replace(cert, details={"copies": r, **cert.details})
    return _confirm_transfer(JoinTree(Connective.JOIN, (x,) * r), u, v, cert, "self-join")


# ---------------------------------------------------------------------------
# iterated joins
# ---------------------------------------------------------------------------


def iterated_join_sign_partition(
    spec: IteratedJoinSpec, j: int, u: int, v: int
) -> SupportPartition | None:
    """Sign partition of a same-part pair carried through the build stages.

    Each union leaves the partition alone and marks the pair's side
    disconnected; each join shifts it and may destroy it when the side's
    order lands on a flipping eigenvalue. Laplacian only.
    """
    part = laplacian_plan_part(spec, j, u, v)
    if u == v:
        raise ValueError("the pair must be two distinct vertices of the part")
    return carry_through_plan(spec, j, *_own_partition(part, "laplacian", u, v))


def iterated_join_analysis(
    spec: IteratedJoinSpec,
    j: int,
    u: int,
    v: int,
    matrix: str = "laplacian",
) -> PSTCertificate:
    """Transfer certificate for a same-part pair of an iterated join."""
    if matrix != "laplacian":
        raise PreconditionError("iterated join analysis is provided for the Laplacian only")
    partition = iterated_join_sign_partition(spec, j, u, v)
    return _iterated_certificate(spec, j, u, v, partition)


def _iterated_certificate(
    spec: IteratedJoinSpec, j: int, u: int, v: int, partition: SupportPartition | None
) -> PSTCertificate:
    """The certificate of a pair whose carried sign partition is partition.

    The pattern scores the partition; a stacked cone's verdict is checked
    against its congruences. A positive verdict is confirmed on the walk of
    the plan's tree, which is made only then and never built into a graph.
    """
    details: dict = {"part": j, "orders": spec.orders}
    if partition is None:
        return _certificate(
            u, v, "laplacian", None, None,
            "the pair is not strongly cospectral in the built graph", details,
        )
    outcome = _evaluate_pattern(partition)
    verdict = outcome.ok
    part = spec.parts[j - 1][0]
    sizes = spec.orders
    threshold_shape = all(
        not len(g.weights) and is_simple(g) for g, _ in spec.parts
    )
    if threshold_shape and j == 1 and part.order == 2:
        expected = (
            len(sizes) % 2 == 0
            and sizes[1] % 4 == 2
            and all(s % 4 == 0 for s in sizes[2:])
        )
        if expected != verdict:
            raise InconsistencyError(
                "the stacked-cone congruences disagree with the support pattern"
            )
        details["threshold_congruences"] = {
            "first_order": "exactly 2",
            "second_order": "2 modulo 4",
            "later_orders": "0 modulo 4",
        }
        if verdict and outcome.time != SymbolicTime(1, 2, 1):
            raise InconsistencyError("a stacked-cone transfer time must be pi over 2")
    cert = _certificate(u, v, "laplacian", partition, outcome, details=details)
    if not cert.pst:
        return cert
    return _confirm_transfer(
        iterated_tree(spec), iterated_vertex(spec, j, u), iterated_vertex(spec, j, v),
        cert, "iterated",
    )


def threshold_transfer_search(max_parts: int = 4, max_size: int = 6) -> list[dict]:
    """Scan alternating stacks of empty graphs for first-part transfer pairs.

    The pair under test is one representative pair of the first part
    (vertices of an empty part are interchangeable), so the sweep probes
    the congruence pattern on the part sizes directly. The empty parts are
    built once, so each is decomposed, and its pair partitioned, once.

    Each plan length is one depth-first walk over size prefixes, in
    itertools.product order. A prefix carries its parent's partition one
    stage forward (carry_stage), and a dead prefix is pruned with its whole
    subtree. Each live plan is certified from its carried partition as
    iterated_join_analysis certifies it: scored by the pattern,
    cross-checked against the stacked-cone congruences and, if a hit,
    confirmed on the walk. Hits are returned in enumeration order.
    """
    empties = {size: family("O", size) for size in range(1, max_size + 1)}
    hits = []

    def walk(parts: list, state, conns: list, isolated_pair: bool):
        if not conns:
            yield IteratedJoinSpec(parts), state[0]
            return
        for graph in empties.values():
            after = carry_stage(state, graph, conns[0], isolated_pair)
            if after is not None:
                yield from walk(parts + [(graph, conns[0])], after, conns[1:], isolated_pair)

    for count in range(2, max_parts + 1):
        conns = [
            Connective.JOIN if idx % 2 == count % 2 else Connective.UNION
            for idx in range(2, count + 1)
        ]
        for first in range(2, max_size + 1):
            graph = empties[first]
            own, isolated_pair = _own_partition(graph, "laplacian", 0, 1)
            if own is None and not isolated_pair:
                continue
            root = (own, first, is_connected(graph))
            for spec, partition in walk([(graph, None)], root, conns, isolated_pair):
                cert = _iterated_certificate(spec, 1, 0, 1, partition)
                if cert.pst:
                    t = cert.time
                    time = [t.pi_numerator, t.pi_denominator, t.sqrt_divisor]
                    hits.append({"sizes": spec.orders, "part": 1, "time_value": t.value, "time": time})
    return hits
