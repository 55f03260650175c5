"""Strong cospectrality, periodicity, and perfect state transfer.

Everything join-related here runs on closed forms derived from the parts:
supports, sign partitions, transfer times, and period ratios never require
the joined graph to be diagonalized. Each closed-form verdict is still
checked against an independent computation (an exact eigenvalue lattice, a
generic valuation pattern, or a numerically computed walk), and any
disagreement raises InconsistencyError rather than being smoothed over.

The walk check (_confirm_transfer) never builds the join either: it runs
Lanczos from e_u on a JoinTree, whose products cost the parts' edges plus
the order, and exponentiates the small tridiagonal matrix with a series,
so it shares no eigensolver with the certificate it checks. Only
verify="full" builds the joined graph, once, to diagonalize it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .arith import (
    classify_eigenvalues,
    gcd_all,
    lcm_all,
    nu2,
    reconstruct_rational,
    squarefree_part,
)
from .errors import InconsistencyError, PreconditionError
from .graphs import (
    Connective,
    IteratedJoinSpec,
    JoinTree,
    WeightedGraph,
    disjoint_union,
    family,
    is_connected,
    is_regular,
    iterated_tree,
    iterated_vertex,
)
from .spectral import (
    SUPPORT_TOL,
    JoinParams,
    SpectralDecomposition,
    SupportPartition,
    _close,
    _contains,
    _merge_close,
    carry_join,
    carry_through_plan,
    eigenvalue_support,
    join_params,
    join_support,
    spectrum,
)
from .walk import krylov_entry, transition_entries

# The two apexes of a double cone, shared so that their spectra are
# computed once per process.
APEXES = family("O", 2)


def _nu2_inf(value: int):
    """Dyadic valuation with the zero convention of +infinity."""
    return math.inf if value == 0 else nu2(value)


def _as_int(x: float) -> int | None:
    frac = reconstruct_rational(x)
    if frac is None or frac.denominator != 1:
        return None
    return int(frac)


def _as_int_list(values) -> list[int] | None:
    out = []
    for v in values:
        i = _as_int(v)
        if i is None:
            return None
        out.append(i)
    return out


def _sets_match(a, b, tol: float = 1e-7) -> bool:
    if len(a) != len(b):
        return False
    return all(_close(x, y, tol) for x, y in zip(sorted(a), sorted(b)))


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


def strong_cospectral(
    decomp: SpectralDecomposition, u: int, v: int, tol: float = SUPPORT_TOL
) -> SupportPartition | None:
    """Sign partition of the common support, or None when the pair fails.

    The pair is strongly cospectral exactly when every projector sends the
    two vertex states to the same vector up to sign.
    """
    if u == v:
        raise ValueError("strong cospectrality concerns two distinct vertices")
    if not (0 <= u < decomp.size and 0 <= v < decomp.size):
        raise ValueError("vertex out of range")
    plus: list[float] = []
    minus: list[float] = []
    for lam, proj in zip(decomp.eigenvalues, decomp.projectors):
        cu = proj[:, u]
        cv = proj[:, v]
        if np.linalg.norm(cu) <= tol and np.linalg.norm(cv) <= tol:
            continue
        if np.linalg.norm(cu - cv) <= tol:
            plus.append(lam)
        elif np.linalg.norm(cu + cv) <= tol:
            minus.append(lam)
        else:
            return None
    return SupportPartition(plus, minus)


def join_strong_cospectral(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    matrix: str = "laplacian",
    tol: float = SUPPORT_TOL,
) -> SupportPartition | None:
    """Sign partition of a join pair, computed from one part's spectrum.

    u and v index the joined graph: the left part keeps its labels, the
    right part is shifted by the left order. Cross pairs fail except when
    both parts are single vertices (a weight-one edge, whose endpoints are
    strongly cospectral whenever the loop weights agree). A two-vertex
    edgeless left part is the one case where a pair that is not strongly
    cospectral within its part becomes so in the join.
    """
    params = join_params(x, y, matrix)
    m, n = params.m, params.n
    total = m + n
    if u == v:
        raise ValueError("strong cospectrality concerns two distinct vertices")
    if not (0 <= u < total and 0 <= v < total):
        raise ValueError("vertex out of range for the join")
    if (u < m) != (v < m):
        if m == 1 and n == 1:
            if matrix == "laplacian":
                return SupportPartition([0.0], [2.0])
            a = x.loops.get(0, 0.0)
            b = y.loops.get(0, 0.0)
            if _close(a, b, tol):
                return SupportPartition([a + 1.0], [a - 1.0])
        return None
    if u >= m:
        return join_strong_cospectral(y, x, u - m, v - m, matrix=matrix, tol=tol)
    isolated_pair = x.order == 2 and not x.edges
    part = None if isolated_pair else strong_cospectral(spectrum(x, matrix), u, v, tol=tol)
    return carry_join(part, params, matrix, is_connected(x), isolated_pair, tol)


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------


def _classify_differences(values):
    """classify_eigenvalues, retried after removing a global shift.

    Phase alignment and transfer patterns depend only on eigenvalue
    differences, so a support that is an integer or quadratic family up to
    a common real offset (loop weights produce these) classifies too.
    """
    quads = classify_eigenvalues(values)
    if quads is not None:
        return quads
    base = min(values)
    return classify_eigenvalues([v - base for v in values])


def _exact_min_period(values) -> tuple[Fraction, int] | None:
    """Smallest t with aligned phases, as (pi multiplier, root divisor).

    Rational supports give the answer over a common denominator lattice;
    otherwise a shared quadratic family is tried. None means the difference
    ratios were not recognized as rational.
    """
    vals = list(values)
    quads = _classify_differences(vals)
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


def is_periodic(decomp: SpectralDecomposition, u: int, tol: float = SUPPORT_TOL) -> bool:
    support = eigenvalue_support(decomp, u, tol)
    if len(support) <= 1:
        return True
    exact = _exact_min_period(support)
    if exact is None:
        return False
    mult, div = exact
    rho = math.pi * float(mult) / math.sqrt(div)
    phases = np.exp(1j * rho * np.asarray(support))
    return bool(abs(np.mean(phases)) >= 1 - 1e-6)


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
    vals = _merge_close(support)
    if not vals:
        raise ValueError("an empty support has no period")
    if len(vals) == 1:
        return PeriodCertificate(
            True,
            0.0,
            None,
            vals,
            reason="a one-point support keeps the vertex state fixed up to phase",
        )
    exact = _exact_min_period(vals)
    if exact is None:
        return PeriodCertificate(
            False,
            None,
            None,
            vals,
            reason="eigenvalue difference ratios are not recognized as rational",
        )
    mult, div = exact
    symbolic = _sym_time(mult, div)
    rho = symbolic.value
    if decomp is not None and u is not None:
        mag = float(abs(transition_entries(decomp, u, u, [rho])[0]))
        if mag < 1 - 1e-6:
            raise InconsistencyError(
                f"period {rho} only revives the vertex state to magnitude {mag}"
            )
        # central half of a 1024-point grid: any true sub-period rho/j has a
        # revival multiple within rho/(2j) <= rho/4 of the midpoint, while
        # continuity forces |U| -> 1 at both ends for every period
        grid = rho * np.arange(256, 769) / 1024.0
        mags = np.abs(transition_entries(decomp, u, u, grid))
        if float(mags.max()) >= 1 - 1e-4:
            raise InconsistencyError(
                "a grid time below the computed minimum period already revives the state"
            )
        return PeriodCertificate(True, rho, symbolic, vals, confirmation=mag, minimal_on_grid=True)
    phases = np.exp(1j * rho * np.asarray(vals))
    proxy = float(abs(np.mean(phases)))
    if proxy < 1 - 1e-6:
        return PeriodCertificate(
            False,
            None,
            None,
            vals,
            confirmation=proxy,
            reason="the reconstructed period fails the phase alignment check",
        )
    return PeriodCertificate(True, rho, symbolic, vals, confirmation=proxy)


def join_periodic(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    matrix: str = "laplacian",
    side: str = "left",
) -> PeriodCertificate:
    """Periodicity of a join vertex decided from the part's spectrum."""
    return minimum_period(join_support(x, y, u, matrix=matrix, side=side))


def graph_periodic(graph: WeightedGraph, matrix: str = "laplacian") -> bool:
    """Whether every vertex of the graph is periodic.

    Integral spectra are periodic outright; otherwise each vertex is tested.
    """
    decomp = spectrum(graph, matrix)
    if _as_int_list(decomp.eigenvalues) is not None:
        return True
    return all(is_periodic(decomp, u) for u in range(decomp.size))


# ---------------------------------------------------------------------------
# join period ratios
# ---------------------------------------------------------------------------


def _laplacian_ratio_formula(
    others: list[Fraction], m: int, n: int, connected: bool
) -> tuple[str, Fraction]:
    """Closed-form period ratio for a Laplacian join, by support shape."""
    mf = Fraction(m)
    nf = Fraction(n)
    special = mf in others
    ordered = sorted(others, reverse=True)
    r = len(ordered)
    if connected:
        if r == 1:
            lam = ordered[0]
            if special:
                return "connected-single-special", Fraction(m, m + n)
            q = ((mf + nf) / (lam + nf)).denominator
            return "connected-single", lam * q / (lam + nf)
        if special and r == 2:
            lam = next(l for l in ordered if l != mf)
            q = ((mf + nf) / (lam + nf)).denominator
            qp = (mf / lam).denominator
            return "connected-pair-special", lam * q / (qp * (lam + nf))
        if not special:
            lam1, lam2 = ordered[0], ordered[1]
            base = lam1 - lam2
            qs = [((lam1 - l) / base).denominator for l in ordered[2:]]
            q_zero = (lam1 / base).denominator
            q_m = ((lam1 - mf) / base).denominator
            q_n = ((lam1 + nf) / base).denominator
            r1 = lcm_all(qs) if qs else 1
            r2 = lcm_all([r1, q_m])
            num = q_m * q_n * math.gcd(r1, q_zero)
            den = q_zero * math.gcd(r1, q_m) * math.gcd(r2, q_n)
            return "connected-general", Fraction(num, den)
        rest = sorted((l for l in others if l != mf), reverse=True)
        ordered2 = rest + [mf]
        lam1, lam2 = ordered2[0], ordered2[1]
        base = lam1 - lam2
        qs = [((lam1 - l) / base).denominator for l in ordered2[2:]]
        q_last = qs[-1]
        q_zero = (lam1 / base).denominator
        q_n = ((lam1 + nf) / base).denominator
        r1 = lcm_all(qs)
        num = q_last * q_n * math.gcd(r1, q_zero)
        den = q_zero * math.gcd(r1, q_last) * math.gcd(r1, q_n)
        return "connected-special-among-many", Fraction(num, den)
    if r == 1:
        lam = ordered[0]
        if special:
            return "disconnected-single-special", Fraction(m, math.gcd(m, n))
        q3 = ((lam - mf) / lam).denominator
        q4 = ((lam + nf) / lam).denominator
        return "disconnected-single", Fraction(lcm_all([q3, q4]))
    if special and r == 2:
        lam = next(l for l in ordered if l != mf)
        qp = (mf / lam).denominator
        q5 = ((lam + nf) / lam).denominator
        return "disconnected-pair-special", Fraction(lcm_all([qp, q5]), qp)
    if not special:
        lam1, lam2 = ordered[0], ordered[1]
        base = lam1 - lam2
        qs = [((lam1 - l) / base).denominator for l in ordered[2:]]
        qs.append((lam1 / base).denominator)
        q = lcm_all(qs)
        q_m = ((lam1 - mf) / base).denominator
        q_n = ((lam1 + nf) / base).denominator
        return "disconnected-general", Fraction(lcm_all([q, q_m, q_n]), q)
    lam1 = ordered[0]
    qs = [((lam1 - l) / lam1).denominator for l in ordered[1:]]
    q = lcm_all(qs)
    q_n = ((lam1 + nf) / lam1).denominator
    return "disconnected-special-among-many", Fraction(lcm_all(qs + [q_n]), q)


def _adjacency_ratio_formula(
    others_f: list[float],
    others_frac: list[Fraction | None],
    support_quadratic: bool,
    kf: Fraction,
    lf: Fraction,
    m: int,
    n: int,
    connected: bool,
    lam_plus: float,
    lam_minus: float,
) -> tuple[str, Fraction, int]:
    """Closed-form period ratio for an adjacency join, by support shape."""
    d_frac = (kf - lf) ** 2 + 4 * m * n
    root_d = math.sqrt(float(d_frac))
    k_float = float(kf)

    def rat(xf: float) -> Fraction:
        fr = reconstruct_rational(xf)
        if fr is None:
            raise InconsistencyError(f"expected a rational ratio, got {xf!r}")
        return fr

    def over_root(xf: float, exact: Fraction | None) -> tuple[Fraction, int]:
        if support_quadratic:
            return rat(xf / root_d), 1
        if exact is None:
            raise InconsistencyError("missing an exact value for a rational support")
        s, g = squarefree_part(d_frac.numerator * d_frac.denominator)
        return exact * d_frac.denominator / g, s

    def frac_of(value: float) -> Fraction | None:
        for vf, fr in zip(others_f, others_frac):
            if _close(vf, value):
                return fr
        return None

    special = any(_close(v, lam_minus) for v in others_f)
    ordered = sorted(others_f, reverse=True)
    r = len(ordered)
    if connected:
        if r == 1:
            lam = ordered[0]
            exact = (kf - frac_of(lam)) if frac_of(lam) is not None else None
            if special:
                fr0, dv = over_root(k_float - lam, exact)
                return "connected-single-special", fr0, dv
            q = rat((lam_plus - lam) / root_d).denominator
            fr0, dv = over_root(k_float - lam, exact)
            return "connected-single", q * fr0, dv
        if special and r == 2:
            lam = next(v for v in ordered if not _close(v, lam_minus))
            lam_m = next(v for v in ordered if _close(v, lam_minus))
            q = rat((lam_plus - lam) / root_d).denominator
            qp = rat((lam - k_float) / (lam - lam_m)).denominator
            f_lam, f_lm = frac_of(lam), frac_of(lam_m)
            exact = (f_lam - f_lm) if f_lam is not None and f_lm is not None else None
            fr0, dv = over_root(lam - lam_m, exact)
            return "connected-pair-special", fr0 * q / qp, dv
        if not special:
            lam1, lam2 = ordered[0], ordered[1]
            base = lam1 - lam2
            qs = [rat((lam1 - l) / base).denominator for l in ordered[2:]]
            q_k = rat((lam1 - k_float) / base).denominator
            q_lm = rat((lam1 - lam_minus) / base).denominator
            q_lp = rat((lam1 - lam_plus) / base).denominator
            r1 = lcm_all(qs) if qs else 1
            r2 = lcm_all([r1, q_lm])
            num = q_lm * q_lp * math.gcd(r1, q_k)
            den = q_k * math.gcd(r1, q_lm) * math.gcd(r2, q_lp)
            return "connected-general", Fraction(num, den), 1
        rest = sorted((v for v in others_f if not _close(v, lam_minus)), reverse=True)
        ordered2 = rest + [next(v for v in ordered if _close(v, lam_minus))]
        lam1, lam2 = ordered2[0], ordered2[1]
        base = lam1 - lam2
        qs = [rat((lam1 - l) / base).denominator for l in ordered2[2:]]
        q_last = qs[-1]
        q_k = rat((lam1 - k_float) / base).denominator
        q_lp = rat((lam1 - lam_plus) / base).denominator
        r1 = lcm_all(qs)
        num = q_last * q_lp * math.gcd(r1, q_k)
        den = q_k * math.gcd(r1, q_last) * math.gcd(r1, q_lp)
        return "connected-special-among-many", Fraction(num, den), 1
    if r == 1:
        lam = ordered[0]
        base = k_float - lam
        q3 = rat((k_float - lam_plus) / base).denominator
        q4 = rat((k_float - lam_minus) / base).denominator
        return "disconnected-single", Fraction(lcm_all([q3, q4])), 1
    if special and r == 2:
        lam = next(v for v in ordered if not _close(v, lam_minus))
        base = k_float - lam
        q2 = rat((k_float - lam_minus) / base).denominator
        q5 = rat((k_float - lam_plus) / base).denominator
        return "disconnected-pair-special", Fraction(lcm_all([q2, q5]), q2), 1
    if not special:
        lam1, lam2 = ordered[0], ordered[1]
        base = lam1 - lam2
        qs = [rat((lam1 - l) / base).denominator for l in ordered[2:]]
        qs.append(rat((lam1 - k_float) / base).denominator)
        q = lcm_all(qs)
        q_lm = rat((lam1 - lam_minus) / base).denominator
        q_lp = rat((lam1 - lam_plus) / base).denominator
        return "disconnected-general", Fraction(lcm_all([q, q_lm, q_lp]), q), 1
    lam1 = ordered[0]
    base = lam1 - k_float
    qs = [rat((lam1 - l) / base).denominator for l in ordered[1:]]
    q = lcm_all(qs)
    q_lp = rat((lam1 - lam_plus) / base).denominator
    return "disconnected-special-among-many", Fraction(lcm_all(qs + [q_lp]), q), 1


def join_period_ratio(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    matrix: str = "laplacian",
    side: str = "left",
) -> JoinPeriodRatio:
    """Ratio of the join vertex period to the part vertex period.

    The ratio is produced twice: once by the closed-form case formulas and
    once from the exact eigenvalue lattices of both walks. The two must
    agree exactly or an InconsistencyError is raised.
    """
    if side == "right":
        return join_period_ratio(y, x, u, matrix=matrix, side="left")
    if side != "left":
        raise ValueError(f"unknown side {side!r}")
    params = join_params(x, y, matrix)
    m, n = params.m, params.n
    if not 0 <= u < x.order:
        raise ValueError("vertex out of range for the part")
    decomp = spectrum(x, matrix)
    support = eigenvalue_support(decomp, u)
    connected = is_connected(x)
    distinguished = 0.0 if matrix == "laplacian" else float(params.k)  # type: ignore[arg-type]
    others = [v for v in support if not _close(v, distinguished)]
    if len(others) == len(support):
        raise InconsistencyError(
            "the distinguished eigenvalue is missing from the vertex support"
        )
    if not others:
        raise PreconditionError(
            "the vertex support is a single eigenvalue, so no period ratio is defined"
        )
    per_x = _exact_min_period(_merge_close(support))
    per_j = _exact_min_period(join_support(x, y, u, matrix=matrix))
    if per_x is None:
        raise PreconditionError("the part walk is not periodic at this vertex")
    if per_j is None:
        raise PreconditionError("the join walk is not periodic at this vertex")
    (mx, dx), (mj, dj) = per_x, per_j
    s0, f0 = squarefree_part(dx * dj)
    ratio = mj / mx * Fraction(f0 * s0, dj)
    divisor = s0
    if matrix == "laplacian":
        fracs = [reconstruct_rational(v) for v in others]
        if any(f is None for f in fracs):
            raise InconsistencyError("a periodic Laplacian support must be rational")
        case, formula = _laplacian_ratio_formula(fracs, m, n, connected)
        f_div = 1
    else:
        kf = reconstruct_rational(float(params.k))  # type: ignore[arg-type]
        lf = reconstruct_rational(float(params.ell))  # type: ignore[arg-type]
        if kf is None or lf is None:
            raise PreconditionError(
                "the closed-form period analysis needs rational regular degrees"
            )
        case, formula, f_div = _adjacency_ratio_formula(
            others,
            [reconstruct_rational(v) for v in others],
            dx > 1,
            kf,
            lf,
            m,
            n,
            connected,
            params.lam_plus,
            params.lam_minus,
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
    alpha: int | None
    reason: str | None


def _evaluate_pattern(partition: SupportPartition) -> _PatternOutcome:
    """Transfer test on a sign partition: valuation pattern plus the time.

    Crossing differences must share one dyadic valuation, strictly below
    the valuation of every same-sign difference; integer spectra and shared
    quadratic families both reduce to integer coordinates for this.
    """
    if not partition.minus:
        return _PatternOutcome(
            False, None, None, None, None, "the sign partition has no flipping eigenvalues"
        )
    values = list(partition.plus) + list(partition.minus)
    quads = _classify_differences(values)
    if quads is None:
        return _PatternOutcome(
            False,
            None,
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
            False, klass, delta, None, None,
            "crossing differences take more than one dyadic valuation",
        )
    alpha = cross.pop()
    for i in range(n_plus):
        for j in range(i + 1, n_plus):
            if nu2(plus_c[i] - plus_c[j]) <= alpha:
                return _PatternOutcome(
                    False, klass, delta, None, alpha,
                    "a same-sign difference is not dyadically above the crossings",
                )
    g = gcd_all([plus_c[0] - c for c in coords if c != plus_c[0]])
    return _PatternOutcome(True, klass, delta, SymbolicTime(1, g, delta), alpha, None)


def pst_certificate(
    decomp: SpectralDecomposition, u: int, v: int, tol: float = SUPPORT_TOL
) -> PSTCertificate:
    """Transfer certificate for a vertex pair of a decomposed matrix.

    A positive verdict is confirmed on the walk itself at the certified
    time; disagreement raises InconsistencyError.
    """
    partition = strong_cospectral(decomp, u, v, tol)
    if partition is None:
        return PSTCertificate(
            False, u, v, strong_cospectral=False,
            reason="the vertices are not strongly cospectral",
        )
    outcome = _evaluate_pattern(partition)
    cert = PSTCertificate(
        outcome.ok,
        u,
        v,
        strong_cospectral=True,
        partition=partition,
        eigenvalue_class=outcome.eigenvalue_class,
        delta=outcome.delta,
        time=outcome.time if outcome.ok else None,
        reason=None if outcome.ok else outcome.reason,
    )
    if outcome.ok:
        mag = float(abs(transition_entries(decomp, u, v, [outcome.time.value])[0]))
        if mag < 1 - 1e-6:
            raise InconsistencyError(
                f"certified transfer time {outcome.time.value} only reaches magnitude {mag}"
            )
        cert.confirmation = mag
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


def _join_pst_laplacian(
    x: WeightedGraph, y: WeightedGraph, u: int, v: int, m: int, n: int
) -> PSTCertificate:
    details: dict = {}
    part_decomp = spectrum(x, "laplacian")
    is_o2 = x.order == 2 and not x.edges
    verdict = False
    branch = None
    reason = None
    if is_o2:
        branch = "isolated-pair"
        verdict = n % 4 == 2
        if not verdict:
            reason = "the cone size is not 2 modulo 4"
    else:
        part_sc = strong_cospectral(part_decomp, u, v)
        if part_sc is None:
            branch = "not-cospectral"
            reason = "the pair is not strongly cospectral within the part"
        elif _contains(part_sc.minus, float(m)):
            branch = "order-collision"
            reason = "the part order lands on a sign-flipping eigenvalue"
        else:
            ints_plus = _as_int_list(part_sc.plus)
            ints_minus = _as_int_list(part_sc.minus)
            if ints_plus is None or ints_minus is None:
                branch = "non-integer-support"
                reason = "the part support is not integral"
            elif not ints_minus:
                branch = "trivial-partition"
                reason = "the sign partition has no flipping eigenvalues"
            else:
                lam_pool = sorted({l for l in ints_plus if l != 0} | {m})
                if is_connected(x):
                    ok_a = _tree_dominant_plus(lam_pool, ints_minus, n)
                    ok_b = _tree_dominant_minus(lam_pool, ints_minus, n)
                    ok_c = _tree_balanced(lam_pool, ints_minus, n)
                    verdict = ok_a or ok_b or ok_c
                    branch = (
                        "dominant-plus" if ok_a
                        else "dominant-minus" if ok_b
                        else "balanced-shifted" if ok_c
                        else "no-valuation-pattern"
                    )
                else:
                    verdict = _tree_dominant_plus(lam_pool, ints_minus, n)
                    branch = (
                        "dominant-plus-disconnected" if verdict else "no-valuation-pattern"
                    )
                if not verdict and reason is None:
                    reason = "no dyadic valuation pattern matches the support"
    jpart = join_strong_cospectral(x, y, u, v, matrix="laplacian")
    outcome = _evaluate_pattern(jpart) if jpart is not None else None
    generic_ok = bool(outcome and outcome.ok)
    if generic_ok != verdict:
        raise InconsistencyError(
            f"the transfer tree branch {branch!r} says {verdict} but the join "
            f"support pattern says {generic_ok}"
        )
    if (m + n) % 2 == 1:
        details["parity_note"] = "an odd join order rules out transfer for every pair"
        if verdict:
            raise InconsistencyError("transfer certified despite an odd join order")
    details["branch"] = branch
    time = outcome.time if verdict else None
    if verdict:
        ivals = _as_int_list(jpart.plus + jpart.minus)
        if ivals is None:
            raise InconsistencyError("a certified Laplacian join support must be integral")
        g = gcd_all(ivals)
        if SymbolicTime(1, g, 1) != time:
            raise InconsistencyError(
                "the support gcd time disagrees with the pattern time"
            )
    return PSTCertificate(
        verdict,
        u,
        v,
        matrix="laplacian",
        strong_cospectral=jpart is not None,
        partition=jpart,
        eigenvalue_class=outcome.eigenvalue_class if outcome else None,
        delta=outcome.delta if outcome else None,
        time=time,
        reason=None if verdict else reason,
        details=details,
    )


def _join_pst_adjacency(
    x: WeightedGraph, y: WeightedGraph, u: int, v: int, params
) -> PSTCertificate:
    m, n = params.m, params.n
    k_int = _as_int(float(params.k))
    l_int = _as_int(float(params.ell))
    if k_int is None or l_int is None:
        raise PreconditionError("adjacency transfer analysis needs integer regular degrees")
    d_int = (k_int - l_int) ** 2 + 4 * m * n
    root = math.isqrt(d_int)
    d_square = root * root == d_int
    details: dict = {"discriminant": d_int, "discriminant_square": d_square}
    is_o2k = x.order == 2 and not x.edges
    gate = True
    branch = None
    reason = None
    if is_o2k:
        branch = "isolated-pair"
    else:
        part_sc = strong_cospectral(spectrum(x, "adjacency"), u, v)
        if part_sc is None:
            gate = False
            branch = "not-cospectral"
            reason = "the pair is not strongly cospectral within the part"
        elif _contains(part_sc.minus, params.lam_minus):
            gate = False
            branch = "eigenvalue-collision"
            reason = "a fresh join eigenvalue lands on a sign-flipping eigenvalue"
    jpart = (
        join_strong_cospectral(x, y, u, v, matrix="adjacency") if gate else None
    )
    outcome = _evaluate_pattern(jpart) if jpart is not None else None
    verdict = bool(outcome and outcome.ok)
    if gate and branch is None:
        branch = (
            "integer-class" if outcome and outcome.eigenvalue_class == "integer"
            else "quadratic-class" if outcome and outcome.eigenvalue_class == "quadratic"
            else "no-valuation-pattern"
        )
    if not verdict and reason is None:
        reason = outcome.reason if outcome else "the pair is not strongly cospectral in the join"
    if verdict and outcome.eigenvalue_class == "integer" and not d_square:
        raise InconsistencyError(
            "integral transfer certified although the join discriminant is not square"
        )
    if (k_int + l_int) % 2 == 1:
        details["parity_note"] = "an odd degree sum rules out transfer for every pair"
        if verdict:
            raise InconsistencyError("transfer certified despite an odd degree sum")
    details["branch"] = branch
    return PSTCertificate(
        verdict,
        u,
        v,
        matrix="adjacency",
        strong_cospectral=jpart is not None,
        partition=jpart,
        eigenvalue_class=outcome.eigenvalue_class if outcome else None,
        delta=outcome.delta if outcome else None,
        time=outcome.time if verdict else None,
        reason=None if verdict else reason,
        details=details,
    )


def _confirm_transfer(
    tree: JoinTree,
    u: int,
    v: int,
    verify: str,
    cert: PSTCertificate,
    what: str,
) -> PSTCertificate:
    """Check cert on the walk of the join that tree describes; return it confirmed.

    u and v index the tree. With verify="numeric" or "full", a positive
    verdict must reach |exp(itM)[v, u]| >= 1 - 1e-6 at the certified time,
    computed by krylov_entry on the tree; the magnitude becomes the
    confirmation and the route, Krylov dimension and error bound go into
    details. verify="full" also diagonalizes the built graph and compares
    the verdict, the time and the sign partition. Any disagreement raises
    InconsistencyError.
    """
    if cert.pst and verify in ("numeric", "full"):
        entry = krylov_entry(tree, u, v, cert.time.value, cert.matrix)
        mag = abs(entry.value)
        if mag < 1 - 1e-6:
            raise InconsistencyError(
                f"the certified {what} transfer only reaches magnitude {mag}"
            )
        cert = replace(
            cert,
            confirmation=mag,
            details={
                **cert.details,
                "confirmation_route": "lanczos",
                "krylov_dimension": entry.dimension,
                "krylov_bound": entry.bound,
            },
        )
    if verify == "full":
        full = pst_certificate(spectrum(tree.build(), cert.matrix), u, v)
        if full.pst != cert.pst:
            raise InconsistencyError(
                f"the closed-form {what} verdict disagrees with the diagonalized graph"
            )
        if cert.pst and abs(full.time.value - cert.time.value) > 1e-9:
            raise InconsistencyError(f"{what} transfer times disagree between the two routes")
        if cert.pst and not (
            _sets_match(full.partition.plus, cert.partition.plus)
            and _sets_match(full.partition.minus, cert.partition.minus)
        ):
            raise InconsistencyError(f"{what} sign partitions disagree between the two routes")
    return cert


def join_pst(
    x: WeightedGraph,
    y: WeightedGraph,
    u: int,
    v: int,
    matrix: str = "laplacian",
    verify: str = "numeric",
) -> PSTCertificate:
    """Transfer certificate for a join pair, from the parts alone.

    verify="numeric" (default) confirms positive verdicts on an
    independently computed walk of the joined graph; verify="full" also
    diagonalizes the join and compares the whole certificate; verify="none"
    skips both.
    """
    if verify not in ("numeric", "full", "none"):
        raise ValueError(f"unknown verify mode {verify!r}")
    params = join_params(x, y, matrix)
    m, n = params.m, params.n
    total = m + n
    if u == v:
        raise ValueError("transfer concerns two distinct vertices")
    if not (0 <= u < total and 0 <= v < total):
        raise ValueError("vertex out of range for the join")
    if (u < m) != (v < m):
        partition = join_strong_cospectral(x, y, u, v, matrix=matrix)
        if partition is None:
            return PSTCertificate(
                False,
                u,
                v,
                matrix=matrix,
                strong_cospectral=False,
                reason="vertices on opposite sides of a join are never strongly cospectral",
            )
        # single-vertex parts: the join is one weighted edge, the only
        # cross pair that is strongly cospectral; score its pattern directly
        outcome = _evaluate_pattern(partition)
        cert = PSTCertificate(
            outcome.ok,
            u,
            v,
            matrix=matrix,
            strong_cospectral=True,
            partition=partition,
            eigenvalue_class=outcome.eigenvalue_class,
            delta=outcome.delta,
            time=outcome.time if outcome.ok else None,
            reason=outcome.reason,
            details={"branch": "single-edge"},
        )
    elif u >= m:
        inner = join_pst(y, x, u - m, v - m, matrix=matrix, verify=verify)
        return replace(inner, u=u, v=v, details={**inner.details, "side": "right"})
    elif matrix == "laplacian":
        cert = _join_pst_laplacian(x, y, u, v, m, n)
    else:
        cert = _join_pst_adjacency(x, y, u, v, params)
    return _confirm_transfer(JoinTree(Connective.JOIN, (x, y)), u, v, verify, cert, "join")


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
    verdict is cross-checked against the join analysis.
    """
    params = join_params(x, y, matrix)
    m, n = params.m, params.n
    if u == v or not (0 <= u < m and 0 <= v < m):
        raise ValueError("the pair must be two distinct part vertices")
    part_decomp = spectrum(x, matrix)
    base = pst_certificate(part_decomp, u, v)
    if not base.pst:
        raise PreconditionError("the pair has no transfer within the part")
    details: dict = {
        "part_time": [base.time.pi_numerator, base.time.pi_denominator, base.time.sqrt_divisor]
    }
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
        return PSTCertificate(
            verdict,
            u,
            v,
            matrix=matrix,
            strong_cospectral=check.strong_cospectral,
            partition=check.partition,
            eigenvalue_class=check.eigenvalue_class,
            delta=check.delta,
            time=check.time,
            confirmation=check.confirmation,
            reason=reason,
            details=details,
        )
    if pad is not None:
        raise PreconditionError("padding is a Laplacian construction")
    k_int = _as_int(float(params.k))
    l_int = _as_int(float(params.ell))
    if k_int is None or l_int is None:
        raise PreconditionError("adjacency preservation needs integer regular degrees")
    minus_i = _as_int_list(base.partition.minus)
    if minus_i is None:
        raise PreconditionError("adjacency preservation needs an integral part support")
    d_int = (k_int - l_int) ** 2 + 4 * m * n
    root = math.isqrt(d_int)
    if root * root != d_int:
        verdict = False
        reason = "the join discriminant is not a perfect square"
    else:
        s = (root - k_int + l_int) // 2
        details["fresh_shift"] = s
        details["fresh_eigenvalues"] = [k_int + s, l_int - s]
        if (l_int - s) in minus_i:
            verdict = False
            reason = "the smaller fresh eigenvalue collides with a flipping eigenvalue"
        else:
            verdict = all(
                _nu2_inf(s) > nu2(k_int - mu) and _nu2_inf(l_int - k_int) > nu2(k_int - mu)
                for mu in minus_i
            )
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
    return PSTCertificate(
        verdict,
        u,
        v,
        matrix=matrix,
        strong_cospectral=check.strong_cospectral,
        partition=check.partition,
        eigenvalue_class=check.eigenvalue_class,
        delta=check.delta,
        time=check.time,
        confirmation=check.confirmation,
        reason=reason,
        details=details,
    )


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
    part_decomp = spectrum(x, matrix)
    part_cert = pst_certificate(part_decomp, u, v)
    induced = jcert.pst and not part_cert.pst
    mechanism = "general"
    details: dict = {}
    is_isolated_pair = x.order == 2 and not x.edges
    if matrix == "laplacian":
        if is_isolated_pair:
            mechanism = "isolated-pair-cone"
            identity = n % 4 == 2
            if identity != jcert.pst or part_cert.pst:
                raise InconsistencyError("the isolated-pair rule disagrees with the join analysis")
        else:
            part_sc = strong_cospectral(part_decomp, u, v)
            ints = None
            if part_sc is not None:
                plus_i = _as_int_list(part_sc.plus)
                minus_i = _as_int_list(part_sc.minus)
                if plus_i is not None and minus_i is not None:
                    ints = (plus_i, minus_i)
            if ints is not None:
                plus_i, minus_i = ints
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
                    if identity != jcert.pst:
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
    else:
        k_int = _as_int(float(params.k))
        l_int = _as_int(float(params.ell))
        if is_isolated_pair and k_int is not None and l_int is not None:
            mechanism = "isolated-pair-cone"
            d_int = (k_int - l_int) ** 2 + 4 * m * n
            root = math.isqrt(d_int)
            if root * root == d_int:
                s_plus = (root - k_int + l_int) // 2
                s_minus = -(root + k_int - l_int) // 2
                identity = nu2(s_plus) == nu2(s_minus)
                if identity != jcert.pst:
                    raise InconsistencyError(
                        "the isolated-pair rule disagrees with the join analysis"
                    )
            else:
                details["quadratic_cone"] = True
        elif not is_isolated_pair and k_int is not None:
            part_sc = strong_cospectral(part_decomp, u, v)
            if part_sc is not None and is_connected(x):
                plus_i = _as_int_list(part_sc.plus)
                minus_i = _as_int_list(part_sc.minus)
                if plus_i is not None and minus_i is not None and minus_i:
                    without_k = SupportPartition(
                        [l for l in part_sc.plus if not _close(l, float(k_int))],
                        list(part_sc.minus),
                    )
                    with_k = _evaluate_pattern(part_sc)
                    reduced = (
                        _evaluate_pattern(without_k) if without_k.plus else None
                    )
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
    verify: str = "numeric",
) -> PSTCertificate:
    """Transfer between two first-copy vertices in the r-fold self-join.

    The verdict comes from the recorded case conditions on the part's
    support, is replayed through the generic pattern on the transformed
    sign partition, and positives are confirmed on the self-join's walk.
    """
    if verify not in ("numeric", "full", "none"):
        raise ValueError(f"unknown verify mode {verify!r}")
    r = int(r)
    if r < 2:
        raise ValueError("a self-join needs at least two copies")
    m = x.order
    if u == v or not (0 <= u < m and 0 <= v < m):
        raise ValueError("the pair must be two distinct part vertices")
    isolated_pair = x.order == 2 and not x.edges
    details: dict = {"copies": r}
    # the sign partition comes from the join of x with the other r - 1
    # copies, a graph of order (r - 1)m and, for a k-regular x, degree k + (r - 2)m
    if matrix == "laplacian":
        if x.loops:
            raise PreconditionError("Laplacian self-join analysis requires a simple part")
        params = JoinParams(m, (r - 1) * m)
    elif matrix == "adjacency":
        k_val = is_regular(x)
        if k_val is None:
            raise PreconditionError("adjacency self-join analysis requires a regular part")
        k_int = _as_int(float(k_val))
        if k_int is None:
            raise PreconditionError("adjacency self-join analysis needs an integer degree")
        params = JoinParams(m, (r - 1) * m, k_val, k_val + (r - 2) * m)
    else:
        raise ValueError(f"unknown matrix kind {matrix!r}")
    part_decomp = spectrum(x, matrix)
    verdict = False
    branch = None
    reason = None
    if isolated_pair:
        branch = "isolated-pair"
        verdict = r % 2 == 0
        if not verdict:
            reason = "an odd number of copies leaves the crossing valuations unequal"
    else:
        part_sc = strong_cospectral(part_decomp, u, v)
        support = eigenvalue_support(part_decomp, u)
        ints = _as_int_list(support)
        if matrix == "laplacian":
            excluded = part_sc is not None and _contains(part_sc.minus, float(m))
        else:
            excluded = part_sc is not None and _contains(part_sc.minus, float(k_int - m))
        if part_sc is None:
            branch = "not-cospectral"
            reason = "the pair is not strongly cospectral within the part"
        elif excluded:
            branch = "eigenvalue-collision"
            reason = "a fresh self-join eigenvalue lands on a sign-flipping eigenvalue"
        elif ints is None:
            branch = "non-integer-support"
            reason = "the part support is not integral"
        else:
            plus_i = _as_int_list(part_sc.plus)
            minus_i = _as_int_list(part_sc.minus)
            if not minus_i:
                branch = "trivial-partition"
                reason = "the sign partition has no flipping eigenvalues"
            elif matrix == "laplacian":
                lam_pool = sorted({l for l in plus_i if l != 0} | {m})
                shift = (r - 1) * m
                ok_a = _tree_dominant_plus(lam_pool, minus_i, m)
                if is_connected(x):
                    ok_b = (
                        r % 2 == 0
                        and len({nu2(l) for l in lam_pool}) == 1
                        and all(nu2(mu) > nu2(lam_pool[0]) for mu in minus_i)
                    )
                    beta = nu2(m)
                    ok_c = (
                        r % 2 == 0
                        and all(nu2(t) == beta for t in lam_pool + minus_i)
                        and len({_nu2_inf((mu + shift) >> beta) for mu in minus_i}) == 1
                        and all(
                            _nu2_inf((lam + shift) >> beta)
                            > _nu2_inf((minus_i[0] + shift) >> beta)
                            for lam in lam_pool
                        )
                    )
                    verdict = ok_a or ok_b or ok_c
                    branch = (
                        "dominant-plus" if ok_a
                        else "dominant-minus" if ok_b
                        else "balanced-shifted" if ok_c
                        else "no-valuation-pattern"
                    )
                else:
                    verdict = ok_a
                    branch = "dominant-plus-disconnected" if ok_a else "no-valuation-pattern"
            else:
                lams = [l for l in plus_i if l != k_int]
                crossings = [k_int - mu for mu in minus_i]
                ok_a = (
                    len({nu2(c) for c in crossings}) == 1
                    and nu2(m) > nu2(crossings[0])
                    and all(nu2(k_int - l) > nu2(crossings[0]) for l in lams)
                )
                if is_connected(x):
                    cs = {nu2(k_int - l) for l in lams} | {nu2(m)}
                    ok_b = (
                        r % 2 == 0
                        and len(cs) == 1
                        and all(nu2(c) > cs.pop() for c in crossings)
                    )
                    beta = nu2(m)
                    ok_c = (
                        all(nu2(k_int - t) == beta for t in lams + minus_i)
                        and len({_nu2_inf((k_int - m - mu) >> beta) for mu in minus_i}) == 1
                        and all(
                            _nu2_inf((k_int - m - l) >> beta)
                            > _nu2_inf((k_int - m - minus_i[0]) >> beta)
                            for l in lams
                        )
                        and nu2(r) > _nu2_inf((k_int - m - minus_i[0]) >> beta)
                    )
                    verdict = ok_a or ok_b or ok_c
                    branch = (
                        "dominant-order" if ok_a
                        else "dominant-crossing" if ok_b
                        else "balanced-shifted" if ok_c
                        else "no-valuation-pattern"
                    )
                else:
                    verdict = ok_a
                    branch = "dominant-order-disconnected" if ok_a else "no-valuation-pattern"
        if not verdict and reason is None:
            reason = "no dyadic valuation pattern matches the support"
    partition = carry_join(
        None if isolated_pair else strong_cospectral(part_decomp, u, v),
        params, matrix, is_connected(x), isolated_pair,
    )
    outcome = _evaluate_pattern(partition) if partition is not None else None
    generic_ok = bool(outcome and outcome.ok)
    if generic_ok != verdict:
        raise InconsistencyError(
            f"the self-join branch {branch!r} says {verdict} but the support pattern "
            f"says {generic_ok}"
        )
    details["branch"] = branch
    time = outcome.time if verdict else None
    if verdict and not isolated_pair:
        support_i = _as_int_list(eigenvalue_support(part_decomp, u))
        if matrix == "laplacian":
            if is_connected(x):
                pool = [r * m] + [l - m for l in support_i if l != 0]
            else:
                pool = [m] + [l for l in support_i if l != 0]
        else:
            if is_connected(x):
                pool = [r * m] + [k_int - m - l for l in support_i if l != k_int]
            else:
                pool = [m] + [k_int - l for l in support_i if l != k_int]
        g = gcd_all([abs(t) for t in pool])
        if SymbolicTime(1, g, 1) != time:
            raise InconsistencyError("the self-join time disagrees with the pattern time")
    cert = PSTCertificate(
        verdict,
        u,
        v,
        matrix=matrix,
        strong_cospectral=partition is not None,
        partition=partition,
        eigenvalue_class=outcome.eigenvalue_class if outcome else None,
        delta=outcome.delta if outcome else None,
        time=time,
        reason=None if verdict else reason,
        details=details,
    )
    return _confirm_transfer(JoinTree(Connective.JOIN, (x,) * r), u, v, verify, cert, "self-join")


# ---------------------------------------------------------------------------
# iterated joins
# ---------------------------------------------------------------------------


def iterated_join_sign_partition(
    spec: IteratedJoinSpec, j: int, u: int, v: int, tol: float = SUPPORT_TOL
) -> SupportPartition | None:
    """Sign partition of a same-part pair carried through the build stages.

    Each union leaves the partition alone and marks the pair's side
    disconnected; each join shifts it and may destroy it when the side's
    order lands on a flipping eigenvalue. Laplacian only.
    """
    parts = spec.parts
    if not 1 <= j <= len(parts):
        raise ValueError("part index out of range")
    part = parts[j - 1][0]
    if u == v or not (0 <= u < part.order and 0 <= v < part.order):
        raise ValueError("the pair must be two distinct vertices of the part")
    for graph, _ in parts:
        if graph.loops:
            raise PreconditionError("Laplacian join analysis requires simple parts")
    isolated_pair = part.order == 2 and not part.edges
    own = None if isolated_pair else strong_cospectral(spectrum(part, "laplacian"), u, v, tol)
    return carry_through_plan(spec, j, own, isolated_pair, tol)


def iterated_join_analysis(
    spec: IteratedJoinSpec,
    j: int,
    u: int,
    v: int,
    matrix: str = "laplacian",
    verify: str = "numeric",
) -> PSTCertificate:
    """Transfer certificate for a same-part pair of an iterated join."""
    if matrix != "laplacian":
        raise PreconditionError("iterated join analysis is provided for the Laplacian only")
    if verify not in ("numeric", "full", "none"):
        raise ValueError(f"unknown verify mode {verify!r}")
    partition = iterated_join_sign_partition(spec, j, u, v)
    details: dict = {"part": j, "orders": spec.orders}
    if partition is None:
        return PSTCertificate(
            False,
            u,
            v,
            matrix=matrix,
            strong_cospectral=False,
            reason="the pair is not strongly cospectral in the built graph",
            details=details,
        )
    outcome = _evaluate_pattern(partition)
    verdict = outcome.ok
    part = spec.parts[j - 1][0]
    sizes = spec.orders
    threshold_shape = all(
        not g.edges and not g.loops for g, _ in spec.parts
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
    cert = PSTCertificate(
        verdict,
        u,
        v,
        matrix=matrix,
        strong_cospectral=True,
        partition=partition,
        eigenvalue_class=outcome.eigenvalue_class,
        delta=outcome.delta,
        time=outcome.time if verdict else None,
        reason=None if verdict else outcome.reason,
        details=details,
    )
    return _confirm_transfer(
        iterated_tree(spec), iterated_vertex(spec, j, u), iterated_vertex(spec, j, v),
        verify, cert, "iterated",
    )


def _empty_spec(sizes, empties: dict[int, WeightedGraph]) -> IteratedJoinSpec:
    count = len(sizes)
    parts: list[tuple[WeightedGraph, Connective | None]] = [(empties[sizes[0]], None)]
    for idx, size in enumerate(sizes[1:], start=2):
        conn = Connective.JOIN if idx % 2 == count % 2 else Connective.UNION
        parts.append((empties[size], conn))
    return IteratedJoinSpec(parts)


def threshold_transfer_search(max_parts: int = 4, max_size: int = 6) -> list[dict]:
    """Scan alternating stacks of empty graphs for first-part transfer pairs.

    The pair under test is one representative pair of the first part
    (vertices of an empty part are interchangeable), so the sweep probes
    the congruence pattern on the part sizes directly. The empty parts are
    built once, so each is decomposed once per search. Hits are returned in
    deterministic enumeration order.
    """
    empties = {size: family("O", size) for size in range(1, max_size + 1)}
    all_sizes = [
        sizes
        for count in range(2, max_parts + 1)
        for sizes in itertools.product(range(1, max_size + 1), repeat=count)
        if sizes[0] >= 2
    ]

    def scan(sizes) -> list[dict]:
        cert = iterated_join_analysis(_empty_spec(sizes, empties), 1, 0, 1)
        if not cert.pst:
            return []
        return [
            {
                "sizes": list(sizes),
                "part": 1,
                "time_value": cert.time.value,
                "time": [
                    cert.time.pi_numerator,
                    cert.time.pi_denominator,
                    cert.time.sqrt_divisor,
                ],
            }
        ]

    return [hit for hits in map(scan, all_sizes) for hit in hits]
