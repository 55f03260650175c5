import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qwjoin import (
    classify_eigenvalues,
    nearest_integer,
    nu2,
    reconstruct_rational,
    squarefree_part,
)
from qwjoin.arith import INT64_MAX, QuadraticEigenvalue, gcd_all, lcm_all
from qwjoin.errors import IntegerOverflowError


def test_nu2_basics():
    assert nu2(1) == 0
    assert nu2(2) == 1
    assert nu2(12) == 2
    assert nu2(-8) == 3
    assert nu2(96) == 5
    with pytest.raises(ValueError):
        nu2(0)


@given(st.integers(min_value=-10**9, max_value=10**9).filter(lambda n: n != 0),
       st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
def test_nu2_is_additive(a, b):
    assert nu2(a * b) == nu2(a) + nu2(b)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=-999, max_value=999))
def test_nu2_reads_off_the_power(k, odd_seed):
    odd = 2 * odd_seed + 1
    assert nu2((2 ** k) * odd) == k


def brute_squarefree(d):
    # strip square factors by trial division
    s = 1
    f = 1
    p = 2
    while p * p <= d:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        f *= p ** (e // 2)
        if e % 2:
            s *= p
        p += 1
    return s * d, f


def test_squarefree_part_exhaustive_small():
    for d in range(1, 20000):
        s, f = squarefree_part(d)
        assert s * f * f == d
        assert (s, f) == brute_squarefree(d)


@given(st.integers(min_value=1, max_value=10**6))
def test_squarefree_part_postcondition(d):
    s, f = squarefree_part(d)
    assert s * f * f == d
    # s itself has no square divisor
    assert squarefree_part(s) == (s, 1)


# two 20-bit primes
P20, Q20 = 1048507, 1048583


@pytest.mark.parametrize(
    "d, expected",
    [
        (2**61 - 1, (2**61 - 1, 1)),  # a 61-bit (Mersenne) prime
        (P20 * Q20**2, (P20, Q20)),
        (P20**2 * Q20, (Q20, P20)),
        (3600004800001601, (3600004800001601, 1)),  # a 52-bit prime
    ],
    ids=["prime61", "p*q^2", "p^2*q", "prime52"],
)
def test_squarefree_part_is_fast_on_large_inputs(d, expected):
    started = time.perf_counter()
    assert squarefree_part(d) == expected
    assert time.perf_counter() - started < 0.1


def test_gcd_lcm_folds():
    assert gcd_all([12, 18, 30]) == 6
    assert gcd_all([-4, 6]) == 2
    assert lcm_all([4, 6, 10]) == 60
    with pytest.raises(IntegerOverflowError):
        lcm_all([2 ** 40, 2 ** 40 + 1, 2 ** 40 + 3])


def test_reconstruct_rational_round_trip():
    assert reconstruct_rational(3 / 7) == Fraction(3, 7)
    assert reconstruct_rational(-11 / 3) == Fraction(-11, 3)
    assert reconstruct_rational(float(Fraction(355, 113))) == Fraction(355, 113)
    assert reconstruct_rational(2.0) == Fraction(2)


def test_reconstruct_rational_snaps_to_nearby_fractions():
    # anything within tolerance of an in-cap fraction reports that fraction,
    # including targets whose true denominator sits past the cap
    assert reconstruct_rational(0.5 + 5e-8) == Fraction(1, 2)
    assert reconstruct_rational(1.0 / 1048577.0) == Fraction(1, 1000000)


def test_reconstruct_rational_irrational_hazard():
    # an irrational still yields a convergent within tolerance; callers that
    # care about true rationality must gate on the denominator themselves
    fr = reconstruct_rational(math.sqrt(2))
    assert fr is not None
    assert fr.denominator > 10 ** 4
    assert abs(float(fr) - math.sqrt(2)) <= 1e-7


def fraction_route(x, tol):
    """The integer test spelled out with Fraction.limit_denominator."""
    if not math.isfinite(x):
        return None
    if abs(x) > INT64_MAX:
        raise IntegerOverflowError(f"value {x} exceeds the 64-bit range")
    candidate = Fraction(x).limit_denominator(10**6)
    if candidate.denominator == 1 and abs(x - candidate) <= tol:
        return int(candidate)
    return None


# classify_eigenvalues passes tol * max(1, |y|), so large tolerances occur
tolerances = st.floats(min_value=-9, max_value=3).map(lambda e: 10.0**e)


@st.composite
def near_half_step(draw):
    """r +- (0.9 .. 1.1) / (2N), N = 10**6: both sides of the band where 2*d*N = 1."""
    r = draw(st.integers(min_value=-2**20, max_value=2**20))
    offset = draw(st.floats(min_value=0.9, max_value=1.1)) / (2 * 10**6)
    return r + draw(st.sampled_from([-1, 1])) * offset


@given(
    st.one_of(
        st.integers(min_value=-2**62, max_value=2**62).map(float),
        near_half_step(),
        st.floats(min_value=-2.0**62, max_value=2.0**62),
    ),
    tolerances,
)
def test_nearest_integer_matches_the_fraction_route(x, tol):
    assert nearest_integer(x, tol) == fraction_route(x, tol)


@given(st.sampled_from([math.nan, math.inf, -math.inf]), tolerances)
def test_nearest_integer_non_finite_is_none(x, tol):
    assert nearest_integer(x, tol) is None


@given(st.floats(min_value=2.0**63, max_value=1e300), st.sampled_from([-1, 1]), tolerances)
def test_nearest_integer_overflow(magnitude, sign, tol):
    with pytest.raises(IntegerOverflowError, match="64-bit range"):
        fraction_route(sign * magnitude, tol)
    with pytest.raises(IntegerOverflowError, match="64-bit range"):
        nearest_integer(sign * magnitude, tol)


def test_nearest_integer_input_checks():
    for tol in (0.0, -1e-7):
        with pytest.raises(ValueError):
            nearest_integer(1.0, tol)
    assert nearest_integer(3.0, math.nan) is None
    assert nearest_integer(-2.00000001) == -2
    assert nearest_integer(0.5) is None


@pytest.mark.xfail(strict=True, reason="an irrational eigenvalue is read as a half-integer")
def test_classify_large_quadratic_pair():
    # the computed adjacency eigenvalues (1 +- sqrt(D))/2 of a loop of weight
    # 1 joined by an edge of weight w = 3000007, D = 1 + 4 w^2 squarefree:
    # 3000007.50000004 is accepted as 6000015/2 (b = 0), because the
    # reconstruction tolerance and the final 1e-9 * |x| check both exceed its
    # distance 4e-8 from the half-integer, and the minimum period comes out
    # as 2*pi/sqrt(D - 1/2)
    D = 1 + 4 * 3000007**2
    assert squarefree_part(D) == (D, 1)
    quads = classify_eigenvalues([3000007.5000000414, -3000006.500000042])
    assert quads is not None
    assert [(q.a, q.b, q.delta) for q in quads] == [(1, 1, D), (1, -1, D)]


def test_classify_integer_family():
    quads = classify_eigenvalues([4.0, 2.0, 0.0])
    assert quads is not None
    assert all(q.delta == 1 and q.is_integer for q in quads)
    assert [q.as_integer() for q in quads] == [4, 2, 0]


def test_classify_quadratic_family_path_adjacency():
    # the 3-path adjacency spectrum: +-sqrt(2) and 0 share (0 + b sqrt(2))/2
    r2 = math.sqrt(2)
    quads = classify_eigenvalues([r2, 0.0, -r2])
    assert quads is not None
    assert [q.a for q in quads] == [0, 0, 0]
    assert [q.b for q in quads] == [2, 0, -2]
    assert quads[0].delta == 2


def test_classify_quadratic_family_with_shift():
    r6 = math.sqrt(6)
    quads = classify_eigenvalues([-1 + r6, -1 - r6, -1.0])
    assert quads is not None
    assert [q.a for q in quads] == [-2, -2, -2]
    assert [q.b for q in quads] == [2, -2, 0]
    assert quads[0].delta == 6


def test_classify_rejects_mixed_families():
    assert classify_eigenvalues([math.sqrt(2), math.sqrt(3)]) is None
    assert classify_eigenvalues([0.5, 1.5]) is None
    # 4-path Laplacian: 2 +- sqrt(2) together with 2 and 0 share no center
    vals = [2 + math.sqrt(2), 2.0, 2 - math.sqrt(2), 0.0]
    assert classify_eigenvalues(vals) is None


def test_quadratic_eigenvalue_value_and_integrality():
    q = QuadraticEigenvalue(-2, 2, 6)
    assert q.value == pytest.approx(-1 + math.sqrt(6))
    assert not q.is_integer
    with pytest.raises(ValueError):
        q.as_integer()
    w = QuadraticEigenvalue(6, 0, 6)
    assert w.is_integer and w.as_integer() == 3


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=6, unique=True))
def test_classify_recovers_integer_lists(ints):
    quads = classify_eigenvalues([float(v) for v in ints])
    assert quads is not None
    assert [q.as_integer() for q in quads] == ints
