"""Exact integer and quadratic-irrational helpers behind the spectral certificates.

Everything here is exact: inputs are Python ints (or floats that are
recognized as integers or rationals before use) and all arithmetic stays in
the 64-bit range or raises IntegerOverflowError. Floating point enters at two
boundaries: nearest_integer, which asks only whether a float is an integer,
and reconstruct_rational, which recovers a fraction. Both accept the same
values as integers. A list of floats is read as integers by one fused pass,
_integer_values, which applies nearest_integer's rules to each value in turn
and, for classify_eigenvalues, the gate; _as_int_list is its ungated form.
classify_eigenvalues also runs one floating-point test before its search,
which only rules families out, with a rounding bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import IntegerOverflowError

INT64_MAX = 2**63 - 1
# a float lies in the 64-bit range exactly when its magnitude is below 2**63,
# and twice its nearest integer exactly when its magnitude is below 2**62
_TWO63, _TWO62 = 2.0**63, 2.0**62


def _check64(value: int) -> int:
    if abs(value) > INT64_MAX:
        raise IntegerOverflowError(f"integer {value} exceeds the 64-bit range")
    return value


def nu2(a: int) -> int:
    """Exponent of 2 in a nonzero integer.

    Raises ValueError for 0, where the valuation is undefined; callers that
    can meet 0 must special-case it (a zero difference means a repeated
    eigenvalue, which the support construction already rules out).
    """
    a = int(a)
    if a == 0:
        raise ValueError("nu2 is undefined at 0")
    a = abs(a)
    return (a & -a).bit_length() - 1


# trial division covers every prime below this bound; a cofactor left over
# has only larger prime factors and goes to Miller-Rabin and Pollard rho
_TRIAL_BOUND = 1000


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)
# Miller-Rabin with the first twelve prime bases is deterministic below
# 3.3e24 (Sorenson and Webster, Math. Comp. 86, 2017), so below 2**64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an odd n > 37 below 2**64."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n that is not a perfect square.

    Brent's variant of Pollard's rho (BIT 20, 1980) on y -> y*y + c, with the
    differences multiplied in batches of 128 between gcds. c runs 1, 2, ...
    until a proper factor appears, so the result is deterministic.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _large_prime_factors(n: int) -> list[int]:
    """Prime factors, with multiplicity, of n >= 1 with none below _TRIAL_BOUND."""
    if n == 1:
        return []
    root = math.isqrt(n)
    if root * root == n:
        return 2 * _large_prime_factors(root)
    if _is_prime(n):
        return [n]
    p = _rho_factor(n)
    return _large_prime_factors(p) + _large_prime_factors(n // p)


def squarefree_part(d: int) -> tuple[int, int]:
    """Split d > 0 as d = s * f**2 with s squarefree. Returns (s, f).

    Trial division by the primes below _TRIAL_BOUND; a cofactor with no
    prime factor below the bound is factored by Miller-Rabin and Pollard
    rho, so a 63-bit d takes at most tens of milliseconds, not minutes.
    """
    d = int(d)
    if d == 1:  # the root divisor of every rational period
        return 1, 1
    if d <= 0:
        raise ValueError(f"squarefree_part requires a positive integer, got {d}")
    _check64(d)
    s, f = 1, 1
    remaining = d
    for p in _SMALL_PRIMES:
        if p * p > remaining:
            break
        if remaining % p == 0:
            exp = 0
            while remaining % p == 0:
                remaining //= p
                exp += 1
            f *= p ** (exp // 2)
            if exp % 2:
                s *= p
    else:
        for p, exp in Counter(_large_prime_factors(remaining)).items():
            f *= p ** (exp // 2)
            if exp % 2:
                s *= p
        remaining = 1
    s *= remaining
    _check64(s)
    _check64(f)
    return s, f


def _checked_float(x: float, tol: float) -> float | None:
    """x as a float after the reconstruction's input checks; None if not finite."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = float(x)
    if not math.isfinite(x):
        return None
    if abs(x) > INT64_MAX:
        raise IntegerOverflowError(f"value {x} exceeds the 64-bit range")
    return x


# the denominator bound under which nearest_integer agrees with
# reconstruct_rational's default, and the bound below which a denominator
# bound converts to a float exactly
_MAX_DENOMINATOR = 10**6
_EXACT_BOUND = 2**53


def _rational_pair(x: float, max_denominator: int = 10**6, tol: float = 1e-7) -> tuple[int, int] | None:
    """reconstruct_rational(x, max_denominator, tol) as (numerator, denominator)."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    x = _checked_float(x, tol)
    if x is None:
        return None
    r = round(x)
    gap = abs(x - r)
    # nearest_integer's test: r is then the closest fraction, and tol-close
    if gap <= tol and max_denominator <= _EXACT_BOUND and 2.0 * gap * max_denominator < 1.0:
        return r, 1
    n, d = num, den = x.as_integer_ratio()
    if den > max_denominator:  # the steps of Fraction.limit_denominator
        p0, q0, p1, q1 = 0, 1, 1, 0
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > max_denominator:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (max_denominator - q0) // q1
        b, c = p0 + k * p1, q0 + k * q1  # the semiconvergent; the convergent p1/q1 wins a tie
        num, den = (p1, q1) if abs(p1 * den - num * q1) * c <= abs(b * den - num * c) * q1 else (b, c)
    # what float - Fraction computes: x minus the correctly rounded num / den
    return (num, den) if abs(x - num / den) <= tol else None


def reconstruct_rational(
    x: float, max_denominator: int = 10**6, tol: float = 1e-7
) -> Fraction | None:
    """Best rational approximation of x, accepted only if it is tol-close.

    The candidate is Fraction(x).limit_denominator(max_denominator), found
    by its continued fraction and tie rule run in the ints of
    x.as_integer_ratio(); a Fraction is built only for an accepted reading.
    A value that passes nearest_integer's test (see there) is that integer,
    with no continued fraction run.
    Returns None when no fraction with denominator <= max_denominator lands
    within tol, so callers can distinguish "irrational as far as we can tell"
    from a genuine reconstruction.
    """
    pair = _rational_pair(x, max_denominator, tol)
    return None if pair is None else Fraction(*pair)


def nearest_integer(x: float, tol: float = 1e-7) -> int | None:
    """The integer reconstruct_rational(x, 10**6, tol) returns, else None.

    Same input checks, same answer, but no Fraction is built. Let r be the
    integer nearest x and d = |x - r|; d is exact in floating point (Sterbenz's
    lemma when r != 0, trivially when r == 0).
    - d > tol: no integer lies within tol, so the reconstruction is not one.
    - 2*d*N < 1 (N = 10**6): a fraction p/q != r with q <= N lies at least
      1/q >= 1/N from r, so more than 1/(2N) > d from x; r is then the
      closest fraction with denominator <= N, which is what
      Fraction.limit_denominator returns. The product is rounded
      monotonically, so a computed value below 1 means a true one below 1.
    Only the band in between, which exists only when tol >= 1/(2N), falls
    back to reconstruct_rational.
    """
    x = _checked_float(x, tol)
    if x is None:
        return None
    r = round(x)
    d = abs(x - r)
    if not d <= tol:  # also rejects a NaN tol, as the Fraction route does
        return None
    if 2.0 * d * _MAX_DENOMINATOR < 1.0:
        return r
    frac = reconstruct_rational(x, _MAX_DENOMINATOR, tol)
    if frac is None or frac.denominator != 1:
        return None
    return int(frac)


def gcd_all(values) -> int:
    """gcd of an iterable of integers; gcd of all zeros is 0 by convention.

    A value beyond the 64-bit range raises IntegerOverflowError, the first
    such value in order.
    """
    values = list(map(int, values))
    if not values:
        raise ValueError("gcd_all requires at least one value")
    if max(map(abs, values)) > INT64_MAX:
        for v in values:
            _check64(v)
    return math.gcd(*values)


def lcm_all(values) -> int:
    """lcm of an iterable of nonzero integers, with 64-bit overflow checks.

    The values are folded in order, and the fold raises at the first zero
    value (ValueError) or the first value or running lcm beyond the 64-bit
    range (IntegerOverflowError). Every running lcm divides the last, so
    when that and every value are nonzero and in range, the fold raises
    nothing and math.lcm gives its answer.
    """
    values = list(map(int, values))
    if not values:
        raise ValueError("lcm_all requires at least one value")
    result = math.lcm(*values)
    if 0 < result <= INT64_MAX and max(map(abs, values)) <= INT64_MAX:
        return result
    result = 1
    for v in values:
        if v == 0:
            raise ValueError("lcm_all is undefined when a value is 0")
        _check64(v)
        result = result * abs(v) // math.gcd(result, abs(v))
        _check64(result)
    return result


@dataclass(frozen=True)
class QuadraticEigenvalue:
    """An eigenvalue written as (a + b*sqrt(delta)) / 2 with integer a, b.

    delta is squarefree and >= 1. delta == 1 encodes a plain integer, so a + b
    must be even in that case. Families produced by classification share a
    single (a, delta) pair across all members, which is what the transfer
    certificates rely on.
    """

    a: int
    b: int
    delta: int

    def __post_init__(self) -> None:
        _check64(self.a)
        _check64(self.b)
        if self.delta < 1:
            raise ValueError("delta must be a positive integer")
        if self.delta > 1 and squarefree_part(self.delta)[1] != 1:
            raise ValueError(f"delta={self.delta} is not squarefree")
        if self.delta == 1 and (self.a + self.b) % 2:
            raise ValueError("delta=1 requires a + b even so the value is an integer")

    @property
    def value(self) -> float:
        return (self.a + self.b * math.sqrt(self.delta)) / 2.0

    @property
    def is_integer(self) -> bool:
        if self.delta == 1:
            return True
        return self.b == 0 and self.a % 2 == 0

    def as_integer(self) -> int:
        if self.delta == 1:
            return (self.a + self.b) // 2
        if self.b == 0 and self.a % 2 == 0:
            return self.a // 2
        raise ValueError(f"{self} is not an integer eigenvalue")


def _close(value: float, x: float) -> bool:
    """The acceptance gate of every classification: within 1e-9 * max(1, |x|)."""
    return abs(value - x) <= 1e-9 * max(1.0, abs(x))


def _integer_values(values: list[float], tol: float, gated: bool = True) -> list[int] | None:
    """The integers of a list that is all integers, else None: one pass, value by value.

    Each value gets nearest_integer(v, tol) and, when gated, the gate
    _close(float(r), v) after the 64-bit check on 2r, in that order; the
    pass stops at the first value that fails, or raises where they raise.
    The integer r stands for QuadraticEigenvalue(2r, 0, 1), whose value
    (2r + 0.0)/2.0 is float(r). Inlined, for a value x with |x| = a:
    - tol <= 0 raises ValueError, before the first value is read;
    - a >= 2**63 is a value beyond the 64-bit range, which raises
      IntegerOverflowError, or one that is not finite, which gives None;
    - r = round(x) and the exact d = |x - r| must satisfy d <= tol, and
      2*d*10**6 < 1 accepts r; in the band between, nearest_integer decides;
    - gated, 2r leaves the 64-bit range exactly when a >= 2**62, and the
      gate reads |float(r) - x| = d <= 1e-9 * max(1, a).
    """
    if tol <= 0 and values:
        raise ValueError("tol must be positive")
    out = []
    for v in values:
        x = float(v)
        a = abs(x)
        if not a < _TWO63:
            if math.isfinite(x):
                raise IntegerOverflowError(f"value {x} exceeds the 64-bit range")
            return None
        r = round(x)
        d = abs(x - r)
        if not d <= tol:  # also rejects a NaN tol, as nearest_integer does
            return None
        if not 2.0 * d * _MAX_DENOMINATOR < 1.0:
            r = nearest_integer(x, tol)
            if r is None:
                return None
            d = abs(x - r)
        if gated:
            if a >= _TWO62:
                _check64(2 * r)
            if not d <= 1e-9 * max(1.0, a):
                return None
        out.append(r)
    return out


def _as_int_list(values) -> list[int] | None:
    """nearest_integer of each value, or None at the first that is not an integer: no gate."""
    return _integer_values(values, 1e-7, False)


# the unit roundoff of a float
_U = 2.0**-53


def _may_be_one_family(finite: list[float]) -> bool:
    """False only when finite values can share no quadratic family.

    See classify_eigenvalues for the condition and its bound.
    """
    v0 = finite[0]
    rounding = 8 * _U * (max(map(abs, finite)) + 1.0)
    eta0 = 1e-9 * max(1.0, abs(v0)) + rounding
    for v in finite[1:]:
        d = 2.0 * (v - v0)
        eps = 2.0 * (1e-9 * max(1.0, abs(v)) + rounding + eta0) + 2 * _U * abs(d)
        sq = d * d
        if abs(sq - round(sq)) > eps * (2.0 * abs(d) + eps) + 2 * _U * sq:
            return False
    return True


def _quadratic_family(values: list[float], tol: float) -> tuple[int, int, list[int]] | None:
    """(a, delta, [b_i]) of the one quadratic family the values form, else None."""
    # the search below could only have answered None (classify_eigenvalues)
    if max(values) - min(values) <= 2.0**30 and not _may_be_one_family(values):
        return None

    # candidate shared a from pair sums (i == j covers the lone rational
    # member a/2)
    candidates: set[int] = set()
    for i in range(len(values)):
        for j in range(i, len(values)):
            r = nearest_integer(values[i] + values[j], tol)
            if r is not None:
                candidates.add(r)
    for a in sorted(candidates, key=lambda c: (abs(c), c)):
        bs: list[int] = []
        delta: int | None = None
        for v in values:
            x = 2.0 * v - a
            if abs(x) <= tol * max(1.0, abs(v)):
                bs.append(0)
                continue
            y = x * x
            ry = nearest_integer(y, tol * max(1.0, y))
            if ry is None or ry <= 0:
                break
            s, f = squarefree_part(ry)
            if s == 1 or delta not in (None, s):
                break  # rational (integer recognition failed), or a second family
            delta = s
            bs.append(f if x > 0 else -f)
        else:
            if delta is None:
                continue
            root = math.sqrt(delta)
            if all(_close((a + b * root) / 2.0, v) for b, v in zip(bs, values)):
                return a, delta, bs
    return None


def _classify_coordinates(values, tol: float = 1e-7) -> tuple[int, int, list[int]] | None:
    """classify_eigenvalues without the objects: (a, delta, coordinates).

    delta == 1: the coordinates are the integer values themselves (a is 0);
    delta > 1: they are the b of each member (a + b*sqrt(delta))/2.
    """
    values = list(map(float, values))
    if not values:
        raise ValueError("classify_eigenvalues requires at least one value")
    if not all(map(math.isfinite, values)):
        return None
    ints = _integer_values(values, tol)
    if ints is not None:
        return 0, 1, ints
    return _quadratic_family(values, tol)


def classify_eigenvalues(values, tol: float = 1e-7) -> list[QuadraticEigenvalue] | None:
    """Recognize a full list of eigenvalues as integers or one quadratic family.

    All-or-nothing: either every value is matched (shared a and delta for the
    quadratic case, delta > 1 squarefree) or None is returned. Each
    reconstruction Q_i must land within g_i = 1e-9 * max(1, |v_i|) of its
    source v_i (the gate). Integers are tried first, value by value.

    Before the quadratic search, which tries every pair sum as the shared a,
    an O(n) necessary condition runs. Members of one family satisfy
    (2(Q_i - Q_0))**2 = (b_i - b_0)**2 * delta, an integer, so the computed
    D_i**2, D_i = fl(2(v_i - v_0)), must lie near one. How near, with u =
    2**-53 and M the largest |v_i|:
    - a candidate a is the integer nearest a pair sum, so |a| <= 2M + 1/2,
      and |b*sqrt(delta)| = |2Q_i - a| is about 4M at most; computing the
      value (a + b*sqrt(delta))/2 then errs by about u(6M + 1) at most,
      under 8u(M + 1);
    - so an accepted v_i lies within eta_i = g_i + 8u(M + 1) of Q_i, and
      D_i within eps_i = 2(eta_i + eta_0) + 2u|D_i| of 2(Q_i - Q_0), the
      last term for the rounding of the subtraction;
    - hence |D_i**2 - (b_i - b_0)**2 delta| <= eps_i(2|D_i| + eps_i), and
      squaring in floating point adds at most u*D_i**2.
    A value farther from every integer than eps_i(2|D_i| + eps_i) + 2u*D_i**2
    rules out every family the search could accept, and None is returned at
    once. The factors 8 and 2 leave room over the rounding they cover, which
    absorbs the rounding of the gate comparison and of the bound itself.

    The test runs only while the values span at most 2**30, so that
    it never answers None where the search raises IntegerOverflowError:
    - each squared offset (2v - a)**2 of the search stays below 2**63;
    - a pair sum beyond the 64-bit range needs a value of magnitude near
      2**62 or more; every value within 2**30 of it lies beyond
      2**53 in magnitude, so all are integers, every D_i**2 is one, and the
      test passes them on to the search, which raises.
    A value that is not finite is no eigenvalue of a finite matrix, so it
    makes the answer None before either pass. The bound grows
    as 1e-9 * M * |D_i|: for the irrational pair 3000007.5000000414,
    -3000006.500000042, which the search misreads as half-integers, it
    exceeds 1, so the test leaves that reading as it is.
    """
    coords = _classify_coordinates(values, tol)
    if coords is None:
        return None
    a, delta, cs = coords
    if delta == 1:
        return [QuadraticEigenvalue(2 * c, 0, 1) for c in cs]
    return [QuadraticEigenvalue(a, b, delta) for b in cs]
