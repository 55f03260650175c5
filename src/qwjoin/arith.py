"""Exact integer and quadratic-irrational helpers behind the spectral certificates.

Everything here is exact: inputs are Python ints (or floats that are
recognized as integers or rationals before use) and all arithmetic stays in
the 64-bit range or raises IntegerOverflowError. Floating point enters at two
boundaries: nearest_integer, which asks only whether a float is an integer,
and reconstruct_rational, which recovers a fraction. Both accept the same
values as integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import IntegerOverflowError

INT64_MAX = 2**63 - 1


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


def reconstruct_rational(
    x: float, max_denominator: int = 10**6, tol: float = 1e-7
) -> Fraction | None:
    """Best rational approximation of x, accepted only if it is tol-close.

    Uses the continued-fraction convergents behind Fraction.limit_denominator.
    Returns None when no fraction with denominator <= max_denominator lands
    within tol, so callers can distinguish "irrational as far as we can tell"
    from a genuine reconstruction.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    x = _checked_float(x, tol)
    if x is None:
        return None
    candidate = Fraction(x).limit_denominator(max_denominator)
    if abs(x - candidate) <= tol:
        return candidate
    return None


# the denominator bound under which nearest_integer agrees with
# reconstruct_rational's default
_MAX_DENOMINATOR = 10**6


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
    """gcd of an iterable of integers; gcd of all zeros is 0 by convention."""
    values = [int(v) for v in values]
    if not values:
        raise ValueError("gcd_all requires at least one value")
    g = 0
    for v in values:
        _check64(v)
        g = math.gcd(g, abs(v))
    return g


def lcm_all(values) -> int:
    """lcm of an iterable of nonzero integers, with 64-bit overflow checks."""
    values = [int(v) for v in values]
    if not values:
        raise ValueError("lcm_all requires at least one value")
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
        s, f = squarefree_part(self.delta)
        if f != 1:
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


def classify_eigenvalues(values, tol: float = 1e-7) -> list[QuadraticEigenvalue] | None:
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
