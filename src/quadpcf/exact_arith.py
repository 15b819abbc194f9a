"""Exact scalars: rationals, and the points of P^1 over quadratic fields.

Provides rationals as reduced integer pairs with a distinguished point at
infinity (the projective point (1 : 0)), quadratic points
(a + b*sqrt(D)) / c held as four integers with D not a square (both are
values only: projmap steps them with integer arithmetic), the
multiplicative height H(p/q) = max(|p|, q), height-ordered enumeration of
the rationals, and the small number theory the package needs: primes by
the sieve of Eratosthenes, and squarefree parts and small factorisations
by trial division by the primes below 1000.

Everything here is immutable and all operations are pure.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple, Union


# ----------------------------------------------------------------------
# rationals
# ----------------------------------------------------------------------

class ExtendedRational:
    """A point of P^1(Q) as a reduced integer pair: num/den in lowest
    terms, or the point at infinity.

    Finite values satisfy den >= 1 and gcd(|num|, den) == 1; zero is 0/1.
    Infinity is the single module-level object INFINITY, stored as (1, 0);
    it compares equal only to itself.  A zero denominator of a nonzero
    numerator gives INFINITY; 0/0 raises.

    This is a value type with parse, print and equality only: the exact
    layer computes on the integers num and den.  It equals only an
    ExtendedRational: an int converts through the constructor instead.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num: RationalLike = 0, den: int = 1):
        if isinstance(num, ExtendedRational):
            if den != 1:
                raise ValueError("cannot rescale an ExtendedRational in the constructor")
            return num
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError(f"need integers, got {num!r}/{den!r}")
        if den == 0:
            if num == 0:
                raise ZeroDivisionError("0/0 is not a point of P^1")
            return INFINITY
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    # -- predicates ----------------------------------------------------

    def is_infinity(self) -> bool:
        return self.den == 0

    def is_zero(self) -> bool:
        return self.num == 0 and self.den != 0

    def __bool__(self) -> bool:
        return self.num != 0

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- text ------------------------------------------------------------

    def __str__(self):
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    __repr__ = __str__

    @staticmethod
    def from_pair(x: int, y: int) -> "ExtendedRational":
        """The point (x : y) of a pair in lowest terms with y >= 0, where
        (1 : 0) is infinity; trusted, so no gcd is taken."""
        if y == 0:
            return INFINITY
        self = object.__new__(ExtendedRational)
        self.num = x
        self.den = y
        return self

    @staticmethod
    def from_str(text: str) -> "ExtendedRational":
        text = text.strip()
        if text == "inf":
            return INFINITY
        if "/" in text:
            a, b = text.split("/")
            num, den = int(a), int(b)
            if num == den == 0:
                raise ValueError("0/0 is not a point of P^1")
            return ExtendedRational(num, den)
        return ExtendedRational(int(text))


INFINITY = object.__new__(ExtendedRational)
INFINITY.num = 1
INFINITY.den = 0

Rat = ExtendedRational  # short alias used throughout the package

RationalLike = Union[ExtendedRational, int]


# ----------------------------------------------------------------------
# heights and enumeration
# ----------------------------------------------------------------------

HeightValue = int


def height(x: RationalLike) -> HeightValue:
    """Multiplicative height max(|num|, den) of a reduced rational; 1 at infinity."""
    r = Rat(x)
    if r.den == 0:
        return 1
    return max(abs(r.num), r.den)


def enumerate_pairs(h_max: int) -> Iterator[Tuple[int, int]]:
    """Yield (num, den) in lowest terms, den >= 1, for every finite rational
    of height <= h_max exactly once.

    Order is (height, denominator, numerator) ascending, which makes output
    deterministic across runs.
    """
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    yield (-1, 1)
    yield (0, 1)
    yield (1, 1)
    for h in range(2, h_max + 1):
        for q in range(1, h):
            if gcd(h, q) == 1:
                yield (-h, q)
                yield (h, q)
        # denominator equal to the height: numerators strictly inside (-h, h)
        for p in range(-h + 1, h):
            if gcd(abs(p), h) == 1:
                yield (p, h)


def enumerate_rationals(h_max: int) -> Iterator[ExtendedRational]:
    """The rationals of enumerate_pairs, in its order."""
    for x, y in enumerate_pairs(h_max):
        yield ExtendedRational.from_pair(x, y)


# ----------------------------------------------------------------------
# small number theory
# ----------------------------------------------------------------------

def primes_up_to(bound: int) -> Tuple[int, ...]:
    """Primes <= bound, by the sieve of Eratosthenes."""
    bound = max(bound, 1)
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, isqrt(bound) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, bound + 1, q)))
    return tuple(q for q in range(bound + 1) if flags[q])


_SMALL_PRIMES = primes_up_to(999)


def odd_primes_up_to(bound: int) -> Tuple[int, ...]:
    return primes_up_to(bound)[1:]


def first_odd_primes(count: int) -> Tuple[int, ...]:
    if count < 0:
        raise ValueError(f"cannot take {count} primes")
    bound = 64
    while len(odd_primes_up_to(bound)) < count:
        bound *= 2
    return odd_primes_up_to(bound)[:count]


def validate_primes(primes: Sequence[int], limit: int, what: str) -> Tuple[int, ...]:
    """The primes as a tuple; ValueError unless distinct odd primes below
    limit, each an int (not a bool)."""
    primes = tuple(primes)
    for p in primes:
        if type(p) is not int:
            raise ValueError(f"need integer primes, got {p!r}")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    odd_primes = set(odd_primes_up_to(limit - 1))
    for p in primes:
        if p >= limit:
            raise ValueError(f"prime {p} is too large for {what} (limit {limit})")
        if p not in odd_primes:
            raise ValueError(f"need odd primes, got {p}")
    return primes


def _trial_divide(n: int) -> Tuple[Dict[int, int], int]:
    """The exponents {q: e} of the primes q below 1000 in n >= 1, and the
    cofactor m left over: 1, a prime, or an integer with no prime factor
    below 1000.  So a cofactor below 10^9 is 1, p, pq or p^2."""
    exponents: Dict[int, int] = {}
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            n //= q
            exponents[q] = exponents.get(q, 0) + 1
    return exponents, n


def squarefree_part(n: int) -> Tuple[int, int]:
    """Write n = s^2 * D, the sign carried by D; returns (s, D).

    No square of a prime below 1000 divides D.  The cofactor of trial
    division goes into s when it is a square and into D whole otherwise,
    so D is squarefree when that cofactor is below 10^9; beyond, D may keep
    the square of a prime above 1000.  D is a square only when n is.
    """
    if n == 0:
        return 0, 0
    exponents, m = _trial_divide(abs(n))
    r = isqrt(m)
    s, d = (r, 1) if r * r == m else (1, m)
    if n < 0:
        d = -d
    for q, e in exponents.items():
        s *= q ** (e // 2)
        if e % 2:
            d *= q
    return s, d


# ----------------------------------------------------------------------
# quadratic points
# ----------------------------------------------------------------------

class QuadPoint(NamedTuple):
    """The point (a + b*sqrt(D)) / c of P^1(Q(sqrt(D))) outside P^1(Q).

    Integers with gcd(a, b, c) == 1, c > 0, b != 0 and D not a square, as
    squarefree_part writes it: D > 0 gives the real quadratic fields and
    D < 0 the imaginary fields of complex critical points.  For a given D
    the form is canonical, so equality and hashing are the tuple's, and
    c^2 z^2 - 2ac z + (a^2 - D b^2) is the point's minimal polynomial.
    NormalizedQuadMap.quad_step moves it, keeping D.
    """

    a: int
    b: int
    c: int
    D: int

    def __str__(self):
        sign = "-" if self.b < 0 else "+"
        return f"{Rat(self.a, self.c)}{sign}{Rat(abs(self.b), self.c)}*sqrt({self.D})"

    __repr__ = __str__


PointValue = Union[ExtendedRational, QuadPoint]


class _Ratio:
    """n / d with d > 0 as a sort key, ordered by its value: equality and
    order cross-multiply, so the fraction need not be in lowest terms.
    Tuples of keys compare with == before <."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d

    def __eq__(self, other):
        return self.n * other.d == other.n * self.d

    def __lt__(self, other):
        return self.n * other.d < other.n * self.d


def point_sort_key(pt: PointValue):
    """Total order on exact points: rationals first, then quadratic, inf last."""
    if isinstance(pt, ExtendedRational):
        if pt.is_infinity():
            return (2,)
        return (0, _Ratio(pt.num, pt.den))
    if isinstance(pt, QuadPoint):
        return (1, pt.D, _Ratio(pt.a, pt.c), _Ratio(pt.b, pt.c))
    raise TypeError(f"not a point value: {pt!r}")
