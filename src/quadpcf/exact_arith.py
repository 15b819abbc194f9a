"""Exact scalars: rationals, and the points of P^1 over quadratic fields.

Provides rationals as reduced integer pairs with a distinguished point at
infinity (the projective point (1 : 0)), quadratic points
(a + b*sqrt(D)) / c held as four integers with squarefree D (both are
values only: projmap steps them with integer arithmetic), the
multiplicative height H(p/q) = max(|p|, q), height-ordered enumeration of
the rationals, and the small number theory the package needs: primes,
factorisations and squarefree parts by trial division, Miller-Rabin and
Pollard's rho.

Everything here is immutable and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple, Union

# Miller-Rabin with these bases is exact below 3.3e24 (a strong
# probable-prime test beyond)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard's rho finds prime factors up to about 2^36 within this many steps
_RHO_STEPS = 1 << 18


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
    layer computes on the integers num and den.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num: Union[int, Fraction, "ExtendedRational"] = 0, den: int = 1):
        if isinstance(num, ExtendedRational):
            if den != 1:
                raise ValueError("cannot rescale an ExtendedRational in the constructor")
            return num
        if isinstance(num, Fraction):
            num, den = num.numerator, num.denominator * den
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
        if isinstance(other, ExtendedRational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        if isinstance(other, Fraction):
            return self.den != 0 and self.num == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.den == 0:
            return hash(("quadpcf-inf",))
        if self.den == 1:
            return hash(self.num)
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
            return ExtendedRational(int(a), int(b))
        return ExtendedRational(int(text))


INFINITY = object.__new__(ExtendedRational)
INFINITY.num = 1
INFINITY.den = 0

Rat = ExtendedRational  # short alias used throughout the package

RationalLike = Union[ExtendedRational, int, Fraction]


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


def is_prime(n: int) -> bool:
    """Miller-Rabin primality, exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    """The primes as ints; ValueError unless distinct odd primes below limit."""
    primes = tuple(int(p) for p in primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if p >= limit:
            raise ValueError(f"prime {p} is too large for {what} (limit {limit})")
        if p == 2 or not is_prime(p):
            raise ValueError(f"need odd primes, got {p}")
    return primes

def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class FactorizationError(ValueError):
    """Pollard's rho found no factor within its step budget."""


def _split(n: int) -> int:
    """A proper factor of a composite n that is no perfect power and has no
    prime factor below 1000, by Pollard's rho.  Finding a prime factor p
    takes about sqrt(p) steps, so give up with FactorizationError after
    _RHO_STEPS rather than run on."""
    steps, c = 0, 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            if steps == _RHO_STEPS:
                raise FactorizationError(
                    f"cannot factor {n}: no factor within {_RHO_STEPS} Pollard rho steps")
            steps += 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
        c += 1


def _factorize(n: int) -> Dict[int, int]:
    """Prime factorisation {p: e} of n >= 1."""
    out: Dict[int, int] = {}
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        # m has no prime factor below 1000, so below 1000^2 it is prime,
        # and a k-th power only for 1000^k < m
        if m < 1_000_000 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for k in range(2, m.bit_length() // 9 + 1):
            r = _iroot(m, k)
            if r ** k == m:
                todo += [r] * k
                break
        else:
            d = _split(m)
            todo += [d, m // d]
    return out


def squarefree_part(n: int) -> Tuple[int, int]:
    """Write n = s^2 * D with D squarefree (sign carried by D); returns (s, D)."""
    if n == 0:
        return 0, 0
    s, d = 1, 1 if n > 0 else -1
    for p, e in _factorize(abs(n)).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


# ----------------------------------------------------------------------
# quadratic points
# ----------------------------------------------------------------------

class QuadPoint(NamedTuple):
    """The point (a + b*sqrt(D)) / c of P^1(Q(sqrt(D))) outside P^1(Q).

    Integers with gcd(a, b, c) == 1, c > 0, b != 0 and D squarefree, not 0
    or 1: D > 0 gives the real quadratic fields and D < 0 the imaginary
    fields of complex critical points.  The form is canonical, so equality
    and hashing are the tuple's, and c^2 z^2 - 2ac z + (a^2 - D b^2) is the
    point's minimal polynomial.  NormalizedQuadMap.quad_step moves it.
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


def point_sort_key(pt: PointValue):
    """Total order on exact points: rationals first, then quadratic, inf last."""
    if isinstance(pt, ExtendedRational):
        if pt.is_infinity():
            return (2,)
        return (0, Fraction(pt.num, pt.den))
    if isinstance(pt, QuadPoint):
        return (1, pt.D, Fraction(pt.a, pt.c), Fraction(pt.b, pt.c))
    raise TypeError(f"not a point value: {pt!r}")
