"""Exact scalar arithmetic over Q and real quadratic fields Q(sqrt(D)).

Provides big-integer rationals with a distinguished point at infinity
(the projective point (1 : 0)), elements a + b*sqrt(D) with squarefree D,
the multiplicative height H(p/q) = max(|p|, q), height-ordered enumeration
of the rationals, exact root extraction for quadratics over Q, and the
small number theory the package needs: primes, divisors, and squarefree
parts by trial division, Miller-Rabin and Pollard's rho.

Everything here is immutable and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Dict, Iterator, List, Sequence, Tuple, Union

# Miller-Rabin with these bases is exact below 3.3e24 (a strong
# probable-prime test beyond)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard's rho finds prime factors up to about 2^36 within this many steps
_RHO_STEPS = 1 << 18


class NegativeDiscriminantError(ValueError):
    """A quadratic has complex roots; complex scalars are out of scope."""


# ----------------------------------------------------------------------
# rationals
# ----------------------------------------------------------------------

class ExtendedRational:
    """A rational number num/den in lowest terms, or the point at infinity.

    Finite values satisfy den >= 1 and gcd(|num|, den) == 1; zero is 0/1.
    Infinity is the single module-level object INFINITY, stored as (1, 0);
    it compares equal only to itself and rejects field arithmetic.

    Division by zero of a nonzero value yields INFINITY (the projective
    convention); 0/0 raises.
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

    def _require_finite(self):
        if self.den == 0:
            raise ArithmeticError("arithmetic with the point at infinity")

    def __bool__(self) -> bool:
        return self.num != 0

    # -- arithmetic (finite values only) --------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtendedRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtendedRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._require_finite()
        o._require_finite()
        return ExtendedRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        self._require_finite()
        return ExtendedRational(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._require_finite()
        o._require_finite()
        return ExtendedRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._require_finite()
        o._require_finite()
        if o.num == 0:
            if self.num == 0:
                raise ZeroDivisionError("0/0 is not a point of P^1")
            return INFINITY
        return ExtendedRational(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        self._require_finite()
        if not isinstance(k, int):
            return NotImplemented
        if k >= 0:
            return ExtendedRational(self.num ** k, self.den ** k)
        if self.num == 0:
            return INFINITY
        return ExtendedRational(self.den ** (-k), self.num ** (-k))

    def __abs__(self):
        self._require_finite()
        return ExtendedRational(abs(self.num), self.den)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ExtendedRational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        if isinstance(other, Fraction):
            return self.den != 0 and self.num == other.numerator and self.den == other.denominator
        if isinstance(other, QuadFieldElement):
            return other.__eq__(self)
        return NotImplemented

    def __hash__(self):
        if self.den == 0:
            return hash(("quadpcf-inf",))
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __lt__(self, other):
        # INFINITY sorts above every finite value
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == 0:
            return False
        if o.den == 0:
            return True
        return self.num * o.den < o.num * self.den

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self == o or self < o

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o < self

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o <= self

    # -- text ------------------------------------------------------------

    def __str__(self):
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    __repr__ = __str__

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


def _as_rat(x: RationalLike) -> ExtendedRational:
    r = ExtendedRational._coerce(x)
    if r is None:
        raise TypeError(f"not a rational value: {x!r}")
    return r


# ----------------------------------------------------------------------
# heights and enumeration
# ----------------------------------------------------------------------

HeightValue = int


def height(x: RationalLike) -> HeightValue:
    """Multiplicative height max(|num|, den) of a reduced rational; 1 at infinity."""
    r = _as_rat(x)
    if r.den == 0:
        return 1
    return max(abs(r.num), r.den)


def enumerate_rationals(h_max: int) -> Iterator[ExtendedRational]:
    """Yield every finite rational of height <= h_max exactly once.

    Order is (height, denominator, numerator) ascending, which makes output
    deterministic across runs.
    """
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    yield ExtendedRational(-1)
    yield ExtendedRational(0)
    yield ExtendedRational(1)
    for h in range(2, h_max + 1):
        for q in range(1, h):
            if gcd(h, q) == 1:
                yield ExtendedRational(-h, q)
                yield ExtendedRational(h, q)
        # denominator equal to the height: numerators strictly inside (-h, h)
        for p in range(-h + 1, h):
            if gcd(abs(p), h) == 1:
                yield ExtendedRational(p, h)


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


def _split(n: int) -> int:
    """A proper factor of a composite n that is no perfect power and has no
    prime factor below 1000, by Pollard's rho.  Finding a prime factor p
    takes about sqrt(p) steps, so give up with ValueError after
    _RHO_STEPS rather than run on."""
    steps, c = 0, 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            if steps == _RHO_STEPS:
                raise ValueError(
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


def divisors(n: int) -> List[int]:
    """Positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in _factorize(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


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


@lru_cache(maxsize=4096)
def _is_squarefree(n: int) -> bool:
    return n != 0 and squarefree_part(n)[0] == 1


# ----------------------------------------------------------------------
# quadratic field elements
# ----------------------------------------------------------------------

class QuadFieldElement:
    """a + b*sqrt(D) with rational a, b and squarefree integer D != 0, 1.

    Arithmetic is closed in the field and collapses to ExtendedRational
    whenever the sqrt coefficient cancels, so exact-equality tables can mix
    rationals and field elements.  D < 0 is accepted by the type (the
    algebra is identical) but quad_roots never produces it.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a: RationalLike, b: RationalLike, D: int):
        a = _as_rat(a)
        b = _as_rat(b)
        a._require_finite()
        b._require_finite()
        if D in (0, 1) or not _is_squarefree(D):
            raise ValueError(f"D must be squarefree and != 0, 1; got {D}")
        self.a = a
        self.b = b
        self.D = D

    @staticmethod
    def _make(a: ExtendedRational, b: ExtendedRational, D: int):
        """Arithmetic results collapse to Q when the sqrt part vanishes."""
        if b.is_zero():
            return a
        return QuadFieldElement(a, b, D)

    def conjugate(self) -> "QuadFieldElement":
        return QuadFieldElement._make(self.a, -self.b, self.D)

    def norm(self) -> ExtendedRational:
        return self.a * self.a - self.b * self.b * self.D

    # -- arithmetic ------------------------------------------------------

    def _split(self, other):
        """Return (a, b) parts of the operand in this element's field."""
        if isinstance(other, QuadFieldElement):
            if other.b.is_zero():
                return other.a, ExtendedRational(0)
            if other.D != self.D:
                raise ValueError(f"mixing sqrt({self.D}) with sqrt({other.D})")
            return other.a, other.b
        if isinstance(other, (int, Fraction, ExtendedRational)):
            return _as_rat(other), ExtendedRational(0)
        return None

    def __add__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return QuadFieldElement._make(self.a + oa, self.b + ob, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadFieldElement._make(-self.a, -self.b, self.D)

    def __sub__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return QuadFieldElement._make(self.a - oa, self.b - ob, self.D)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return QuadFieldElement._make(
            self.a * oa + self.b * ob * self.D,
            self.a * ob + self.b * oa,
            self.D,
        )

    __rmul__ = __mul__

    def _inverse(self):
        n = self.norm()
        if n.is_zero():
            # only possible for a = b = 0 since D is not a square
            raise ZeroDivisionError("inverse of zero")
        return QuadFieldElement._make(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        if oa.is_zero() and ob.is_zero():
            if self.a.is_zero() and self.b.is_zero():
                raise ZeroDivisionError("0/0 is not a point of P^1")
            return INFINITY
        o = QuadFieldElement._make(oa, ob, self.D)
        if isinstance(o, ExtendedRational):
            return QuadFieldElement._make(self.a / o, self.b / o, self.D)
        return self * o._inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction, ExtendedRational)):
            o = _as_rat(other)
            if self.b.is_zero() and self.a.is_zero():
                if o.is_zero():
                    raise ZeroDivisionError("0/0 is not a point of P^1")
                return INFINITY
            return self._inverse() * o
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ExtendedRational(1)
        base = self
        for _ in range(k):
            out = base * out
        return out

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadFieldElement):
            if self.b.is_zero() or other.b.is_zero():
                return self.b == other.b and self.a == other.a
            return self.D == other.D and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction, ExtendedRational)):
            return self.b.is_zero() and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b.is_zero():
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __str__(self):
        sign = "-" if self.b < 0 else "+"
        return f"{self.a}{sign}{abs(self.b)}*sqrt({self.D})"

    __repr__ = __str__

    @staticmethod
    def from_str(text: str) -> "QuadFieldElement":
        text = text.strip()
        body, d_part = text.rsplit("*sqrt(", 1)
        D = int(d_part.rstrip(")"))
        # split the b coefficient off at the last top-level +/-
        for i in range(len(body) - 1, 0, -1):
            if body[i] in "+-" and body[i - 1] not in "+-/":
                a = ExtendedRational.from_str(body[:i])
                b = ExtendedRational.from_str(body[i:].replace("+", "", 1) or "0")
                if body[i] == "-":
                    b = -abs(b)
                return QuadFieldElement(a, b, D)
        raise ValueError(f"cannot parse quadratic element {text!r}")


PointValue = Union[ExtendedRational, QuadFieldElement]


def parse_point(text: str) -> PointValue:
    text = text.strip()
    if "sqrt" in text:
        return QuadFieldElement.from_str(text)
    return ExtendedRational.from_str(text)


def point_sort_key(pt: PointValue):
    """Total order on exact points: rationals first, then quadratic, inf last."""
    if isinstance(pt, ExtendedRational):
        if pt.is_infinity():
            return (2,)
        return (0, Fraction(pt.num, pt.den))
    if isinstance(pt, QuadFieldElement):
        if pt.b.is_zero():
            return (0, Fraction(pt.a.num, pt.a.den))
        return (1, pt.D, Fraction(pt.a.num, pt.a.den), Fraction(pt.b.num, pt.b.den))
    raise TypeError(f"not a point value: {pt!r}")


# ----------------------------------------------------------------------
# quadratic roots in P^1
# ----------------------------------------------------------------------

def quad_roots(a: RationalLike, b: RationalLike, c: RationalLike):
    """Roots of a*z^2 + b*z + c in P^1, as exact scalars.

    Interprets the triple as a binary quadratic form, so a == 0 puts one
    (or, if also b == 0, both) of the roots at INFINITY.  Irrational real
    roots come back as conjugate QuadFieldElements over squarefree D > 1;
    a negative discriminant raises NegativeDiscriminantError since no
    in-scope computation needs complex roots.
    """
    a, b, c = _as_rat(a), _as_rat(b), _as_rat(c)
    for v in (a, b, c):
        v._require_finite()
    if a.is_zero() and b.is_zero() and c.is_zero():
        raise ValueError("zero form has no well-defined roots")
    if a.is_zero():
        if b.is_zero():
            return (INFINITY, INFINITY)
        return (-c / b, INFINITY)
    disc = b * b - 4 * a * c
    if disc.is_zero():
        r = -b / (a + a)
        return (r, r)
    if disc < 0:
        raise NegativeDiscriminantError(f"complex roots: discriminant {disc} < 0")
    s, D = squarefree_part(disc.num * disc.den)
    half = ExtendedRational(1) / (a + a)
    if D == 1:
        t = ExtendedRational(s, disc.den)
        return ((-b + t) * half, (-b - t) * half)
    re = -b * half
    co = abs(ExtendedRational(s, disc.den) * half)
    return (QuadFieldElement(re, co, D), QuadFieldElement(re, -co, D))
