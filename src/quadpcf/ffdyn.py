"""Dynamics of quadratic maps over prime fields F_p.

Orbits of points under a degree-2 map of P^1(F_p) are finite, so a single
pass with a visited-index table splits them exactly into tail + cycle.
The cycle multiplier (product of chart-correct local derivatives along the
cycle) and its multiplicative order r turn a mod-p cycle length m into the
admissible set of global periods: {m} for a zero multiplier, else {m, m*r},
and at p = 3 also 3*m*r.  The normal-form family, its key and the
wronskian and resultant of two forms, which projmap and sievedb share, are
defined here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

from quadpcf.exact_arith import divisors

PeriodSet = FrozenSet[int]
# the most periods possible_periods admits for one point
PERIOD_SLOTS = 3

# bounds of the lane sieve and its reference database (sievedb), kept here,
# free of numpy, so that the command line validates its configuration
# without loading the sieve.  The paper's largest prime is 739; below 2^11
# the kernel's Horner products of three residues stay below 2^33
LANE_PRIME_LIMIT = 1 << 11
# a pair's integral normal form has coefficients of at most 4 * h1 * h2 <=
# 2^14, so its wronskian discriminant, the largest per-pair int64 value of
# the lane sieve, is below 2^61
MAX_HEIGHT_PRODUCT = 1 << 12


class FpPoint:
    """A point of P^1(F_p), normalized to (x : 1) or (1 : 0).

    The integer encoding used in tables is x for affine points and p for
    the point at infinity.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    @staticmethod
    def affine(v: int, p: int) -> "FpPoint":
        return FpPoint(v % p, 1)

    @staticmethod
    def infinity() -> "FpPoint":
        return FpPoint(1, 0)

    def is_infinity(self) -> bool:
        return self.y == 0

    def index(self, p: int) -> int:
        return p if self.y == 0 else self.x

    @staticmethod
    def from_index(i: int, p: int) -> "FpPoint":
        return FpPoint.infinity() if i == p else FpPoint(i, 1)

    def __eq__(self, other):
        if not isinstance(other, FpPoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "inf" if self.y == 0 else str(self.x)


def format_fp_point(index: int, p: int) -> str:
    return "inf" if index == p else str(index)


class FpMap:
    """A degree-2 map of P^1 over F_p, as two binary quadratic forms mod p."""

    __slots__ = ("p", "F", "G")

    def __init__(self, p: int, f_coeffs, g_coeffs):
        self.p = p
        self.F = tuple(int(x) % p for x in f_coeffs)
        self.G = tuple(int(x) % p for x in g_coeffs)
        if self.resultant() == 0:
            raise ValueError(f"map [{self.F}]/[{self.G}] drops degree mod {p}")

    def resultant(self) -> int:
        return form_resultant(self.F, self.G) % self.p

    def wronskian(self) -> Tuple[int, int, int]:
        return tuple(w % self.p for w in wronskian(self.F, self.G))

    # -- evaluation by integer index (p encodes infinity) -------------------

    def step_index(self, z: int) -> int:
        p = self.p
        f2, f1, f0 = self.F
        g2, g1, g0 = self.G
        if z == p:
            if g2 == 0:
                return p
            return (f2 * pow(g2, p - 2, p)) % p
        num = ((f2 * z + f1) * z + f0) % p
        den = ((g2 * z + g1) * z + g0) % p
        if den == 0:
            return p
        return (num * pow(den, p - 2, p)) % p

    def apply(self, pt: FpPoint) -> FpPoint:
        return FpPoint.from_index(self.step_index(pt.index(self.p)), self.p)

    def derivative_factor(self, z: int) -> int:
        """Local derivative at z (index encoding) in consistent charts.

        Finite points use the affine chart, infinity uses w = 1/z; the
        product of these factors along a cycle is the cycle multiplier.
        """
        p = self.p
        f2, f1, f0 = self.F
        g2, g1, g0 = self.G
        w2, w1, w0 = self.wronskian()
        if z == p:
            if g2 == 0:
                # infinity maps to infinity
                return (w2 * pow(f2 * f2 % p, p - 2, p)) % p
            return (-w2 * pow(g2 * g2 % p, p - 2, p)) % p
        n_val = ((w2 * z + w1) * z + w0) % p
        den = ((g2 * z + g1) * z + g0) % p
        if den == 0:
            f_val = ((f2 * z + f1) * z + f0) % p
            return (-n_val * pow(f_val * f_val % p, p - 2, p)) % p
        return (n_val * pow(den * den % p, p - 2, p)) % p

    def critical_point_indices(self) -> Optional[Tuple[int, int]]:
        """Roots of the wronskian in P^1(F_p), or None when irreducible.

        Sorted ascending with infinity (= p) last.  The two are distinct:
        the wronskian discriminant is 4 * resultant, which is nonzero for a
        degree-2 map in odd characteristic.
        """
        p = self.p
        w2, w1, w0 = self.wronskian()
        if w2 == 0:
            if w1 == 0:
                raise ValueError("wronskian degenerate for a degree-2 map")
            aff = (-w0 * pow(w1, p - 2, p)) % p
            return (aff, p)
        disc = (w1 * w1 - 4 * w2 * w0) % p
        s = _sqrt_mod(disc, p)
        if s is None:
            return None
        inv2w2 = pow(2 * w2 % p, p - 2, p)
        r1 = ((-w1 + s) * inv2w2) % p
        r2 = ((-w1 - s) * inv2w2) % p
        return tuple(sorted((r1, r2)))

    def __repr__(self):
        return f"FpMap(p={self.p}, {list(self.F)}/{list(self.G)})"

    def __eq__(self, other):
        if not isinstance(other, FpMap):
            return NotImplemented
        return self.p == other.p and self.F == other.F and self.G == other.G

    def __hash__(self):
        return hash((self.p, self.F, self.G))


def family_forms(b, c, d=1):
    """Milnor's normal form [2x^2 + bxy + by^2] / [-x^2 + (4 - b)xy + cy^2]
    at (b / d, c / d) as forms (F, G) times d, elementwise on ints and
    int64 arrays; the constant coefficients stay scalars."""
    return (2 * d, b, b), (-d, 4 * d - b, c)


def family_bc(s1, s2, d=1):
    """The family key (b, c) = (2 - s1, 2 - s1 - s2) of the normal form with
    fixed-point multiplier invariants (s1 / d, s2 / d), times d."""
    b = 2 * d - s1
    return b, b - s2


def wronskian(F, G):
    """Coefficients (w2, w1, w0) of (F_x G_y - F_y G_x) / 2, elementwise on
    ints or int64 arrays; its roots are the critical points."""
    f2, f1, f0 = F
    g2, g1, g0 = G
    return (f2 * g1 - f1 * g2, 2 * (f2 * g0 - f0 * g2), f1 * g0 - f0 * g1)


def form_resultant(F, G):
    """Resultant of two binary quadratic forms (coefficients x^2 first).

    It is h^2 - w2 * w0 with (w2, 2h, w0) the wronskian, whose discriminant
    is therefore 4 * resultant.
    """
    w2, w1, w0 = wronskian(F, G)
    h = w1 // 2
    return h * h - w2 * w0


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """Square root mod an odd prime by direct table-free search for small p,
    Tonelli-Shanks otherwise."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitData:
    """Tail length, cycle length m, cycle multiplier, and its order r.

    r is None exactly when the multiplier is zero (superattracting cycle);
    in F_p^x every nonzero multiplier has finite order, so r is never an
    "infinite" marker here.
    """

    p: int
    tail: int
    m: int
    lam: int
    r: Optional[int]

    def __post_init__(self):
        assert self.tail + self.m <= self.p + 2
        assert (self.lam == 0) == (self.r is None)

    @property
    def superattracting(self) -> bool:
        return self.lam == 0


def orbit_data(fmap: FpMap, start: Union[FpPoint, int]) -> OrbitData:
    """Exact tail/cycle split of the forward orbit, with cycle multiplier."""
    p = fmap.p
    z = start.index(p) if isinstance(start, FpPoint) else int(start)
    seen = {}
    seq = []
    while z not in seen:
        seen[z] = len(seq)
        seq.append(z)
        z = fmap.step_index(z)
    tail = seen[z]
    m = len(seq) - tail
    lam = 1
    for w in seq[tail:]:
        lam = lam * fmap.derivative_factor(w) % p
    r = mult_order(lam, p) if lam != 0 else None
    return OrbitData(p=p, tail=tail, m=m, lam=lam, r=r)


def mult_order(lam: int, p: int) -> int:
    """Least r >= 1 with lam^r = 1 in F_p^x."""
    lam %= p
    if lam == 0:
        raise ValueError("zero has no multiplicative order")
    for d in divisors(p - 1):
        if pow(lam, d, p) == 1:
            return d
    raise AssertionError("unreachable: order divides p - 1")


def possible_periods(o: OrbitData) -> PeriodSet:
    """Admissible exact global periods for a point of P^1(Q), or of a
    quadratic field in which p does not ramify, reducing into this cycle.

    By Morton and Silverman (IMRN 1994) the period is m, m*r or m*r*p^e
    with e >= 1, and m alone for a zero multiplier.  Zieve's bound
    p^(e - 1) <= 2v / (p - 1), v the ramification index of p, leaves with
    v = 1 only p = 3 and e = 1: z^2 - 29/16 has the 3-cycle -1/4, -7/4, 5/4
    and reduces mod 3 to a fixed point with multiplier 1.
    """
    if o.lam == 0:
        return frozenset((o.m,))
    if o.p == 3:
        return frozenset((o.m, o.m * o.r, 3 * o.m * o.r))
    return frozenset((o.m, o.m * o.r))
