"""Quadratic rational maps on P^1 over Q.

A map is a pair of integer-coefficient binary quadratic forms (F, G),
content-normalized with a fixed sign convention, acting as
z -> F(z, 1) / G(z, 1) on the affine chart.  This module builds the
standard normal form from the sigma-invariants, computes Sylvester
resultants, Wronskian critical points, fixed-point multipliers and their
symmetric functions, evaluates and conjugates maps, and reduces them
modulo odd primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence, Tuple

from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    NegativeDiscriminantError,
    PointValue,
    QuadFieldElement,
    Rat,
    RationalLike,
    _as_rat,
    divisors,
    is_prime,
    quad_roots,
    squarefree_part,
)
from quadpcf.ffdyn import FpMap, family_bc, family_forms, form_resultant, wronskian


class DegenerateMapError(ValueError):
    """The coefficient pair does not define a degree-2 morphism."""


class UnsupportedFieldError(ValueError):
    """A value lives outside Q and the quadratic fields handled here."""


# ----------------------------------------------------------------------
# small exact linear algebra helpers
# ----------------------------------------------------------------------

def _det(rows) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for cc in range(col, n):
                    m[r][cc] -= f * m[col][cc]
    return det


def poly_resultant(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Resultant of two univariate polynomials given by coefficient lists.

    Coefficients are highest-degree first and the lists fix the FORMAL
    degrees: leading entries may be zero, matching the resultant of the
    polynomials viewed with those degrees (needed when specializing a
    parameter that can kill the leading term).
    """
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    rows = []
    for i in range(dq):
        rows.append([Fraction(0)] * i + [Fraction(x) for x in p] + [Fraction(0)] * (dq - 1 - i))
    for i in range(dp):
        rows.append([Fraction(0)] * i + [Fraction(x) for x in q] + [Fraction(0)] * (dp - 1 - i))
    assert all(len(r) == n for r in rows)
    return _det(rows)


# ----------------------------------------------------------------------
# Moebius transforms
# ----------------------------------------------------------------------

class MobiusTransform:
    """z -> (a z + b) / (c z + d) with integer entries and ad - bc != 0."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike):
        vals = [_as_rat(v) for v in (a, b, c, d)]
        for v in vals:
            v._require_finite()
        lcm = 1
        for v in vals:
            lcm = lcm * v.den // gcd(lcm, v.den)
        ints = [v.num * (lcm // v.den) for v in vals]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
        self.a, self.b, self.c, self.d = ints
        if self.det() == 0:
            raise ValueError("Moebius transform needs nonzero determinant")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "MobiusTransform":
        # adjugate; projectively the inverse
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    @staticmethod
    def identity() -> "MobiusTransform":
        return MobiusTransform(1, 0, 0, 1)

    def __call__(self, pt: PointValue) -> PointValue:
        if isinstance(pt, ExtendedRational) and pt.is_infinity():
            return Rat(self.a) / Rat(self.c) if self.c else INFINITY
        num = pt * self.a + self.b
        den = pt * self.c + self.d
        if isinstance(den, ExtendedRational) and den.is_zero():
            return INFINITY
        return num / den

    def __eq__(self, other):
        if not isinstance(other, MobiusTransform):
            return NotImplemented
        mine = (self.a, self.b, self.c, self.d)
        theirs = (other.a, other.b, other.c, other.d)
        return mine == theirs or mine == tuple(-x for x in theirs)

    def __hash__(self):
        t = (self.a, self.b, self.c, self.d)
        first = next(x for x in t if x)
        if first < 0:
            t = tuple(-x for x in t)
        return hash(t)

    def __repr__(self):
        return f"MobiusTransform({self.a}, {self.b}, {self.c}, {self.d})"


# ----------------------------------------------------------------------
# the map type
# ----------------------------------------------------------------------

FormCoeffs = Tuple[int, int, int]


def _normalize_forms(fc, gc):
    """Clear denominators, divide by content, fix the sign convention."""
    vals = [_as_rat(x) for x in (*fc, *gc)]
    for v in vals:
        v._require_finite()
    lcm = 1
    for v in vals:
        lcm = lcm * v.den // gcd(lcm, v.den)
    ints = [v.num * (lcm // v.den) for v in vals]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise DegenerateMapError("all six coefficients vanish")
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints[:3]), tuple(ints[3:])


class NormalizedQuadMap:
    """Degree-2 rational map as content-normalized integer binary forms.

    The first nonzero coefficient in the order (f2, f1, f0, g2, g1, g0) is
    positive, so equality of maps is plain tuple comparison.  When built
    from sigma-invariants the pair is kept as provenance.
    """

    __slots__ = ("F", "G", "sigmas")

    def __init__(self, f_coeffs, g_coeffs,
                 sigmas: Optional[Tuple[ExtendedRational, ExtendedRational]] = None):
        self.F, self.G = _normalize_forms(f_coeffs, g_coeffs)
        self.sigmas = sigmas

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_sigmas(s1: RationalLike, s2: RationalLike) -> "NormalizedQuadMap":
        """Normal-form map with fixed-point multiplier invariants (s1, s2).

        Degenerate pairs are representable; callers detect them through a
        vanishing resultant.
        """
        s1, s2 = _as_rat(s1), _as_rat(s2)
        return NormalizedQuadMap(*family_forms(*family_bc(s1, s2)), sigmas=(s1, s2))

    @staticmethod
    def from_str(text: str) -> "NormalizedQuadMap":
        ftext, gtext = text.strip().split("/")
        fc = [int(x) for x in ftext.strip().strip("[]").split(",")]
        gc = [int(x) for x in gtext.strip().strip("[]").split(",")]
        if len(fc) != 3 or len(gc) != 3:
            raise ValueError(f"expected [f2,f1,f0]/[g2,g1,g0], got {text!r}")
        return NormalizedQuadMap(fc, gc)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NormalizedQuadMap):
            return NotImplemented
        return self.F == other.F and self.G == other.G

    def __hash__(self):
        return hash((self.F, self.G))

    def __str__(self):
        return "[{},{},{}]/[{},{},{}]".format(*self.F, *self.G)

    __repr__ = __str__

    # -- algebraic data -----------------------------------------------------

    def resultant(self) -> int:
        """Resultant of F and G; zero signals a common factor."""
        return form_resultant(self.F, self.G)

    def wronskian(self) -> FormCoeffs:
        """Coefficients (w2, w1, w0) of F_x G_y - F_y G_x, divided by 2; the
        numerator of phi' in the affine chart."""
        return wronskian(self.F, self.G)

    # -- evaluation ------------------------------------------------------

    def step(self, x: int, y: int) -> Tuple[int, int]:
        """The image of a point (x : y) of P^1(Q) in lowest terms with
        y >= 0, infinity being (1 : 0), as such a pair: (F(x, y) : G(x, y))
        after one sign fix and one gcd."""
        f2, f1, f0 = self.F
        g2, g1, g0 = self.G
        xx, xy, yy = x * x, x * y, y * y
        u = f2 * xx + f1 * xy + f0 * yy
        v = g2 * xx + g1 * xy + g0 * yy
        if v == 0:
            if u == 0:
                raise DegenerateMapError(
                    f"both forms vanish at {ExtendedRational.from_pair(x, y)}")
            return 1, 0
        if v < 0:
            u, v = -u, -v
        g = gcd(u, v)
        return u // g, v // g

    def apply(self, pt) -> PointValue:
        """Evaluate at an exact point of P^1 (rational or quadratic)."""
        if isinstance(pt, (int, Fraction)):
            pt = Rat(pt)
        if isinstance(pt, ExtendedRational):
            return ExtendedRational.from_pair(*self.step(pt.num, pt.den))
        f2, f1, f0 = self.F
        g2, g1, g0 = self.G
        fx = (pt * f2 + f1) * pt + f0
        gx = (pt * g2 + g1) * pt + g0
        # field arithmetic collapses to ExtendedRational when sqrt(D) cancels
        f_zero = fx.is_zero() if isinstance(fx, ExtendedRational) else (
            fx.a.is_zero() and fx.b.is_zero())
        g_zero = gx.is_zero() if isinstance(gx, ExtendedRational) else (
            gx.a.is_zero() and gx.b.is_zero())
        if g_zero:
            if f_zero:
                raise DegenerateMapError(f"both forms vanish at {pt}")
            return INFINITY
        return fx / gx

    # -- critical points ---------------------------------------------------

    def critical_point_data(self, need_points: bool = True) -> "CriticalPoints":
        """Classify the wronskian roots; integer arithmetic on the hot path.

        With need_points=False the irrational cases skip the factorization
        needed to build explicit field elements; the sieve only dispatches
        on rationality.
        """
        w2, w1, w0 = self.wronskian()
        if w2 == 0 and w1 == 0:
            raise DegenerateMapError("wronskian is degenerate; not a degree-2 morphism")
        if w2 == 0:
            return CriticalPoints((Rat(-w0, w1), INFINITY), True, "rational", None)
        disc = w1 * w1 - 4 * w2 * w0
        if disc == 0:
            r = Rat(-w1, 2 * w2)
            return CriticalPoints((r, r), True, "rational", None)
        if disc < 0:
            return CriticalPoints(None, False, "complex", None)
        s = isqrt(disc)
        if s * s == disc:
            return CriticalPoints((Rat(-w1 + s, 2 * w2), Rat(-w1 - s, 2 * w2)),
                                  True, "rational", None)
        if not need_points:
            return CriticalPoints(None, False, "quadratic", None)
        sq, d = squarefree_part(disc)
        re = Rat(-w1, 2 * w2)
        co = abs(Rat(sq, 2 * w2))
        return CriticalPoints(
            (QuadFieldElement(re, co, d), QuadFieldElement(re, -co, d)),
            False, "quadratic", d)

    def critical_points(self):
        """The two critical points and whether both are rational.

        Raises NegativeDiscriminantError for complex critical points; the
        sieve handles those through critical_point_data instead.
        """
        data = self.critical_point_data()
        if data.field == "complex":
            raise NegativeDiscriminantError(
                "complex critical points (negative wronskian discriminant)")
        return data.points, data.rational

    # -- fixed points and multipliers ----------------------------------------

    def fixed_point_cubic(self) -> Tuple[int, int, int, int]:
        """Integer coefficients (c3, c2, c1, c0) of F(z) - z*G(z)."""
        f2, f1, f0 = self.F
        g2, g1, g0 = self.G
        return (-g2, f2 - g1, f1 - g0, f0)

    def fixed_point_multipliers(self) -> "MultiplierTriple":
        """Multipliers of the three fixed points, with multiplicity.

        Values are exact rationals or quadratic-field elements; maps whose
        fixed-point cubic is irreducible over Q are rejected since their
        multipliers live in a cubic field (out of scalar scope).
        """
        c3, c2, c1, c0 = self.fixed_point_cubic()
        coeffs = [c3, c2, c1, c0]
        deg = 3
        while deg > 0 and coeffs[0] == 0:
            coeffs.pop(0)
            deg -= 1
        mults = []
        inf_multiplicity = 3 - deg
        if inf_multiplicity > 0:
            # multiplier at a fixed infinity, via the conjugate by z -> 1/z
            lam_inf = Rat(self.wronskian()[0], self.F[0] ** 2)
            mults.extend([lam_inf] * inf_multiplicity)
        if deg > 0:
            rational_roots, leftover = _rational_roots(coeffs)
            for root, mult in rational_roots:
                lam = self._multiplier_at(root)
                mults.extend([lam] * mult)
            if leftover is not None:
                a, b, c = leftover
                disc = b * b - 4 * a * c
                s, d = squarefree_part(disc)
                if d == 1:
                    raise AssertionError("square discriminant after root extraction")
                re = Rat(-b, 2 * a)
                co = Rat(s, 2 * a)
                alpha = QuadFieldElement(re, co, d)
                lam = self._multiplier_at(alpha)
                if isinstance(lam, QuadFieldElement):
                    mults.extend([lam, lam.conjugate()])
                else:
                    mults.extend([lam, lam])
        if len(mults) != 3:
            raise AssertionError(f"expected 3 multipliers, got {len(mults)}")
        return MultiplierTriple(tuple(mults))

    def _multiplier_at(self, alpha):
        """phi'(alpha) for a finite fixed point alpha."""
        w2, w1, w0 = self.wronskian()
        g2, g1, g0 = self.G
        n_val = (alpha * w2 + w1) * alpha + w0
        g_val = (alpha * g2 + g1) * alpha + g0
        return n_val / (g_val * g_val)

    def sigma_invariants(self) -> Tuple[ExtendedRational, ExtendedRational]:
        """First two symmetric functions of the fixed-point multipliers.

        Computed from resultants of the fixed-point cubic, so the result is
        exact even when individual multipliers are irrational or complex.
        """
        m = self
        if m.G[0] == 0:
            # move infinity off the fixed locus first
            for a in range(5):
                img = m.apply(Rat(a))
                if img != Rat(a):
                    m = m.conjugate(MobiusTransform(0, 1, 1, -a))
                    break
            else:
                raise DegenerateMapError("could not displace fixed infinity")
            if m.G[0] == 0:
                raise AssertionError("conjugation failed to move infinity")
        p_coeffs = list(m.fixed_point_cubic())                  # degree 3, c3 != 0
        w2, w1, w0 = m.wronskian()
        g2, g1, g0 = m.G
        gsq = [g2 * g2, 2 * g2 * g1, g1 * g1 + 2 * g2 * g0, 2 * g1 * g0, g0 * g0]
        n_ext = [0, 0, w2, w1, w0]
        res_pg = poly_resultant(p_coeffs, [g2, g1, g0])
        if res_pg == 0:
            raise DegenerateMapError("fixed cubic shares a root with G; resultant is zero")
        # M(t) = Res_z(P, t*G^2 - N) / Res_z(P, G)^2 is monic cubic in t with
        # roots the three multipliers; recover it by interpolation at t=0..3.
        vals = []
        for t in range(4):
            q = [t * a - b for a, b in zip(gsq, n_ext)]
            vals.append(poly_resultant(p_coeffs, q) / res_pg ** 2)
        d1 = [vals[i + 1] - vals[i] for i in range(3)]
        d2 = [d1[i + 1] - d1[i] for i in range(2)]
        d3 = d2[1] - d2[0]
        # Newton forward differences on nodes 0,1,2,3
        a3 = d3 / 6
        a2 = d2[0] / 2 - a3 * 3
        a1 = d1[0] - a2 - a3
        if a3 != 1:
            raise AssertionError(f"multiplier polynomial not monic: {a3}")
        s1 = Rat(-a2.numerator, a2.denominator)
        s2 = Rat(a1.numerator, a1.denominator)
        return (s1, s2)

    # -- conjugation ---------------------------------------------------------

    def conjugate(self, f: MobiusTransform) -> "NormalizedQuadMap":
        """The map f . phi . f^{-1}, content-normalized.

        Sigma-invariants are conjugation invariants, so provenance carries over.
        """
        a, b, c, d = f.a, f.b, f.c, f.d
        # act by the adjugate on the source: (x, y) -> (d x - b y, -c x + a y)
        h1 = _substitute(self.F, d, -b, -c, a)
        h2 = _substitute(self.G, d, -b, -c, a)
        new_f = tuple(a * x + b * y for x, y in zip(h1, h2))
        new_g = tuple(c * x + d * y for x, y in zip(h1, h2))
        return NormalizedQuadMap(new_f, new_g, sigmas=self.sigmas)

    # -- reduction ---------------------------------------------------------

    def reduce_mod_p(self, p: int):
        """FpMap over F_p, or BAD_REDUCTION when p divides the resultant."""
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if self.resultant() % p == 0:
            return BAD_REDUCTION
        return FpMap(p, tuple(x % p for x in self.F), tuple(x % p for x in self.G))


class _BadReduction:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BAD_REDUCTION"

    def __bool__(self):
        return False


BAD_REDUCTION = _BadReduction()


def _substitute(form: FormCoeffs, u: int, v: int, w: int, t: int) -> FormCoeffs:
    """Coefficients of Q(x, y) = form(u x + v y, w x + t y)."""
    q2, q1, q0 = form
    return (
        q2 * u * u + q1 * u * w + q0 * w * w,
        2 * q2 * u * v + q1 * (u * t + v * w) + 2 * q0 * w * t,
        q2 * v * v + q1 * v * t + q0 * t * t,
    )


@dataclass(frozen=True)
class CriticalPoints:
    points: Optional[Tuple[PointValue, PointValue]]
    rational: bool
    field: str          # "rational" | "quadratic" | "complex"
    D: Optional[int]


@dataclass(frozen=True)
class MultiplierTriple:
    """The three fixed-point multipliers, counted with multiplicity."""

    values: Tuple[PointValue, PointValue, PointValue]

    def elementary_symmetric(self) -> Tuple[PointValue, PointValue, PointValue]:
        l1, l2, l3 = self.values
        return (l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3)


def _rational_roots(coeffs):
    """Rational roots (with multiplicity) of an integer polynomial.

    Returns ([(root, multiplicity), ...], leftover) where leftover is the
    remaining quadratic as integer (a, b, c), or None if fully split.  A
    leftover of degree 3 (irreducible cubic) raises UnsupportedFieldError.
    """
    work = [Fraction(x) for x in coeffs]
    roots = []

    def poly_eval(cs, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in cs:
            acc = acc * x + c
        return acc

    def deflate(cs, x: Fraction):
        out = [cs[0]]
        for c in cs[1:-1]:
            out.append(out[-1] * x + c)
        return out

    while len(work) > 3:
        # strip trailing zero roots first
        if work[-1] == 0:
            root = Fraction(0)
        else:
            num = work[-1].numerator * work[0].denominator
            den = work[0].numerator * work[-1].denominator
            root = None
            cands = set()
            for pn in divisors(abs(num)):
                for qn in divisors(abs(den)):
                    cands.add(Fraction(pn, qn))
                    cands.add(Fraction(-pn, qn))
            for cand in sorted(cands):
                if poly_eval(work, cand) == 0:
                    root = cand
                    break
            if root is None:
                raise UnsupportedFieldError(
                    "fixed-point cubic is irreducible over Q; multipliers live in "
                    "a cubic field")
        work = deflate(work, root)
        mult = 1
        while len(work) > 1 and poly_eval(work, root) == 0:
            work = deflate(work, root)
            mult += 1
        roots.append((Rat(root), mult))
    if len(work) == 3:
        a, b, c = work
        disc = b * b - 4 * a * c
        from math import isqrt
        n, d = (disc.numerator, disc.denominator)
        if n >= 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d:
            r1, r2 = quad_roots(Rat(a.numerator, a.denominator),
                                Rat(b.numerator, b.denominator),
                                Rat(c.numerator, c.denominator))
            for r in sorted({r1, r2}, key=lambda x: (x.num, x.den)):
                mult = sum(1 for x in (r1, r2) if x == r)
                roots.append((r, mult))
            return roots, None
        lcm = a.denominator
        for v in (b, c):
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        return roots, (int(a * lcm), int(b * lcm), int(c * lcm))
    if len(work) == 2:
        roots.append((Rat(Fraction(-work[1], work[0])), 1))
    return roots, None
