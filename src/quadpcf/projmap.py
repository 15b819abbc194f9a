"""Quadratic rational maps on P^1 over Q.

A map is a pair of integer-coefficient binary quadratic forms (F, G),
content-normalized with a fixed sign convention, acting as
z -> F(z, 1) / G(z, 1) on the affine chart.  This module builds the
standard normal form from the sigma-invariants, computes the resultant,
the Wronskian critical points and the sigma-invariants, and evaluates
maps at exact points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Tuple

from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    NegativeDiscriminantError,
    PointValue,
    QuadFieldElement,
    Rat,
    RationalLike,
    _as_rat,
    squarefree_part,
)
from quadpcf.ffdyn import family_bc, family_forms, form_resultant, wronskian


class DegenerateMapError(ValueError):
    """The coefficient pair does not define a degree-2 morphism."""


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

    # -- sigma-invariants ----------------------------------------------------

    def sigma_invariants(self) -> Tuple[ExtendedRational, ExtendedRational]:
        """First two symmetric functions of the fixed-point multipliers.

        They are N1 / Res and N2 / Res, with N1 and N2 integer quartics in
        the six coefficients and Res the resultant, their only denominator
        (Silverman, "The space of rational maps on P^1", Duke Math. J.
        1998).  So the denominator of each sigma divides the resultant, and
        the formula holds where infinity is fixed as well.
        """
        res = self.resultant()
        if res == 0:
            raise DegenerateMapError("resultant is zero; not a degree-2 morphism")
        f2, f1, f0 = self.F
        g2, g1, g0 = self.G
        n1 = (f0 * (-6 * f0 * g2 * g2 - 4 * f1 * f2 * g2 + 4 * f1 * g1 * g2
                    + 4 * f2 * f2 * g1 + 4 * f2 * g0 * g2 - 2 * f2 * g1 * g1
                    - 4 * g0 * g1 * g2 + g1 ** 3)
              + f1 * (f1 * f1 * g2 - f1 * f2 * g1 - 2 * f1 * g0 * g2
                      + 4 * g0 * g0 * g2 - g0 * g1 * g1)
              + 2 * f2 * f2 * g0 * g0)
        n2 = (f0 * (12 * f0 * g2 * g2 + 10 * f1 * f2 * g2 - 7 * f1 * g1 * g2
                    + 4 * f2 ** 3 - 4 * f2 * f2 * g1 - 4 * f2 * g0 * g2
                    + 5 * f2 * g1 * g1 + 10 * g0 * g1 * g2 - 2 * g1 ** 3)
              + f1 * (-2 * f1 * f1 * g2 - f1 * f2 * f2 + 5 * f1 * g0 * g2
                      - f1 * g1 * g1 + 2 * f2 * f2 * g0 - f2 * g0 * g1
                      - 4 * g0 * g0 * g2)
              + g0 * g0 * (2 * f2 * g1 + 4 * g0 * g2 - g1 * g1))
        return Rat(n1, res), Rat(n2, res)


@dataclass(frozen=True)
class CriticalPoints:
    points: Optional[Tuple[PointValue, PointValue]]
    rational: bool
    field: str          # "rational" | "quadratic" | "complex"
    D: Optional[int]
