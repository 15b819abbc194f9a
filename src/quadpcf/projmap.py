"""Quadratic rational maps on P^1 over Q.

A map is a pair of integer-coefficient binary quadratic forms (F, G),
content-normalized with a fixed sign convention, acting as
z -> F(z, 1) / G(z, 1) on the affine chart; every constructor builds
integer forms.  This module builds the standard normal form from the
sigma-invariants, computes the resultant, the Wronskian critical points
and the sigma-invariants, and evaluates maps at exact points with one
integer step for each kind of point: step for P^1(Q) and quad_step for
P^1(Q(sqrt(D))) outside it.  The resultant and the rational critical
points are ffdyn's, which the sieve's exact pass reads too.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Tuple

from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    PointValue,
    QuadPoint,
    Rat,
    RationalLike,
    squarefree_part,
)
from quadpcf.ffdyn import (family_bc, family_forms, form_resultant,
                           rational_critical_points, wronskian)


class DegenerateMapError(ValueError):
    """The coefficient pair does not define a degree-2 morphism."""


# ----------------------------------------------------------------------
# the map type
# ----------------------------------------------------------------------

FormCoeffs = Tuple[int, int, int]


def _normalize_forms(fc, gc):
    """Divide integer forms by their content and fix the sign convention."""
    ints = (*fc, *gc)
    if not all(type(x) is int for x in ints):
        raise TypeError(f"form coefficients must be ints, got {fc!r}/{gc!r}")
    g = gcd(*ints)
    if g == 0:
        raise DegenerateMapError("all six coefficients vanish")
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints[:3]), tuple(ints[3:])


def normal_form(n1: int, d1: int, n2: int, d2: int) -> Tuple[FormCoeffs, FormCoeffs]:
    """The forms (F, G) of the sigma pair (n1 / d1, n2 / d2), fractions in
    lowest terms: Milnor's normal form (Experiment. Math. 2, 1993) over the
    common denominator d1 * d2, divided by the content of the forms,
    gcd(d1 * d2, b, c) = gcd(d1 * d2, n1 * d2, n2 * d1) = gcd(d1, d2); f2 > 0
    already.  NormalizedQuadMap.from_sigmas and the sieve's exact pass both
    build their maps with it."""
    g = gcd(d1, d2)
    dd = d1 * d2
    b, c = family_bc(n1 * d2, n2 * d1, dd)
    return family_forms(b // g, c // g, dd // g)


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
        """Normal-form map with fixed-point multiplier invariants (s1, s2),
        the forms of normal_form.  Degenerate pairs are representable;
        callers detect them through a vanishing resultant.
        """
        s1, s2 = Rat(s1), Rat(s2)
        if s1.den == 0 or s2.den == 0:
            raise ValueError("sigma-invariants must be finite")
        return NormalizedQuadMap.from_normal_forms(
            *normal_form(s1.num, s1.den, s2.num, s2.den), sigmas=(s1, s2))

    @staticmethod
    def from_normal_forms(f_coeffs: FormCoeffs, g_coeffs: FormCoeffs,
                          sigmas: Optional[Tuple[ExtendedRational, ExtendedRational]] = None,
                          ) -> "NormalizedQuadMap":
        """The map of integer forms already divided by their content and
        with the sign convention, as tuples; trusted, so no gcd is
        taken."""
        self = object.__new__(NormalizedQuadMap)
        self.F, self.G, self.sigmas = f_coeffs, g_coeffs, sigmas
        return self

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

    def step(self, pt: Tuple[int, int]) -> Tuple[int, int]:
        """The image of a point (x, y) of P^1(Q) in lowest terms with
        y >= 0, infinity being (1, 0), as such a pair: (F(x, y) : G(x, y))
        after one sign fix and one gcd."""
        x, y = pt
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

    def quad_step(self, pt: QuadPoint) -> PointValue:
        """The image of a point (a + b*sqrt(D)) / c outside P^1(Q).

        At (a + b*sqrt(D) : c), F = u0 + u1*sqrt(D) and G = v0 + v1*sqrt(D),
        so the image is (u0*v0 - D*u1*v1 + (u1*v0 - u0*v1)*sqrt(D)) divided
        by the norm v0^2 - D*v1^2, after one sign fix and one gcd.  The norm
        vanishes only with G, since D is not a square, and then the image is
        infinity; a vanishing sqrt(D) part gives an ExtendedRational.
        """
        a, b, c, D = pt
        f2, f1, f0 = self.F
        g2, g1, g0 = self.G
        # x^2, x*y and y^2 for x = a + b*sqrt(D), y = c, as rational and
        # sqrt(D) parts
        xx0, xx1, xy0, xy1, yy = a * a + D * b * b, 2 * a * b, a * c, b * c, c * c
        u0 = f2 * xx0 + f1 * xy0 + f0 * yy
        u1 = f2 * xx1 + f1 * xy1
        v0 = g2 * xx0 + g1 * xy0 + g0 * yy
        v1 = g2 * xx1 + g1 * xy1
        n = v0 * v0 - D * v1 * v1
        if n == 0:
            if u0 == 0 and u1 == 0:
                raise DegenerateMapError(f"both forms vanish at {pt}")
            return INFINITY
        # u times the conjugate of v, over the norm n
        p0 = u0 * v0 - D * u1 * v1
        p1 = u1 * v0 - u0 * v1
        if n < 0:
            p0, p1, n = -p0, -p1, -n
        g = gcd(p0, p1, n)
        if p1 == 0:
            return ExtendedRational.from_pair(p0 // g, n // g)
        return QuadPoint(p0 // g, p1 // g, n // g, D)

    def apply(self, pt) -> PointValue:
        """Evaluate at an exact point of P^1 (rational or quadratic)."""
        if isinstance(pt, QuadPoint):
            return self.quad_step(pt)
        pt = Rat(pt)
        return ExtendedRational.from_pair(*self.step((pt.num, pt.den)))

    # -- critical points ---------------------------------------------------

    def critical_point_data(self, need_points: bool = True) -> "CriticalPoints":
        """The two critical points, the roots of the wronskian in P^1.

        Rational roots are those of ffdyn.rational_critical_points, as
        ExtendedRationals in the same order.  Otherwise the discriminant is
        s^2 * D as exact_arith.squarefree_part writes it, D not a square,
        and the roots are the conjugate pair of QuadPoints in Q(sqrt(D)),
        real for D > 0 and complex for D < 0.
        With need_points=False the irrational case skips the trial division
        that D needs; the sieve only dispatches on rationality.
        """
        w2, w1, w0 = self.wronskian()
        if w2 == 0 and w1 == 0:
            raise DegenerateMapError("wronskian is degenerate; not a degree-2 morphism")
        pairs = rational_critical_points(self.F, self.G, self.resultant())
        if pairs is not None:
            return CriticalPoints(tuple(ExtendedRational.from_pair(*z) for z in pairs), True)
        if not need_points:
            return CriticalPoints(None, False)
        sq, d = squarefree_part(w1 * w1 - 4 * w2 * w0)
        # the roots (-w1 +- sq*sqrt(d)) / (2*w2), with c > 0 and no common factor
        a, c = (-w1, 2 * w2) if w2 > 0 else (w1, -2 * w2)
        g = gcd(a, sq, c)
        a, b, c = a // g, sq // g, c // g
        return CriticalPoints((QuadPoint(a, b, c, d), QuadPoint(a, -b, c, d)), False)

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


class CriticalPoints(NamedTuple):
    points: Optional[Tuple[PointValue, PointValue]]
    rational: bool
