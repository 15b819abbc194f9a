"""Independent reference implementations the tests compare the package with.

None of this is reached from a command.  Each oracle computes by another
route something the package computes directly:

- fixed-point multipliers from the roots of the fixed-point cubic, whose
  first two symmetric functions are NormalizedQuadMap.sigma_invariants;
- Sylvester resultants by Gaussian elimination over Fraction, against the
  closed-form ffdyn.form_resultant;
- Moebius conjugation, for the equivariance properties;
- the period-set tables of one prime by plain loops over ffdyn's scalar
  orbit splitter, against sievedb.period_entries;
- postcritical sets, read off a verified portrait.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence, Set, Tuple

import numpy as np

from quadpcf import ffdyn
from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    PointValue,
    QuadFieldElement,
    Rat,
    RationalLike,
    _as_rat,
    divisors,
    quad_roots,
    squarefree_part,
)
from quadpcf.ffdyn import FpMap
from quadpcf.pcfverify import PcfStatus
from quadpcf.projmap import FormCoeffs, NormalizedQuadMap


class UnsupportedFieldError(ValueError):
    """A value lives outside Q and the quadratic fields handled here."""


# ----------------------------------------------------------------------
# Sylvester resultants over Fraction
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
# Moebius transforms and conjugation
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


def _substitute(form: FormCoeffs, u: int, v: int, w: int, t: int) -> FormCoeffs:
    """Coefficients of Q(x, y) = form(u x + v y, w x + t y)."""
    q2, q1, q0 = form
    return (
        q2 * u * u + q1 * u * w + q0 * w * w,
        2 * q2 * u * v + q1 * (u * t + v * w) + 2 * q0 * w * t,
        q2 * v * v + q1 * v * t + q0 * t * t,
    )


def conjugate(phi: NormalizedQuadMap, f: MobiusTransform) -> NormalizedQuadMap:
    """The map f . phi . f^{-1}, content-normalized.

    Sigma-invariants are conjugation invariants, so provenance carries over.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    # act by the adjugate on the source: (x, y) -> (d x - b y, -c x + a y)
    h1 = _substitute(phi.F, d, -b, -c, a)
    h2 = _substitute(phi.G, d, -b, -c, a)
    new_f = tuple(a * x + b * y for x, y in zip(h1, h2))
    new_g = tuple(c * x + d * y for x, y in zip(h1, h2))
    return NormalizedQuadMap(new_f, new_g, sigmas=phi.sigmas)


# ----------------------------------------------------------------------
# fixed points and their multipliers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierTriple:
    """The three fixed-point multipliers, counted with multiplicity."""

    values: Tuple[PointValue, PointValue, PointValue]

    def elementary_symmetric(self) -> Tuple[PointValue, PointValue, PointValue]:
        l1, l2, l3 = self.values
        return (l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3)


def fixed_point_cubic(phi: NormalizedQuadMap) -> Tuple[int, int, int, int]:
    """Integer coefficients (c3, c2, c1, c0) of F(z) - z*G(z)."""
    f2, f1, f0 = phi.F
    g2, g1, g0 = phi.G
    return (-g2, f2 - g1, f1 - g0, f0)


def fixed_point_multipliers(phi: NormalizedQuadMap) -> MultiplierTriple:
    """Multipliers of the three fixed points, with multiplicity.

    Values are exact rationals or quadratic-field elements; maps whose
    fixed-point cubic is irreducible over Q are rejected since their
    multipliers live in a cubic field (out of scalar scope).
    """
    coeffs = list(fixed_point_cubic(phi))
    deg = 3
    while deg > 0 and coeffs[0] == 0:
        coeffs.pop(0)
        deg -= 1
    mults = []
    inf_multiplicity = 3 - deg
    if inf_multiplicity > 0:
        # multiplier at a fixed infinity, via the conjugate by z -> 1/z
        lam_inf = Rat(phi.wronskian()[0], phi.F[0] ** 2)
        mults.extend([lam_inf] * inf_multiplicity)
    if deg > 0:
        rational_roots, leftover = _rational_roots(coeffs)
        for root, mult in rational_roots:
            lam = _multiplier_at(phi, root)
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
            lam = _multiplier_at(phi, alpha)
            if isinstance(lam, QuadFieldElement):
                mults.extend([lam, lam.conjugate()])
            else:
                mults.extend([lam, lam])
    if len(mults) != 3:
        raise AssertionError(f"expected 3 multipliers, got {len(mults)}")
    return MultiplierTriple(tuple(mults))


def _multiplier_at(phi: NormalizedQuadMap, alpha):
    """phi'(alpha) for a finite fixed point alpha."""
    w2, w1, w0 = phi.wronskian()
    g2, g1, g0 = phi.G
    n_val = (alpha * w2 + w1) * alpha + w0
    g_val = (alpha * g2 + g1) * alpha + g0
    return n_val / (g_val * g_val)


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


# ----------------------------------------------------------------------
# period sets of one prime, by plain loops
# ----------------------------------------------------------------------

def scalar_period_entries(p: int):
    """Reference for period_entries over all p^2 keys, row b * p + c: plain
    loops with the scalar orbit splitter."""
    present = np.zeros(p * p, dtype=bool)
    points = np.zeros((p * p, 2), dtype=np.int64)
    periods = np.zeros((p * p, 4), dtype=np.int64)
    for b in range(p):
        for c in range(p):
            F, G = ffdyn.family_forms(b, c)
            if ffdyn.form_resultant(F, G) % p == 0:
                continue
            fmap = FpMap(p, F, G)
            crit = fmap.critical_point_indices()
            if crit is None:
                continue
            k = b * p + c
            present[k] = True
            points[k] = crit
            for i, pt in enumerate(crit):
                # the set is {m} or {m, m * r}; a missing m * r is stored as 0
                per = sorted(ffdyn.possible_periods(ffdyn.orbit_data(fmap, pt)))
                periods[k, 2 * i:2 * i + 2] = (per + [0])[:2]
    return present, points, periods


# ----------------------------------------------------------------------
# postcritical sets
# ----------------------------------------------------------------------

def postcritical_set(status: PcfStatus) -> Set[PointValue]:
    """Union of the strict forward orbits of the critical points."""
    if not status.verified or status.portrait is None:
        raise ValueError("postcritical set needs a verified portrait")
    pc: Set[PointValue] = set()
    for gamma in status.portrait.critical:
        cur = status.portrait.successor[gamma]
        while cur not in pc:
            pc.add(cur)
            cur = status.portrait.successor[cur]
    return pc
