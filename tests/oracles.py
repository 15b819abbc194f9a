"""Independent reference implementations the tests compare the package with.

None of this is reached from a command.  Each oracle computes by another
route something the package computes directly:

- fixed-point multipliers from the roots of the fixed-point cubic, whose
  first two symmetric functions are NormalizedQuadMap.sigma_invariants;
- Sylvester resultants by Gaussian elimination over Fraction, against the
  closed-form ffdyn.form_resultant;
- Moebius conjugation, for the equivariance properties;
- arithmetic in Q(sqrt(d)) over pairs of Fractions, for the multipliers,
  the Moebius action on quadratic points and the integer step
  NormalizedQuadMap.quad_step;
- the critical points and period sets of a map mod p by plain loops,
  against ffdyn.critical_periods and the reference database built from
  it: critical points by trying every point of P^1(F_p), orbits by
  FpMap.step_index and a dict of visited points, multipliers as products
  of chart derivatives of the dehomogenised forms with pow inverses, the
  multiplier's order by repeated multiplication and Morton and
  Silverman's rule written out.  None of it shares code with ffdyn's
  walk, its tables or its period rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm
from typing import FrozenSet, List, Optional, Sequence, Tuple

from quadpcf import ffdyn
from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    PointValue,
    QuadPoint,
    Rat,
    _factorize,
    squarefree_part,
)
from quadpcf.ffdyn import FpMap
from quadpcf.projmap import FormCoeffs, NormalizedQuadMap
from quadpcf.sievedb import DbEntry


class UnsupportedFieldError(ValueError):
    """A value lives outside Q and the quadratic fields handled here."""


# ----------------------------------------------------------------------
# Q(sqrt(d)) over Fraction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Surd:
    """x + y*sqrt(d) with Fraction parts and d not a square: field
    arithmetic by the textbook formulas, which the package does not have."""

    x: Fraction
    y: Fraction
    d: int

    @staticmethod
    def of(v, d: int) -> "Surd":
        """An int, a Fraction, a finite ExtendedRational or a QuadPoint
        (which brings its own d) as an element of Q(sqrt(d))."""
        if isinstance(v, Surd):
            return v
        if isinstance(v, QuadPoint):
            return Surd(Fraction(v.a, v.c), Fraction(v.b, v.c), v.D)
        if isinstance(v, ExtendedRational):
            if v.is_infinity():
                raise ValueError("infinity is not an element of a field")
            v = Fraction(v.num, v.den)
        return Surd(Fraction(v), Fraction(0), d)

    def _operand(self, other) -> "Surd":
        o = Surd.of(other, self.d)
        if o.d != self.d:
            raise ValueError(f"mixing sqrt({self.d}) with sqrt({o.d})")
        return o

    def __bool__(self):
        return bool(self.x or self.y)

    def __add__(self, other):
        o = self._operand(other)
        return Surd(self.x + o.x, self.y + o.y, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.x, -self.y, self.d)

    def __sub__(self, other):
        return self + -self._operand(other)

    def __mul__(self, other):
        o = self._operand(other)
        return Surd(self.x * o.x + self.d * self.y * o.y,
                    self.x * o.y + self.y * o.x, self.d)

    __rmul__ = __mul__

    def conjugate(self) -> "Surd":
        return Surd(self.x, -self.y, self.d)

    def __truediv__(self, other):
        o = self._operand(other)
        norm = o.x * o.x - self.d * o.y * o.y
        q = self * o.conjugate()
        return Surd(q.x / norm, q.y / norm, self.d)

    def point(self) -> PointValue:
        """The package's value: a Rat when y = 0, else the QuadPoint over
        the least common denominator."""
        if not self.y:
            return Rat(self.x)
        c = lcm(self.x.denominator, self.y.denominator)
        return QuadPoint(int(self.x * c), int(self.y * c), c, self.d)


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
    """z -> (a z + b) / (c z + d) with integer entries and ad - bc != 0;
    int or Fraction entries are scaled to coprime integers."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        vals = [Fraction(v) for v in (a, b, c, d)]
        den = lcm(*(v.denominator for v in vals))
        ints = [int(v * den) for v in vals]
        g = gcd(*ints) or 1
        self.a, self.b, self.c, self.d = (x // g for x in ints)
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
            return Rat(self.a, self.c) if self.c else INFINITY
        z = Surd.of(pt, 0)
        den = z * self.c + self.d
        if not den:
            return INFINITY
        return ((z * self.a + self.b) / den).point()

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


def field_conjugate(x: PointValue) -> PointValue:
    """(a - b sqrt(D)) / c for x = (a + b sqrt(D)) / c; a rational is its
    own conjugate."""
    if isinstance(x, QuadPoint):
        return x._replace(b=-x.b)
    return x


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
        d = next((v.D for v in self.values if isinstance(v, QuadPoint)), 0)
        l1, l2, l3 = (Surd.of(v, d) for v in self.values)
        return tuple(e.point() for e in (
            l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3))


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
            lam = _multiplier_at(phi, Surd.of(root, 0))
            mults.extend([lam] * mult)
        if leftover is not None:
            a, b, c = leftover
            disc = b * b - 4 * a * c
            s, d = squarefree_part(disc)
            if d == 1:
                raise AssertionError("square discriminant after root extraction")
            alpha = Surd(Fraction(-b, 2 * a), Fraction(s, 2 * a), d)
            lam = _multiplier_at(phi, alpha)
            mults.extend([lam, field_conjugate(lam)])
    if len(mults) != 3:
        raise AssertionError(f"expected 3 multipliers, got {len(mults)}")
    return MultiplierTriple(tuple(mults))


def _multiplier_at(phi: NormalizedQuadMap, alpha: Surd) -> PointValue:
    """phi'(alpha) for a finite fixed point alpha."""
    w2, w1, w0 = phi.wronskian()
    g2, g1, g0 = phi.G
    n_val = (alpha * w2 + w1) * alpha + w0
    g_val = (alpha * g2 + g1) * alpha + g0
    return (n_val / (g_val * g_val)).point()


def divisors(n: int) -> List[int]:
    """Positive divisors of n >= 1, ascending."""
    divs = [1]
    for q, e in _factorize(n).items():
        divs = [d * q ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


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
            s = Fraction(isqrt(n), isqrt(d))
            r1, r2 = Rat((-b + s) / (2 * a)), Rat((-b - s) / (2 * a))
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

def _value_and_slope(form, z: int) -> Tuple[int, int]:
    """Q(z) and Q'(z) of the dehomogenised form Q = q2 z^2 + q1 z + q0."""
    q2, q1, q0 = form
    return q2 * z * z + q1 * z + q0, 2 * q2 * z + q1


def _chart_derivative(p: int, F, G, z: int) -> int:
    """The derivative mod p of the map z -> F(z) / G(z) at z in P^1(F_p)
    (p is infinity), in the chart z at a finite point and 1/z at infinity,
    on the source and on the target side alike, so that the product along
    a cycle is its multiplier.  F and G must share no root mod p."""
    if z == p:
        # in w = 1/z the map is F~(w) / G~(w) with F~(w) = f2 + f1 w + f0 w^2,
        # or G~(w) / F~(w) when infinity is fixed; the derivative at w = 0
        (f2, f1, _), (g2, g1, _) = F, G
        if g2 % p:
            return (f1 * g2 - f2 * g1) * pow(g2, -2, p) % p
        return (g1 * f2 - g2 * f1) * pow(f2, -2, p) % p
    f, df = _value_and_slope(F, z)
    g, dg = _value_and_slope(G, z)
    if g % p:
        return (df * g - f * dg) * pow(g, -2, p) % p
    # a pole: in the chart 1/z of the target the map is G / F
    return (dg * f - g * df) * pow(f, -2, p) % p


def naive_cycle(p: int, F, G, z: int) -> List[int]:
    """The cycle that the orbit of z under the map (F, G) mod p reaches,
    from the point where the orbit enters it."""
    fmap = FpMap(p, F, G)
    seen, orbit = {}, []
    while z not in seen:
        seen[z] = len(orbit)
        orbit.append(z)
        z = fmap.step_index(z)
    return orbit[seen[z]:]


def naive_cycle_periods(p: int, F, G, cycle: Sequence[int]) -> FrozenSet[int]:
    """The admissible global periods of a point whose reduction mod p lies
    in this cycle of the map (F, G), by Morton and Silverman's rule."""
    m = len(cycle)
    lam = 1
    for x in cycle:
        lam = lam * _chart_derivative(p, F, G, x) % p
    if lam == 0:
        return frozenset({m})
    # the order of lam, by repeated multiplication
    r, power = 1, lam
    while power != 1:
        power = power * lam % p
        r += 1
    periods = {m, m * r}
    if p == 3:
        # Zieve's bound leaves a power of p in the period only at p = 3
        periods.add(3 * m * r)
    return frozenset(periods)


def _resultant_mod(F, G, p: int) -> int:
    """The Sylvester resultant of two quadratic forms mod p, by Gaussian
    elimination over F_p."""
    m = [[*F, 0], [0, *F], [*G, 0], [0, *G]]
    det = 1
    for col in range(4):
        pivot = next((r for r in range(col, 4) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, 4):
            f = m[r][col] * inv
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return det


def naive_critical_periods(p: int, F, G):
    """ffdyn.critical_periods by plain loops: None where the map drops
    degree mod p (a Sylvester resultant divisible by p), () where no point
    of P^1(F_p) is critical, else each of the two critical points,
    ascending with infinity (= p) last, with the periods of the cycle its
    orbit reaches.  The critical points are found by trying every point."""
    F, G = tuple(x % p for x in F), tuple(x % p for x in G)
    if _resultant_mod(F, G, p) == 0:
        return None
    # at a finite z the chart derivative is N = F'G - FG' times a unit,
    # 1 / G^2 or, at a pole, -1 / F^2.  The z^3 terms of N cancel, so its
    # values at -1, 0 and 1 give its coefficients, and it is tried at every z
    n = {}
    for z in (-1, 0, 1):
        (f, df), (g, dg) = _value_and_slope(F, z), _value_and_slope(G, z)
        n[z] = df * g - f * dg
    n2, n1, n0 = ((n[1] + n[-1]) // 2 - n[0]) % p, (n[1] - n[-1]) // 2 % p, n[0] % p
    # two distinct critical points, the wronskian's discriminant being
    # 4 * resultant, both rational or neither: the search stops at the
    # second, or at the first when infinity is the other
    inf_critical = _chart_derivative(p, F, G, p) == 0
    crit = list(islice((z for z in range(p) if ((n2 * z + n1) * z + n0) % p == 0),
                       2 - inf_critical))
    if inf_critical:
        crit.append(p)
    assert len(crit) in (0, 2), crit
    return tuple((z, naive_cycle_periods(p, F, G, naive_cycle(p, F, G, z))) for z in crit)


class ScalarDatabase:
    """sievedb.Database's lookup by naive_critical_periods, one key at a
    time and memoised, so it covers any prime the sieve takes without the
    p^2 keys of build_db."""

    def __init__(self):
        self.memo = {}

    def lookup(self, p: int, b: int, c: int) -> Optional[DbEntry]:
        key = (p, b % p, c % p)
        if key not in self.memo:
            crit = naive_critical_periods(p, *ffdyn.family_forms(*key[1:]))
            self.memo[key] = DbEntry(
                p=p, points=tuple(z for z, _ in crit),
                period_sets=tuple(s for _, s in crit)) if crit else None
        return self.memo[key]
