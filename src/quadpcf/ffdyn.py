"""Dynamics of quadratic maps over prime fields F_p.

Orbits of points under a degree-2 map of P^1(F_p) are finite, so a single
pass with a visited-index table splits them exactly into tail + cycle.
The cycle multiplier (product of chart-correct local derivatives along the
cycle) and its multiplicative order r turn a mod-p cycle length m into the
admissible set of global periods: {m} for a zero multiplier, else {m, m*r},
and at p = 3 also 3*m*r.  One table-driven walk does this for orbit_data
and for critical_periods, which the sieve and the reference database
take their period sets from: it reads the inverse, square-root and
discrete-log tables of p, built once per prime, and walks both critical
points through one visited table.  The tests check it against a
plain-loop oracle that shares none of its code.  The normal-form family,
its key and the wronskian and resultant of two forms, which projmap, the
sieve and the reference database share, are defined here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from quadpcf.exact_arith import _factorize

PeriodSet = FrozenSet[int]

# the sieves' prime bound, kept here so that the command line validates its
# configuration without loading a sieve.  The paper's largest prime is
# 739.  It bounds the work of one prime: the sieve builds tables of p
# entries per prime, and the reference database (sievedb) walks all p^2
# keys of each prime
LANE_PRIME_LIMIT = 1 << 11
# h1 * h2 bounds the size of a run: a box holds about 1.5 * (h1 * h2)^2
# sigma-pairs, 25 million at the bound
MAX_HEIGHT_PRODUCT = 1 << 12


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
    at (b / d, c / d) as integer forms (F, G) times d."""
    return (2 * d, b, b), (-d, 4 * d - b, c)


def family_bc(s1, s2, d=1):
    """The family key (b, c) = (2 - s1, 2 - s1 - s2) of the normal form with
    fixed-point multiplier invariants (s1 / d, s2 / d), times d."""
    b = 2 * d - s1
    return b, b - s2


def wronskian(F, G):
    """Coefficients (w2, w1, w0) of (F_x G_y - F_y G_x) / 2 for integer
    forms; its roots are the critical points."""
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
    """A square root of a mod an odd prime p, or None, from p's tables."""
    s = prime_tables(p).sqrt[a % p]
    return None if s < 0 else s


# ----------------------------------------------------------------------
# tables of a prime
# ----------------------------------------------------------------------

class PrimeTables(NamedTuple):
    """Inverses, square roots and discrete logs to a primitive root mod p,
    indexed by residue: a non-square's root is -1, and 0 has inverse, root
    and log 0."""

    inv: Tuple[int, ...]
    sqrt: Tuple[int, ...]
    log: Tuple[int, ...]


def _primitive_root(p: int) -> int:
    factors = _factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


@lru_cache(maxsize=None)
def prime_tables(p: int) -> PrimeTables:
    """The tables of an odd prime p, built once per process, from the powers
    of a primitive root g: g^t has inverse g^(p - 1 - t) and log t, and
    g^(2u) the roots +-g^u, of which the smaller is kept."""
    g = _primitive_root(p)
    pw = [1] * (p - 1)
    for t in range(1, p - 1):
        pw[t] = pw[t - 1] * g % p
    inv, sqrt, log = [0] * p, [-1] * p, [0] * p
    sqrt[0] = 0
    for t, x in enumerate(pw):
        inv[x] = pw[-t]
        log[x] = t
    for u in range((p - 1) // 2):
        sqrt[pw[2 * u]] = min(pw[u], p - pw[u])
    return PrimeTables(tuple(inv), tuple(sqrt), tuple(log))


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


def _walk(p: int, F, G, W, starts, inv) -> List[Tuple[Optional[int], int, int]]:
    """(tail, m, lam) of the orbit of each start under the map (F, G) mod
    p, with wronskian W, all reduced mod p, and the inverse table inv.

    All walks share one visited table.  A walk that reaches a point of an
    earlier one stops there and takes that walk's cycle, with tail None.
    The multiplier is the product of the derivative factors W(z) / G(z)^2
    along the cycle, in the chart 1/z at a pole and at infinity.
    """
    f2, f1, f0 = F
    g2, g1, g0 = G
    w2, w1, w0 = W
    inf_img = f2 * inv[g2] % p if g2 else p
    pos = [-1] * (p + 1)   # visited point -> its position
    order = []             # the visited points in order
    firsts, out = [], []
    for z in starts:
        first = len(order)
        firsts.append(first)
        while pos[z] < 0:
            pos[z] = len(order)
            order.append(z)
            if z == p:
                z = inf_img
            else:
                g = ((g2 * z + g1) * z + g0) % p
                z = ((f2 * z + f1) * z + f0) * inv[g] % p if g else p
        at = pos[z]
        if at < first:
            k = len(out) - 1
            while firsts[k] > at:
                k -= 1
            out.append((None, *out[k][1:]))
            continue
        lam = 1
        for z in order[at:]:
            if z == p:
                # in the chart 1/z: W's leading coefficient over f2^2 or -g2^2
                lam = lam * w2 * (-inv[g2] ** 2 if g2 else inv[f2] ** 2) % p
                continue
            w = (w2 * z + w1) * z + w0
            g = ((g2 * z + g1) * z + g0) % p
            if g:
                lam = lam * w * inv[g] ** 2 % p
            else:
                lam = -lam * w * inv[((f2 * z + f1) * z + f0) % p] ** 2 % p
        out.append((at - first, len(order) - at, lam))
    return out


def orbit_data(fmap: FpMap, start: int) -> OrbitData:
    """Exact tail/cycle split of the forward orbit of the point with index
    start (p for infinity), with cycle multiplier."""
    p = fmap.p
    ((tail, m, lam),) = _walk(p, fmap.F, fmap.G, fmap.wronskian(), (start,),
                              prime_tables(p).inv)
    return OrbitData(p=p, tail=tail, m=m, lam=lam, r=mult_order(lam, p) if lam else None)


def mult_order(lam: int, p: int) -> int:
    """Least r >= 1 with lam^r = 1 in F_p^x: (p - 1) / gcd(log lam, p - 1)."""
    lam %= p
    if lam == 0:
        raise ValueError("zero has no multiplicative order")
    return (p - 1) // gcd(prime_tables(p).log[lam], p - 1)


def possible_periods(o: OrbitData) -> PeriodSet:
    """Admissible exact global periods for a point of P^1(Q), or of a
    quadratic field in which p does not ramify, reducing into this cycle.

    By Morton and Silverman (IMRN 1994) the period is m, m*r or m*r*p^e
    with e >= 1, and m alone for a zero multiplier.  Zieve's bound
    p^(e - 1) <= 2v / (p - 1), v the ramification index of p, leaves with
    v = 1 only p = 3 and e = 1: z^2 - 29/16 has the 3-cycle -1/4, -7/4, 5/4
    and reduces mod 3 to a fixed point with multiplier 1.
    """
    return _period_rule(o.p, o.m, o.r)


def _period_rule(p: int, m: int, r: Optional[int]) -> PeriodSet:
    """possible_periods of a cycle of length m whose multiplier has order
    r, None for a zero multiplier."""
    if r is None:
        return frozenset((m,))
    if p == 3:
        return frozenset((m, m * r, 3 * m * r))
    return frozenset((m, m * r))


def critical_periods(p: int, F, G):
    """The critical points of the map (F, G) mod an odd prime p with
    possible_periods of each: None where the map drops degree mod p, () where
    its critical points are not in P^1(F_p), else ((z1, set1), (z2, set2))
    with the points ascending, infinity (= p) last."""
    F = F[0] % p, F[1] % p, F[2] % p
    G = G[0] % p, G[1] % p, G[2] % p
    w2, w1, w0 = wronskian(F, G)
    W = w2, w1, w0 = w2 % p, w1 % p, w0 % p
    # the wronskian discriminant is 4 * resultant
    disc = (w1 * w1 - 4 * w2 * w0) % p
    if disc == 0:
        return None
    inv, sqrt, _ = prime_tables(p)
    if w2 == 0:
        z1, z2 = -w0 * inv[w1] % p, p
    else:
        s = sqrt[disc]
        if s < 0:
            return ()
        i = inv[2 * w2 % p]
        z1, z2 = (s - w1) * i % p, (-s - w1) * i % p
        if z1 > z2:
            z1, z2 = z2, z1
    (_, m1, lam1), (_, m2, lam2) = _walk(p, F, G, W, (z1, z2), inv)
    return (z1, _cycle_periods(p, m1, lam1)), (z2, _cycle_periods(p, m2, lam2))


@lru_cache(maxsize=1 << 12)
def _cycle_periods(p: int, m: int, lam: int) -> PeriodSet:
    """possible_periods of a cycle of length m and multiplier lam mod p."""
    return _period_rule(p, m, mult_order(lam, p) if lam else None)
