"""Dynamics of quadratic maps over prime fields F_p: the sieve's kernel.

critical_periods gives the critical points of a map mod p with the
admissible global periods of each.  One table-driven walk follows both
critical points through one visited table until each orbit closes up, and
takes the cycle's length m and multiplier, the product of chart-correct
local derivatives along the cycle.  With r the multiplier's order, the
admissible set is {m} for a zero multiplier, else {m, m*r}, and at p = 3
also 3*m*r.  The walk reads the inverse, square-root and discrete-log
tables of p, built once per prime.  The tests check it against a
plain-loop oracle that shares none of its code.  What projmap, the sieve
and the reference database share is defined here once: the normal-form
family and its key, the wronskian, resultant and rational critical points
of two forms, and point_mod_p, the reduction into P^1(F_p), which sends
infinity and a denominator divisible by p to p.

PeriodTable is the one table of a prime's entries: critical_periods of
the family at each key, computed on first use and indexed by the sigma
residues (x1, x2) as x1 * p + x2.  The sieve reads it by residues, and
the reference database (sievedb) by key through at_key, the inverse of
family_bc.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import FrozenSet, List, NamedTuple, Tuple

from quadpcf.exact_arith import _trial_divide

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


def rational_critical_points(F, G, res):
    """The critical points of integer forms with a nonzero wronskian
    (w2, 2h, w0) and resultant res = h^2 - w2 * w0, as pairs (x, y) in
    lowest terms with y >= 0, infinity being (1, 0): (s - h) / w2 and
    (-s - h) / w2 with s^2 = res, or -w0 / 2h and infinity where w2 = 0.
    None when res is not a square, for then they are irrational."""
    s = isqrt(res) if res >= 0 else -1
    if s * s != res:
        return None
    w2, w1, w0 = wronskian(F, G)
    h = w1 // 2
    out = []
    for x, y in [(-w0, 2 * h), (1, 0)] if w2 == 0 else [(s - h, w2), (-s - h, w2)]:
        g = gcd(x, y) if y >= 0 else -gcd(x, y)
        out.append((x // g, y // g))
    return out


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
    # p - 1 < 1000^2, so the cofactor m is 1 or a prime
    exponents, m = _trial_divide(p - 1)
    factors = [*exponents, m] if m > 1 else [*exponents]
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


def point_mod_p(x: int, y: int, p: int, inv) -> int:
    """The reduction of (x : y), x and y coprime, into P^1(F_p), where p
    is infinity: x / y mod p, or p where p divides y.  inv is the inverse
    table of p.  At a sigma value, p marks a bad prime."""
    y %= p
    return x * inv[y] % p if y else p


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------

def _walk(p: int, F, G, W, starts, inv) -> List[Tuple[int, int]]:
    """The length m and multiplier lam of the cycle that the orbit of each
    of one or two starts reaches under the map (F, G) mod p, with wronskian
    W, all reduced mod p, and the inverse table inv.

    The walks share one visited table.  A second walk that reaches a point
    of the first stops there and takes the first one's cycle.
    The multiplier is the product of the derivative factors W(z) / G(z)^2
    along the cycle, in the chart 1/z at a pole and at infinity.
    """
    f2, f1, f0 = F
    g2, g1, g0 = G
    w2, w1, w0 = W
    inf_img = f2 * inv[g2] % p if g2 else p
    pos = [-1] * (p + 1)   # visited point -> its position
    order = []             # the visited points in order
    out = []
    for z in starts:
        first = len(order)
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
            out.append(out[0])
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
        out.append((len(order) - at, lam))
    return out


def mult_order(lam: int, p: int) -> int:
    """Least r >= 1 with lam^r = 1 in F_p^x: (p - 1) / gcd(log lam, p - 1)."""
    lam %= p
    if lam == 0:
        raise ValueError("zero has no multiplicative order")
    return (p - 1) // gcd(prime_tables(p).log[lam], p - 1)


@lru_cache(maxsize=1 << 12)
def _cycle_periods(p: int, m: int, lam: int) -> PeriodSet:
    """The admissible exact global periods of a point of P^1(Q), or of a
    quadratic field in which p does not ramify, whose reduction mod p lies
    in a cycle of length m and multiplier lam.

    By Morton and Silverman (IMRN 1994) the period is m, m*r or m*r*p^e
    with e >= 1, r the order of lam, and m alone for a zero multiplier.
    Zieve's bound p^(e - 1) <= 2v / (p - 1), v the ramification index of
    p, leaves with v = 1 only p = 3 and e = 1: z^2 - 29/16 has the 3-cycle
    -1/4, -7/4, 5/4 and reduces mod 3 to a fixed point with multiplier 1.
    """
    if not lam:
        return frozenset((m,))
    r = mult_order(lam, p)
    if p == 3:
        return frozenset((m, m * r, 3 * m * r))
    return frozenset((m, m * r))


def critical_periods(p: int, F, G):
    """The entry of the map (F, G) mod an odd prime p: None where the map
    drops degree mod p, () where its critical points are not in P^1(F_p),
    else (z1, z2, set1, set2, shared), the points ascending with infinity
    (= p) last, the admissible periods of each and shared = set1 & set2,
    the set of conjugate irrational critical points reducing to them."""
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
    (m1, lam1), (m2, lam2) = _walk(p, F, G, W, (z1, z2), inv)
    s1, s2 = _cycle_periods(p, m1, lam1), _cycle_periods(p, m2, lam2)
    return z1, z2, s1, s2, s1 if s1 is s2 else s1 & s2


class PeriodTable(dict):
    """The entries of one prime p, computed on first use: at x1 * p + x2,
    critical_periods of the normal form of the key family_bc(x1, x2) of the
    sigma residues (x1, x2).  The sieve reads it by residues and the
    reference database by key."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p
        self.inv = prime_tables(p).inv

    def __missing__(self, k: int):
        p = self.p
        x1, x2 = divmod(k, p)
        e = self[k] = critical_periods(p, *family_forms(*family_bc(x1, x2)))
        return e

    def at_key(self, b: int, c: int):
        """The entry of the key (b, c), at the residues (2 - b, b - c) that
        family_bc maps to it."""
        p = self.p
        return self[(2 - b) % p * p + (b - c) % p]
