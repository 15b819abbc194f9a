"""The multi-prime period sieve (Algorithms 2-4), in plain Python.

A sigma-pair survives when, at every good prime p, its critical points'
period sets stay non-empty: each rational critical point meets the set of
the point it reduces to, and conjugate irrational points share one set,
the meet of their two sets, as sievedb's check_*_periods_detailed do pair
by pair.  The sets come from one ffdyn.PeriodTable per prime, indexed by
the sigma residues (x1, x2), the table the reference database reads by
key.  The sieve is imported from here alone.

sieve() takes the sigma1 values as rows and the sigma2 values as the bits
of one Python int.  At each prime below FILTER_BOUND the filter groups a
row's lanes by sigma2's residue and meets their running sets, held as
per-period masks of lanes, with their keys' shared sets.  Residues alone
decide this: a lane's resultant is lcm(d1, d2)^4 R(sigma), with R(sigma)
the key's resultant, so the key tells a good prime, and a denominator
divisible by p makes p bad.  A lane the filter kills is refuted once its
critical points are shown irrational, for then the shared-set rule is
theirs: by a good prime at which they lie outside P^1(F_p), or else by a
resultant that is not a square.  Every other lane goes through the exact
pass, which computes its integer normal form, resultant and rationality
and applies the rule at every prime; the survivors, their period sets and
their evidence counts come from it alone.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import List, NamedTuple, Optional, Sequence, Tuple

from quadpcf import ffdyn
from quadpcf.exact_arith import ExtendedRational, enumerate_pairs, validate_primes
from quadpcf.ffdyn import LANE_PRIME_LIMIT, MAX_HEIGHT_PRODUCT, PeriodSet
from quadpcf.projmap import NormalizedQuadMap, normal_form

# the filter takes the primes below this bound: by the time it reaches
# 64, about one lane in a thousand is left at (10, 20)
FILTER_BOUND = 64


class DbConsistencyError(Exception):
    """A sieve step or the reference database contradicts a build invariant
    (hard internal error)."""


class SieveCandidate(NamedTuple):
    """A sigma-pair that survived every prime of the sieve."""

    sigma1: ExtendedRational
    sigma2: ExtendedRational
    phi: NormalizedQuadMap
    resultant: int
    critical_rational: bool
    period_sets: Tuple[Optional[PeriodSet], ...]
    primes_used: int

    def tsv_line(self) -> str:
        sets = ";".join(
            "unconstrained" if s is None else
            "{" + ",".join(str(x) for x in sorted(s)) + "}"
            for s in self.period_sets)
        flag = "rational" if self.critical_rational else "irrational"
        return "\t".join([
            str(self.sigma1), str(self.sigma2), str(self.phi),
            str(self.resultant), flag, sets, str(self.primes_used),
        ])

    @staticmethod
    def tsv_header() -> str:
        return "\t".join(["sigma1", "sigma2", "map", "resultant",
                          "critical_points", "period_sets", "primes_used"])


def _residues(pairs, p: int, inv) -> List[int]:
    """n / d mod p of each pair, -1 where p divides d (a bad prime)."""
    return [n * inv[d % p] % p if d % p else -1 for n, d in pairs]


def _bits(x: int):
    """The positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _FilterPrime:
    """A prime of the filter: the sigmas' residues, the sigma2 columns of
    each residue class as a mask, and the evidence of the keys (x1, x2)
    over the columns, per x1 on first use."""

    def __init__(self, entries: ffdyn.PeriodTable, pairs1, pairs2):
        p, inv = entries.p, entries.inv
        self.p, self.entries, self.rows = p, entries, {}
        self.r1, self.r2 = _residues(pairs1, p, inv), _residues(pairs2, p, inv)
        self.classes = [0] * p
        for j, x in enumerate(self.r2):
            if x >= 0:
                self.classes[x] |= 1 << j

    def evidence(self, x1: int, lanes: Optional[int] = None):
        """(meets, ev, proved) of the keys (x1, x2) over lanes, or over all
        columns when lanes is None: meets maps a period to the lanes whose
        shared set holds it, ev holds the lanes with a shared set and
        proved those whose key's critical points are not in P^1(F_p)."""
        if lanes is None and x1 in self.rows:
            return self.rows[x1]
        p, entries = self.p, self.entries
        base = x1 * p
        if lanes is None:
            groups = enumerate(self.classes)
        else:
            r2 = self.r2
            groups = [(r2[j], 1 << j) for j in _bits(lanes) if r2[j] >= 0]
        meets, ev, proved = {}, 0, 0
        for x2, k in groups:
            e = entries[base + x2]
            if e:
                ev |= k
                for t in e[4]:
                    meets[t] = meets.get(t, 0) | k
            elif e is not None:
                proved |= k
        if lanes is None:
            self.rows[x1] = meets, ev, proved
        return meets, ev, proved


def _filter(i: int, filt: List[_FilterPrime], alive: int) -> Tuple[int, int]:
    """The lanes of row i the filter keeps, out of alive, and those it
    killed without proving their critical points irrational.

    sets maps a period to the lanes whose running set holds it; unc holds
    the lanes without evidence yet, proved those shown irrational and dead
    those killed but not proved.
    """
    unc, sets, proved, dead = alive, {}, 0, 0
    for fp in filt:
        x1 = fp.r1[i]
        if x1 < 0:
            continue
        if alive.bit_count() > fp.p:
            meets, ev, prv = fp.evidence(x1)
            ev &= alive
        elif alive:
            # few lanes: the live ones one by one, while the dead ones wait
            # for the exact pass to prove them irrational
            meets, ev, prv = fp.evidence(x1, alive)
        else:
            break
        proved |= prv
        if ev:
            fresh, keep = unc & ev, ~ev
            now = unc = unc & keep
            for t, k in list(sets.items()):
                k &= meets.get(t, 0) | keep
                if k:
                    sets[t] = k
                    now |= k
                else:
                    del sets[t]
            if fresh:
                for t, k in meets.items():
                    k &= fresh
                    if k:
                        sets[t] = sets.get(t, 0) | k
                        now |= k
            dead |= alive & ~now
            alive = now
        dead &= ~proved
    return alive, dead


def _exact(n1, d1, n2, d2, steps, killed):
    """The lane's forms, resultant, rationality, running sets (None before
    any evidence) and evidence count after every prime, or None once it is
    degenerate or refuted.
    steps holds each prime ascending with its inverses and entries; killed
    marks a lane the filter killed, refuted if its critical points are
    irrational."""
    F, G = normal_form(n1, d1, n2, d2)
    w2, w1, w0 = ffdyn.wronskian(F, G)
    h = w1 // 2
    res = h * h - w2 * w0          # ffdyn.form_resultant
    if res == 0:
        return None
    # the critical points are rational exactly when 4 * res, the
    # wronskian discriminant, is a square
    s = isqrt(res) if res > 0 else -1
    rational = s * s == res
    if killed and not rational:
        return None
    if rational:
        # (N : M) in lowest terms, infinity as (1 : 0); N or M is nonzero,
        # as h != 0 where w2 = 0
        gamma = [(-w0, 2 * h), (1, 0)] if w2 == 0 else [(s - h, w2), (-s - h, w2)]
        gamma = [(x // g, y // g) for x, y in gamma for g in (gcd(x, y),)]
    runs = [None, None] if rational else [None]
    used = 0
    for p, inv, entries in steps:
        good = res % p != 0
        key = None
        if d1 % p and d2 % p:
            key = entries[n1 * inv[d1 % p] % p * p + n2 * inv[d2 % p] % p]
        if good != (key is not None):
            raise DbConsistencyError(
                f"the key's goodness at {p} disagrees with the resultant {res}")
        if not good:
            continue
        if rational:
            if not key:
                raise DbConsistencyError(
                    f"no F_{p}-rational critical points at a good prime for a "
                    "map with rational critical points")
            z1, z2, s1, s2, _ = key
            for at, (x, y) in enumerate(gamma):
                z = x * inv[y % p] % p if y % p else p
                if z == z1:
                    per = s1
                elif z == z2:
                    per = s2
                else:
                    raise DbConsistencyError(
                        f"a reduced critical point is not critical mod {p}")
                per = per if runs[at] is None else runs[at] & per
                if not per:
                    return None
                runs[at] = per
        elif key:
            per = key[4] if runs[0] is None else runs[0] & key[4]
            if not per:
                return None
            runs[0] = per
        else:
            continue
        used += 1
    return F, G, res, rational, runs, used


def sieve(h1: int, h2: int, primes: Sequence[int]) -> List[SieveCandidate]:
    """Find all possibly-PCF sigma-pairs with heights up to (h1, h2).

    Survivors come in the order of enumerate_rationals (sigma1 outer).
    They equal those of sievedb.examine_pair, which applies the same rule
    one pair at a time to the period sets of the same primes in any order.
    """
    primes = validate_primes(primes, LANE_PRIME_LIMIT, "the sieve")
    if h1 * h2 > MAX_HEIGHT_PRODUCT:
        raise ValueError(f"heights ({h1}, {h2}) exceed the sieve's bound h1 * h2 <= "
                         f"{MAX_HEIGHT_PRODUCT} on the size of a run")
    pairs1, pairs2 = list(enumerate_pairs(h1)), list(enumerate_pairs(h2))
    # the survivors do not depend on the order of the primes, and small
    # primes kill most lanes
    entries = [ffdyn.PeriodTable(p) for p in sorted(primes)]
    steps = [(e.p, e.inv, e) for e in entries]
    filt = [_FilterPrime(e, pairs1, pairs2) for e in entries if e.p < FILTER_BOUND]
    sigma2 = [ExtendedRational.from_pair(n, d) for n, d in pairs2]
    out = []
    for i, (n1, d1) in enumerate(pairs1):
        sigma1 = ExtendedRational.from_pair(n1, d1)
        alive, dead = _filter(i, filt, (1 << len(pairs2)) - 1)
        for j in _bits(alive | dead):
            n2, d2 = pairs2[j]
            lane = _exact(n1, d1, n2, d2, steps, dead >> j & 1)
            if lane is None:
                continue
            F, G, res, rational, runs, used = lane
            out.append(SieveCandidate(
                sigma1=sigma1, sigma2=sigma2[j],
                phi=NormalizedQuadMap.from_normal_forms(F, G, (sigma1, sigma2[j])),
                resultant=res, critical_rational=rational,
                period_sets=tuple(runs), primes_used=used))
    return out
