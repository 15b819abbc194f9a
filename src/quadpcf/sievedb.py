"""The reference database of per-prime period sets.

A map (F, G) mod an odd prime p has, when it has degree 2 and both
critical points are F_p-rational, an admissible global-period set for each
critical point, by the rule of ffdyn.possible_periods.  The database holds
ffdyn.critical_periods of the normal form at every key (b, c) of each
prime, at index b * p + c.  No command reads it: the search runs in
quadpcf.lanesieve, and examine_pair and the check functions run the
sieve's rule one pair at a time against the database, as the reference
the tests and the benchmark's traced replay compare with.  On disk a
database is a versioned header line and its prime list, and loading it
rebuilds the entries, which depend on the prime list alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from quadpcf import ffdyn
from quadpcf.exact_arith import ExtendedRational, validate_primes
from quadpcf.ffdyn import LANE_PRIME_LIMIT, PeriodSet, format_fp_point
# the search and its types, kept importable from here
from quadpcf.lanesieve import DbConsistencyError, SieveCandidate, sieve  # noqa: F401
from quadpcf.projmap import NormalizedQuadMap


class DbError(Exception):
    pass


class DbMissingError(DbError):
    """The database file does not exist or is unreadable."""


class DbFormatError(DbError):
    """The file is not a complete database in the expected format."""


class UncoveredPrimeError(DbError):
    """A lookup asked for a prime the database was not built for."""


@dataclass(frozen=True)
class DbEntry:
    """The two critical points of one reduced map with their admissible
    period sets.

    Points use the integer index encoding (p for infinity), ascending.  They
    are distinct, because the wronskian discriminant is 4 * resultant != 0.
    """

    p: int
    points: Tuple[int, int]
    period_sets: Tuple[PeriodSet, PeriodSet]

    def periods_for(self, point_index: int) -> PeriodSet:
        for pt, per in zip(self.points, self.period_sets):
            if pt == point_index:
                return per
        raise DbConsistencyError(
            f"point {format_fp_point(point_index, self.p)} not among stored "
            f"critical points {self.points} (p={self.p})")


# ----------------------------------------------------------------------
# the reference database
# ----------------------------------------------------------------------

# the first line of a database file; the second is the prime list
_HEADER = b"quadpcf reference database, version 2\n"


class Database:
    """Mapping (p, b, c) -> DbEntry over the critical_periods of every key
    of each prime, read-only once built."""

    def __init__(self, entries: Dict[int, list]):
        self.entries = entries
        self.primes = tuple(entries)

    # -- queries ----------------------------------------------------------

    def lookup(self, p: int, b: int, c: int) -> Optional[DbEntry]:
        """DbEntry, or None for keys without two F_p-rational critical
        points."""
        e = self._entries(p)[b % p * p + c % p]
        if not e:
            return None
        (z1, s1), (z2, s2) = e
        return DbEntry(p=p, points=(z1, z2), period_sets=(s1, s2))

    def entry_count(self, p: int) -> int:
        return sum(map(bool, self._entries(p)))

    def _entries(self, p: int) -> list:
        if p not in self.entries:
            raise UncoveredPrimeError(f"prime {p} is not covered by this database")
        return self.entries[p]

    # -- file I/O -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically; a partially written file is never left behind."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_HEADER + " ".join(map(str, self.primes)).encode() + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> "Database":
        """Read the prime list of a saved database and rebuild it."""
        if not os.path.exists(path):
            raise DbMissingError(f"database file not found: {path}")
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            if not data.startswith(_HEADER):
                raise ValueError("no reference database header of this version")
            line, end, rest = data[len(_HEADER):].partition(b"\n")
            if not end:
                raise ValueError("the prime list is truncated")
            if rest:
                raise ValueError("trailing bytes after the prime list")
            primes = validate_primes([int(x) for x in line.split()], LANE_PRIME_LIMIT,
                                     "the reference database")
        except ValueError as e:
            raise DbFormatError(f"{path}: {e}") from None
        return build_db(primes)


def build_db(primes: Sequence[int], path: Optional[str] = None) -> Database:
    """Build the database for the given odd primes, in list order:
    ffdyn.critical_periods of the normal form at all p^2 keys of each;
    saved to path if given."""
    primes = validate_primes(primes, LANE_PRIME_LIMIT, "the reference database")
    db = Database({p: [ffdyn.critical_periods(p, *ffdyn.family_forms(b, c))
                       for b in range(p) for c in range(p)]
                   for p in primes})
    if path is not None:
        db.save(path)
    return db


# ----------------------------------------------------------------------
# the sieve's rule, one pair at a time
# ----------------------------------------------------------------------

def _sigma_mod_p(s: ExtendedRational, p: int) -> int:
    if s.den % p == 0:
        raise DbConsistencyError(
            f"sigma denominator divisible by good prime {p}; resultant guard failed")
    return s.num * pow(s.den, p - 2, p) % p


def family_key(s1: ExtendedRational, s2: ExtendedRational,
               p: int) -> Tuple[int, int]:
    """(b, c) key of the reduction of the normal-form map at a good prime."""
    b, c = ffdyn.family_bc(_sigma_mod_p(s1, p), _sigma_mod_p(s2, p))
    return b % p, c % p


def reduce_rational_point(x: ExtendedRational, p: int) -> int:
    """Index of the reduction of a point of P^1(Q) mod p (p encodes infinity)."""
    if x.is_infinity() or x.den % p == 0:
        return p
    return x.num * pow(x.den, p - 2, p) % p


@dataclass
class CheckResult:
    ok: bool
    period_sets: Optional[Tuple[Optional[PeriodSet], ...]]
    primes_used: int
    killed_by: Optional[int] = None

    @property
    def no_modular_info(self) -> bool:
        return self.primes_used == 0


def _sigmas_of(phi: NormalizedQuadMap):
    if phi.sigmas is not None:
        return phi.sigmas
    return phi.sigma_invariants()


def check_rational_periods_detailed(phi, gamma1, gamma2, primes, res, db) -> CheckResult:
    """Intersect admissible period sets of two rational critical points.

    Each critical point keeps an independent running set (the two orbits can
    terminate in cycles of different lengths); the first empty intersection
    refutes the map.  Absent entries at good primes are impossible for maps
    with rational critical points and raise DbConsistencyError.
    """
    if res == 0:
        raise ValueError("resultant must be nonzero")
    s1, s2 = _sigmas_of(phi)
    running: List[Optional[frozenset]] = [None, None]
    used = 0
    for p in primes:
        if res % p == 0:
            continue
        b, c = family_key(s1, s2, p)
        entry = db.lookup(p, b, c)
        if entry is None:
            raise DbConsistencyError(
                f"entry absent at good prime {p} for map with rational critical "
                f"points (key b={b}, c={c}); database and build invariant disagree")
        used += 1
        for i, gamma in enumerate((gamma1, gamma2)):
            reduced = reduce_rational_point(gamma, p)
            per = entry.periods_for(reduced)
            running[i] = per if running[i] is None else running[i] & per
            if not running[i]:
                return CheckResult(False, tuple(running), used, killed_by=p)
    return CheckResult(True, tuple(running), used)


def check_irrational_periods_detailed(phi, primes, res, db) -> CheckResult:
    """One shared running set for conjugate irrational critical points.

    Conjugate orbits terminate in cycles of the same length, so one set
    serves both.  Reduced maps absent from the database contribute nothing;
    a candidate that never hits a present entry is reported as surviving
    with no modular information rather than silently passing.
    """
    if res == 0:
        raise ValueError("resultant must be nonzero")
    s1, s2 = _sigmas_of(phi)
    running: Optional[frozenset] = None
    used = 0
    for p in primes:
        if res % p == 0:
            continue
        entry = db.lookup(p, *family_key(s1, s2, p))
        if entry is None:
            continue
        used += 1
        inter = entry.period_sets[0] & entry.period_sets[1]
        running = inter if running is None else running & inter
        if not running:
            return CheckResult(False, (running,), used, killed_by=p)
    return CheckResult(True, (running,), used)


def examine_pair(s1: ExtendedRational, s2: ExtendedRational,
                 primes: Sequence[int], db: Database) -> Optional[SieveCandidate]:
    """Run one sigma-pair through the sieve; None if skipped or refuted."""
    phi = NormalizedQuadMap.from_sigmas(s1, s2)
    res = phi.resultant()
    if res == 0:
        return None
    crit = phi.critical_point_data(need_points=False)
    if crit.rational:
        result = check_rational_periods_detailed(
            phi, crit.points[0], crit.points[1], primes, res, db)
    else:
        result = check_irrational_periods_detailed(phi, primes, res, db)
    if not result.ok:
        return None
    return SieveCandidate(
        sigma1=s1, sigma2=s2, phi=phi, resultant=res,
        critical_rational=crit.rational,
        period_sets=result.period_sets, primes_used=result.primes_used)
