"""The reference database of per-prime period sets.

A map (F, G) mod an odd prime p has, when it has degree 2 and both
critical points are F_p-rational, an admissible global-period set for each
critical point.  The database holds the sieve's table, ffdyn.PeriodTable,
of each prime, filled at all p^2 keys, and lookup hands out the entry of
the key (b, c) unchanged: (z1, z2, set1, set2, shared), or None for a key
without two F_p-rational critical points.  No command reads it: the
search runs in quadpcf.lanesieve, and examine_pair and the check
functions run the sieve's rule one pair at a time against the database,
as the reference the tests and the benchmark's traced replay compare
with; they reduce through ffdyn.point_mod_p, as the sieve does.  On disk
a database is a versioned header line and its prime list, and loading it
rebuilds the tables, which depend on the prime list alone.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from quadpcf import ffdyn
from quadpcf.exact_arith import ExtendedRational, validate_primes
from quadpcf.ffdyn import LANE_PRIME_LIMIT, PeriodSet
from quadpcf.lanesieve import DbConsistencyError, SieveCandidate
from quadpcf.projmap import NormalizedQuadMap


class DbError(Exception):
    pass


class DbMissingError(DbError):
    """The database file does not exist or is unreadable."""


class DbFormatError(DbError):
    """The file is not a complete database in the expected format."""


class UncoveredPrimeError(DbError):
    """A lookup asked for a prime the database was not built for."""


# ----------------------------------------------------------------------
# the reference database
# ----------------------------------------------------------------------

# the first line of a database file; the second is the prime list
_HEADER = b"quadpcf reference database, version 2\n"


class Database:
    """Mapping (p, b, c) -> the critical_periods entry of the key, through
    the period table of each prime."""

    def __init__(self, tables: Dict[int, ffdyn.PeriodTable]):
        self.tables = tables
        self.primes = tuple(tables)

    # -- queries ----------------------------------------------------------

    def lookup(self, p: int, b: int, c: int) -> Optional[tuple]:
        """(z1, z2, set1, set2, shared), or None for keys without two
        F_p-rational critical points."""
        return self._table(p).at_key(b, c) or None

    def entry_count(self, p: int) -> int:
        return sum(map(bool, self._table(p).values()))

    def _table(self, p: int) -> ffdyn.PeriodTable:
        if p not in self.tables:
            raise UncoveredPrimeError(f"prime {p} is not covered by this database")
        return self.tables[p]

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
    """Build the database for the given odd primes, in list order: the
    period table of each, filled at all p^2 keys; saved to path if given."""
    primes = validate_primes(primes, LANE_PRIME_LIMIT, "the reference database")
    db = Database({p: ffdyn.PeriodTable(p) for p in primes})
    for p, table in db.tables.items():
        # each lookup walks its key and stores the entry
        for k in range(p * p):
            table[k]
    if path is not None:
        db.save(path)
    return db


# ----------------------------------------------------------------------
# the sieve's rule, one pair at a time
# ----------------------------------------------------------------------

def _sigma_mod_p(s: ExtendedRational, p: int) -> int:
    x = reduce_rational_point(s, p)
    if x == p:
        raise DbConsistencyError(
            f"sigma denominator divisible by good prime {p}; resultant guard failed")
    return x


def family_key(s1: ExtendedRational, s2: ExtendedRational,
               p: int) -> Tuple[int, int]:
    """(b, c) key of the reduction of the normal-form map at a good prime."""
    b, c = ffdyn.family_bc(_sigma_mod_p(s1, p), _sigma_mod_p(s2, p))
    return b % p, c % p


def reduce_rational_point(x: ExtendedRational, p: int) -> int:
    """Index of the reduction of a point of P^1(Q) mod p (p encodes infinity)."""
    return ffdyn.point_mod_p(x.num, x.den, p, ffdyn.prime_tables(p).inv)


class CheckResult(NamedTuple):
    ok: bool
    period_sets: Optional[Tuple[Optional[PeriodSet], ...]]
    primes_used: int
    killed_by: Optional[int] = None


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
        z1, z2, set1, set2, _ = entry
        for i, gamma in enumerate((gamma1, gamma2)):
            reduced = reduce_rational_point(gamma, p)
            if reduced == z1:
                per = set1
            elif reduced == z2:
                per = set2
            else:
                raise DbConsistencyError(
                    f"point {reduced} not among the stored critical points "
                    f"({z1}, {z2}) mod {p}")
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
        running = entry[4] if running is None else running & entry[4]
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
