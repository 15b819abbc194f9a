"""The reference database of per-prime period sets, and its vectorised kernel.

A map (F, G) mod an odd prime p has, when it has degree 2 and both
critical points are F_p-rational, an admissible global-period set for each
critical point: PERIOD_SLOTS periods at p = 3 and two elsewhere, by the
rule of ffdyn.possible_periods.  One vectorised kernel, period_entries,
computes these for arrays of integer forms, evaluating them as FpMap
does; scalar ffdyn.orbit_data is its oracle.  It walks both critical
points of every row together and finds each cycle by Brent's method,
whose loop also carries the cycle multiplier.  p is one prime for all
rows or one prime per row: the inverse, square-root and discrete-log
tables it reads are ffdyn.prime_tables concatenated over the primes and
indexed through each row's offset.

The database holds the kernel's three arrays over all p^2 keys (b, c) of
each prime, row b * p + c.  No command reads it, and the search runs in
quadpcf.lanesieve without numpy; examine_pair and the check functions run
the sieve's rule one pair at a time against the database, as the
reference the tests and the benchmark's traced replay compare with.  On
disk a database is a sequence of .npy records: the prime list, then each
prime's three arrays.  Content is deterministic for a given prime list.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from quadpcf import ffdyn
from quadpcf.exact_arith import ExtendedRational, validate_primes
from quadpcf.ffdyn import LANE_PRIME_LIMIT, PERIOD_SLOTS, PeriodSet, format_fp_point
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


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABSENT"

    def __bool__(self):
        return False


ABSENT = _Absent()


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
# the vectorised period-set kernel
# ----------------------------------------------------------------------

class ModTables(NamedTuple):
    """The ffdyn.prime_tables of some primes, concatenated: x mod primes[i]
    is at off[i] + x."""

    primes: np.ndarray
    off: np.ndarray
    inv: np.ndarray
    sq: np.ndarray
    log: np.ndarray

    def base(self, p):
        """The offset of p, a scalar or an array of the primes."""
        return self.off[np.searchsorted(self.primes, p)]


def _mod_tables(primes) -> ModTables:
    """ModTables of the primes.  The roots and logs are never multiplied,
    so int32 holds them."""
    # not np.unique, which loads numpy.ma, a megabyte the kernel never needs
    primes = sorted(set(np.ravel(primes).tolist()))
    tables = [ffdyn.prime_tables(p) for p in primes]
    return ModTables(
        np.array(primes, dtype=np.int64), np.cumsum([0] + primes[:-1], dtype=np.int64),
        *(np.array([x for t in tables for x in t[k]], dtype=dtype)
          for k, dtype in enumerate((np.int64, np.int32, np.int32))))


def _rows(x, idx):
    """The rows idx of a per-row array, or a scalar shared by all rows."""
    return x.take(idx, axis=-1) if np.ndim(x) else x


def _step(z, C, at_inf, p, inv, base):
    """FpMap.step_index and the derivative factor W(z) / G(z)^2 (in the
    chart 1/z at a pole) on each lane, from one evaluation of F, G and W:
    C[d] holds their coefficients of z^(2 - d) reduced mod p, at_inf the
    image and the derivative factor at infinity."""
    # infinity (= p) evaluates as 0 and is replaced below
    f, g, w = ((C[0] * z + C[1]) * z + C[2]) % p
    pole = g == 0                 # then f != 0, the resultant being nonzero
    ig = inv[base + np.where(pole, f, g)]
    img = np.where(pole, p, f * ig % p)
    der = np.where(pole, -w, w) * (ig * ig % p) % p
    aff = z != p
    return np.where(aff, img, at_inf[0]), np.where(aff, der, at_inf[1])


def _vector_cycles(p, C, z0, inv, base):
    """Cycle length and cycle multiplier of each lane's orbit by Brent's
    cycle finding, C[d] holding the coefficients of z^(2 - d) of F, G and
    W reduced mod p; p and base, the offset of p in the table inv, are
    scalars or one per lane.

    All lanes share Brent's schedule, so its counters are plain ints.  The
    hare carries the product of the derivative factors since the tortoise
    last moved; when it meets the tortoise, which is then on the cycle, it
    has walked the cycle once and the product is the multiplier.
    """
    f2, g2, w2 = C[0]
    # in the chart 1/z: w2 / f2^2 where g2 = 0, else -w2 / g2^2
    lead = inv[base + np.where(g2 == 0, f2, g2)]
    at_inf = np.stack((np.where(g2 == 0, p, f2 * inv[base + g2] % p),
                       np.where(g2 == 0, w2, -w2) * (lead * lead % p) % p))
    n = len(z0)
    length = np.zeros(n, dtype=np.int64)
    mult = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    live = np.ones(n, dtype=bool)
    tort = hare = z0
    prod, power, lam = 1, 1, 0
    while len(idx):
        if lam == power:
            tort, prod = hare, 1
            power, lam = 2 * power, 0
        hare, der = _step(hare, C, at_inf, p, inv, base)
        prod = prod * der % p
        lam += 1
        done = (tort == hare) & live
        if done.any():
            length[idx[done]] = lam
            mult[idx[done]] = prod[done]
            live &= ~done
            # finished lanes walk on, unread, until a quarter have finished
            if 4 * np.count_nonzero(live) <= 3 * len(live):
                keep = np.flatnonzero(live)
                idx, tort, hare, prod = idx[keep], tort[keep], hare[keep], prod[keep]
                live, C = live[keep], C.take(keep, axis=-1)
                at_inf = at_inf.take(keep, axis=-1)
                p, base = _rows(p, keep), _rows(base, keep)
    return length, mult


def _cycle_sets(p, C, z0, tables, base):
    """The admissible period sets of the cycles that the lanes' orbits from
    z0 reach, as (lanes, PERIOD_SLOTS), in period_entries' layout; the
    arguments are _vector_cycles', with tables in place of inv."""
    m, mult = _vector_cycles(p, C, z0, tables.inv, base)
    # the multiplier's order; 0, superattracting, reads as order 1
    r = (p - 1) // np.gcd(tables.log[base + mult], p - 1)
    return np.stack((m, np.where(r > 1, m * r, 0),
                     np.where((p == 3) & (mult != 0), 3 * m * r, 0)), axis=1)


def period_entries(p, F, G, tables=None):
    """Critical points and admissible period sets of the maps (F, G) mod p,
    by the rule of ffdyn.possible_periods; a coefficient is a vector with
    one entry per row, or a scalar shared by all rows, and so is p, an odd
    prime.  tables, when given, is _mod_tables over primes that include
    every row's.

    present marks the rows of degree 2 whose two critical points lie in
    P^1(F_p); for them points holds the points ascending (infinity = p
    last) and periods holds PERIOD_SLOTS entries per point, the first
    point's first: m, then m * r where the cycle multiplier has order
    r > 1, then 3 * m * r where p = 3 and the multiplier is nonzero, each
    0 where absent.  Other rows are zero.  m <= p + 1 and r < p, so below
    LANE_PRIME_LIMIT every period is below 2^22, and periods is int32.
    """
    tables = _mod_tables(p) if tables is None else tables
    inv, base = tables.inv, tables.base(p)
    F, G = ([np.asarray(x, dtype=np.int64) % p for x in form] for form in (F, G))
    W = [w % p for w in ffdyn.wronskian(F, G)]
    (n,) = np.broadcast(*F, *G).shape
    w2, w1, w0 = W
    # the wronskian discriminant is 4 * resultant: nonzero exactly on the
    # degree-2 rows, whose two critical points then differ; where w2 = 0,
    # w1 != 0 and one of them is infinity
    disc = np.broadcast_to((w1 * w1 - 4 * w2 * w0) % p, (n,))
    sqd = tables.sq[base + disc]
    present = (disc != 0) & ((w2 == 0) | (sqd >= 0))
    sel = np.flatnonzero(present)
    # C[d] holds the coefficients of z^(2 - d) of F, G and W, one per row
    C = np.stack([np.broadcast_to(x, (n,)) for x in (*F, *G, *W)])
    C = C.reshape(3, 3, n).transpose(1, 0, 2).take(sel, axis=-1)
    p, base = _rows(p, sel), _rows(base, sel)
    w2, w1, w0 = C[:, 2]
    sqd = sqd[sel]
    lin = w2 == 0
    i2w2 = inv[base + (2 * w2) % p]
    r_lo = ((sqd - w1) % p) * i2w2 % p
    r_hi = ((-sqd - w1) % p) * i2w2 % p
    lo = np.where(lin, (-w0 * inv[base + w1]) % p, np.minimum(r_lo, r_hi))
    hi = np.where(lin, p, np.maximum(r_lo, r_hi))
    # the two critical points of row i walk together, as lanes i and k + i
    k = len(sel)
    both = np.arange(2 * k) % k
    sets = _cycle_sets(_rows(p, both), np.concatenate((C, C), axis=-1),
                       np.concatenate((lo, hi)), tables, _rows(base, both))
    points = np.zeros((n, 2), dtype=np.int64)
    points[sel, 0], points[sel, 1] = lo, hi
    periods = np.zeros((n, 2 * PERIOD_SLOTS), dtype=np.int32)
    periods[sel] = np.concatenate((sets[:k], sets[k:]), axis=1)
    return present, points, periods


# ----------------------------------------------------------------------
# the reference database
# ----------------------------------------------------------------------

# per prime: the dtype and row shape of period_entries' present, points and
# periods arrays
_ARRAY_LAYOUT = ((np.dtype(bool), ()), (np.dtype(np.int64), (2,)),
                 (np.dtype(np.int32), (2 * PERIOD_SLOTS,)))


class Database:
    """Mapping (p, b, c) -> DbEntry over period_entries' arrays for every key
    of each prime, read-only once built."""

    def __init__(self, arrays: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]):
        self.arrays = arrays
        self.primes = tuple(arrays)

    # -- queries ----------------------------------------------------------

    def lookup(self, p: int, b: int, c: int):
        """DbEntry, or ABSENT for keys without two F_p-rational critical
        points."""
        present, points, periods = self._arrays(p)
        k = b % p * p + c % p
        if not present[k]:
            return ABSENT
        sets = periods[k].reshape(2, PERIOD_SLOTS).tolist()
        return DbEntry(p=p, points=tuple(points[k].tolist()),
                       period_sets=tuple(frozenset(x) - {0} for x in sets))

    def entry_count(self, p: int) -> int:
        return int(self._arrays(p)[0].sum())

    def _arrays(self, p: int):
        if p not in self.arrays:
            raise UncoveredPrimeError(f"prime {p} is not covered by this database")
        return self.arrays[p]

    # -- file I/O -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically; a partially written file is never left behind."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            np.save(fh, np.array(self.primes, dtype=np.int64))
            for p in self.primes:
                for arr in self.arrays[p]:
                    np.save(fh, arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> "Database":
        if not os.path.exists(path):
            raise DbMissingError(f"database file not found: {path}")
        with open(path, "rb") as fh:
            try:
                primes = np.lib.format.read_array(fh, allow_pickle=False)
                if primes.ndim != 1 or primes.dtype.kind != "i":
                    raise ValueError("the prime list is not a vector of integers")
                # checked before any block is read
                primes = validate_primes(primes.tolist(), LANE_PRIME_LIMIT,
                                         "the reference database")
                arrays = {p: tuple(_read_block(fh, p, dtype, row)
                                   for dtype, row in _ARRAY_LAYOUT)
                          for p in primes}
            except ValueError as e:
                raise DbFormatError(f"{path}: {e}") from None
            if fh.read(1):
                raise DbFormatError(f"{path}: trailing bytes after the last block")
        return Database(arrays)


def _read_block(fh, p: int, dtype: np.dtype, row: tuple) -> np.ndarray:
    arr = np.lib.format.read_array(fh, allow_pickle=False)
    if arr.dtype != dtype or arr.shape != (p * p, *row):
        raise ValueError(f"block of dtype {arr.dtype} and shape {arr.shape} for "
                         f"p={p}, expected {dtype} and {(p * p, *row)}")
    return arr


def build_db(primes: Sequence[int], path: Optional[str] = None) -> Database:
    """Build the database for the given odd primes, in list order: the
    kernel's arrays over all p^2 keys of each; saved to path if given."""
    primes = validate_primes(primes, LANE_PRIME_LIMIT, "the reference database")
    db = Database({
        p: period_entries(p, *ffdyn.family_forms(*np.divmod(np.arange(p * p), p)))
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
    refutes the map.  ABSENT entries at good primes are impossible for maps
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
        if entry is ABSENT:
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
        if entry is ABSENT:
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
