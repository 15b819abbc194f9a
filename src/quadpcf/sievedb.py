"""The multi-prime period sieve, and the per-prime database kept as its reference.

A map (F, G) mod an odd prime p has, when it has degree 2 and both
critical points are F_p-rational, an admissible global-period set for each
critical point: PERIOD_SLOTS periods at p = 3 and two elsewhere, by the
rule of ffdyn.possible_periods.  One vectorised kernel, period_entries,
computes these for arrays of integer forms, evaluating them as FpMap
does; scalar ffdyn.orbit_data is its oracle.  It walks both critical
points of every row together and finds each cycle by Brent's method,
whose loop also carries the cycle multiplier.  p is one prime for all
rows or one prime per row: the inverse, square-root and discrete-log
tables it reads are concatenated over the primes and indexed through each
row's offset.  The sieve passes it the normal forms
ffdyn.family_forms(b, c) of its keys (b, c) in F_p^2.

sieve() enumerates sigma-pairs up to height bounds and intersects the
per-critical-point period sets across good primes in numpy lanes, taking
the primes in ascending order: a pair dies when its sets over all the
primes have an empty intersection, whatever their order, and the small
primes kill most pairs.  Lanes go through a prime in batches of up to
2^12; for each batch it reduces the alive pairs' sigmas mod p, which fix
their keys (b, c), reads their sets from one table over all p^2 keys when
p is small and a full batch reaches it, else runs the kernel on the
distinct keys only, intersects the running sets as arrays and drops the
dead lanes.  The ModTables of all the primes are built once per run.  A
prime's all-key table, costly to rebuild, lives until no lane can reach
the prime any more; the sigmas' residues mod any other prime live for one
step.  Once few lanes are left, one kernel call over the distinct
(prime, key) rows of all of them and all the primes still ahead replaces
the steps.  Only the survivors are turned into NormalizedQuadMap objects,
from their integer normal forms.

The database holds the kernel's three arrays over all p^2 keys of each of
the sieve's primes, row b * p + c for the key (b, c).  Nothing on the
search path, and no command, reads it; examine_pair and the check
functions run the same sieve one pair at a time against it, as the
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
from quadpcf.exact_arith import (
    ExtendedRational,
    _factorize,
    enumerate_rationals,
    validate_primes,
)
from quadpcf.ffdyn import (
    LANE_PRIME_LIMIT,
    MAX_HEIGHT_PRODUCT,
    PERIOD_SLOTS,
    PeriodSet,
    format_fp_point,
)
from quadpcf.projmap import NormalizedQuadMap

# lanes a sieve step handles at once; bounds the memory of a run
LANE_BUDGET = 1 << 12
# the most keys (b, c) of one prime that the sieve runs the kernel over at
# once, in a table that every batch of lanes at the prime reads
TABLE_KEYS = 1 << 14


class DbError(Exception):
    pass


class DbMissingError(DbError):
    """The database file does not exist or is unreadable."""


class DbFormatError(DbError):
    """The file is not a complete database in the expected format."""


class UncoveredPrimeError(DbError):
    """A lookup asked for a prime the database was not built for."""


class DbConsistencyError(DbError):
    """A database or sieve step contradicts a build invariant (hard
    internal error)."""


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
    """Inverse, square-root and discrete-log tables mod each of some primes,
    concatenated: x mod primes[i] is at off[i] + x.  The logs are to a
    primitive root; a non-square's root is -1, and 0 has inverse, root and
    log 0."""

    primes: np.ndarray
    off: np.ndarray
    inv: np.ndarray
    sq: np.ndarray
    log: np.ndarray

    def base(self, p):
        """The offset of p, a scalar or an array of the primes."""
        return self.off[np.searchsorted(self.primes, p)]


def _primitive_root(p: int) -> int:
    factors = _factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


def _mod_tables(primes) -> ModTables:
    """ModTables of the primes, from the powers of a primitive root g of
    each: g^t has inverse g^(p - 1 - t), log t, and is a square for even
    t.  The roots and logs are never multiplied, so int32 holds them."""
    # not np.unique, which loads numpy.ma, a megabyte the sieve never needs
    primes = np.array(sorted(set(np.ravel(primes).tolist())), dtype=np.int64)
    off = np.cumsum(primes) - primes
    inv = np.zeros(int(primes.sum()), dtype=np.int64)
    sq = np.zeros(len(inv), dtype=np.int32)
    log = np.zeros(len(inv), dtype=np.int32)
    for p, o in zip(primes.tolist(), off.tolist()):
        g = _primitive_root(p)
        pw = np.ones(p - 1, dtype=np.int64)    # pw[t] = g^t, by doubling
        h = 1
        while h < p - 1:
            pw[h:2 * h] = pw[:min(h, p - 1 - h)] * g % p
            g, h = g * g % p, 2 * h
        at = o + pw
        inv[at] = np.roll(pw[::-1], 1)
        log[at] = np.arange(p - 1)
        sq[at[1::2]] = -1
        root = pw[:len(at[::2])]
        sq[at[::2]] = np.minimum(root, p - root)
    return ModTables(primes, off, inv, sq, log)


def _rows(x, idx):
    """The rows idx of a per-row array, or a scalar shared by all rows."""
    return x.take(idx, axis=-1) if np.ndim(x) else x


def _step(z, C, at_inf, p, inv, base):
    """FpMap.step_index and FpMap.derivative_factor on each lane, from one
    evaluation of F, G and W: C[d] holds their coefficients of z^(2 - d)
    reduced mod p, at_inf the image and the derivative factor at infinity."""
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
# the sieve (Algorithms 2-4)
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


@dataclass
class SieveCandidate:
    """A sigma-pair that survived every prime of the sieve."""

    sigma1: ExtendedRational
    sigma2: ExtendedRational
    phi: NormalizedQuadMap
    resultant: int
    critical_rational: bool
    period_sets: Tuple[Optional[PeriodSet], ...]
    primes_used: int

    @property
    def no_modular_info(self) -> bool:
        return self.primes_used == 0

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


# ----------------------------------------------------------------------
# the lane sieve
# ----------------------------------------------------------------------

# A batch of lanes is a dict of arrays whose last axis runs over the
# lanes, one per sigma-pair:
#   s1, s2    positions in the sigma enumerations
#   res       resultant of the integer normal form
#   rational  both critical points in P^1(Q)
#   gamma     (2, 2, lanes): rational critical point k as (N, M) = gamma[k],
#             N/M in lowest terms and infinity as 1/0; zero for irrational
#             lanes
#   run       (2, PERIOD_SLOTS, lanes), int32 as the periods: running
#             period sets, one per critical point (irrational lanes use
#             run[0] only): 0 is an empty slot, -1 not yet constrained
#   used      primes that gave modular evidence


def _take(lanes, idx):
    return {k: v.take(idx, axis=-1) for k, v in lanes.items()}


def _concat(batches):
    if len(batches) == 1:
        return batches[0]
    return {k: np.concatenate([x[k] for x in batches], axis=-1) for k in batches[0]}


def _num_den(rationals):
    return (np.array([x.num for x in rationals], dtype=np.int64),
            np.array([x.den for x in rationals], dtype=np.int64))


def _normal_forms(n1, d1, n2, d2):
    """The forms (F, G) of NormalizedQuadMap.from_sigmas(n1 / d1, n2 / d2),
    elementwise on int64 arrays of fractions in lowest terms: the normal
    form over the common denominator d1 * d2, divided by the content of the
    forms, gcd(d1 * d2, b, c) = gcd(d1 * d2, n1 * d2, n2 * d1) =
    gcd(d1, d2); f2 > 0 already."""
    dd = d1 * d2
    b, c = ffdyn.family_bc(n1 * d2, n2 * d1, dd)
    content = np.gcd(d1, d2)
    return ffdyn.family_forms(b // content, c // content, dd // content)


def _prepare_lanes(sig, start: int, stop: int):
    """Lanes of the non-degenerate pairs at flat positions [start, stop),
    position t being sigma1 number t // len(num2) and sigma2 number
    t % len(num2), sig being (num1, den1, num2, den2); integer arithmetic
    throughout (see MAX_HEIGHT_PRODUCT)."""
    num1, den1, num2, den2 = sig
    i, j = np.divmod(np.arange(start, stop, dtype=np.int64), len(num2))
    F, G = _normal_forms(num1[i], den1[i], num2[j], den2[j])
    res = ffdyn.form_resultant(F, G)   # equals NormalizedQuadMap.resultant()
    keep = res != 0
    i, j, res = i[keep], j[keep], res[keep]
    w2, w1, w0 = (w[keep] for w in ffdyn.wronskian(F, G))
    disc = 4 * res                 # nonzero, so the critical points differ
    s = np.sqrt(np.maximum(disc, 0).astype(np.float64)).astype(np.int64)
    s -= s * s > disc
    s += (s + 1) * (s + 1) <= disc
    rational = (w2 == 0) | (s * s == disc)
    r = np.flatnonzero(rational)
    lin, s, w2, w1, w0 = (x[r] for x in (w2 == 0, s, w2, w1, w0))
    # N or M is nonzero: w1 != 0 where w2 = 0
    pts = np.stack([np.where(lin, -w0, s - w1), np.where(lin, w1, 2 * w2),
                    np.where(lin, 1, -s - w1), np.where(lin, 0, 2 * w2)]
                   ).reshape(2, 2, -1)
    pts //= np.gcd(pts[:, 0], pts[:, 1])[:, None]
    gamma = np.zeros((2, 2, len(i)), dtype=np.int64)
    gamma[..., r] = pts
    return {"s1": i.astype(np.int32), "s2": j.astype(np.int32), "res": res,
            "rational": rational, "gamma": gamma,
            "run": np.full((2, PERIOD_SLOTS, len(i)), -1, dtype=np.int32),
            "used": np.zeros(len(i), dtype=np.int32)}


def _reduce(num, den, p, tables, pole):
    """num / den mod p elementwise, pole where p divides den; p is a scalar
    or one prime per entry."""
    d = den % p
    return np.where(d == 0, pole, num % p * tables.inv[tables.base(p) + d] % p)


def _lane_table(entries):
    """period_entries' arrays in the lanes' layout: the periods as
    (2, PERIOD_SLOTS, rows), then the set that conjugate irrational critical
    points share, the meet of the two stored sets, as (PERIOD_SLOTS, rows)."""
    present, points, periods = entries
    periods = np.ascontiguousarray(periods.T).reshape(2, PERIOD_SLOTS, -1)
    return present, points, periods, _meet(periods[0], periods[1])


def _meet(x, n):
    """Sets x, slots on the axis before the lanes, intersected with the
    nonzero elements of the sets n; a set whose first slot is -1 is
    unconstrained."""
    hit = x == n[..., :1, :]
    for k in range(1, PERIOD_SLOTS):
        hit |= x == n[..., k:k + 1, :]
    return np.where(x[..., :1, :] < 0, n, x * hit)


def _first(p, mask) -> int:
    """The prime of the first row in mask, p being a scalar or one per row."""
    return int(np.broadcast_to(p, mask.shape)[mask][0])


def _key_sets(p, good, x1, x2, rational, gamma, tables, table=None):
    """The period sets the rows meet at p, a scalar or one prime per row, as
    check_rational_periods_detailed and check_irrational_periods_detailed
    take them per pair: the rows marked good are at a good prime, x1 and x2
    are the residues of their sigmas (_reduce), rational and gamma their
    lanes' fields.  Returns the indices ri of the irrational rows that
    meet a set, with the set, as (PERIOD_SLOTS, len(ri)), then the indices
    r of the rational rows with their two sets, as (2, PERIOD_SLOTS,
    len(r)).  table is _lane_table over all p^2 keys of a scalar p, row
    x1 * p + x2 for the key family_bc(x1, x2), or None to run the kernel on
    the rows' distinct (prime, key) pairs."""
    # den(sigma) divides the resultant: test_sievedb's test_denominator_prime_safety
    bad_den = good & ((x1 < 0) | (x2 < 0))
    if bad_den.any():
        raise DbConsistencyError(
            f"sigma denominator divisible by good prime {_first(p, bad_den)}; "
            "resultant guard failed")
    # (x1, x2) -> family_bc(x1, x2) is a bijection of F_p^2, so a row's
    # residues index its key; at a bad prime one may be -1, which take
    # reads from the end, and the row goes unread
    back = x1 * p + x2
    del x1, x2  # a run's peak memory is reached in the first steps
    if table is None:
        # code a row by its residues and, in the low digits, its prime
        primes = tables.primes
        keys, back = np.unique(back * len(primes) + np.searchsorted(primes, p),
                               return_inverse=True)
        keys, kp = np.divmod(keys, len(primes))
        kp = primes[kp] if np.ndim(p) else p
        table = _lane_table(period_entries(
            kp, *ffdyn.family_forms(*ffdyn.family_bc(*np.divmod(keys, kp))), tables))
    present, points, periods, shared = table
    # conjugate irrational points share one set: the meet of both stored sets
    ri = np.flatnonzero(good & ~rational & present.take(back))
    # each rational critical point meets the set of the point it reduces to
    r = np.flatnonzero(good & rational)
    kr, rp = back[r], _rows(p, r)
    if not present[kr].all():
        raise DbConsistencyError(
            f"no F_{_first(rp, ~present[kr])}-rational critical points at a "
            "good prime for a map with rational critical points")
    gamma = gamma[..., r]
    red = _reduce(gamma[:, 0], gamma[:, 1], rp, tables, rp)
    pts = points[kr].T
    first = red == pts[0]
    stray = ~(first | (red == pts[1]))
    if stray.any():
        raise DbConsistencyError("a reduced critical point is not critical mod "
                                 f"{_first(rp, stray.any(axis=0))}")
    pr = periods[..., kr]
    return (ri, shared.take(back[ri], axis=-1), r,
            np.where(first[:, None], pr[:1], pr[1:]))


def _sieve_step(p: int, lanes, tables, res1, res2, table):
    """Meet the lanes' running sets with their period sets at p; the lanes
    still alive.  res1 and res2 are the residues of the sigmas mod p."""
    good = lanes["res"] % p != 0
    if not good.any():
        return lanes
    ri, shared, r, sets = _key_sets(
        p, good, res1.take(lanes["s1"]), res2.take(lanes["s2"]),
        lanes["rational"], lanes["gamma"], tables, table)
    # run and used are owned by this batch, so updated in place
    run, used = lanes["run"], lanes["used"]
    run[0][:, ri] = _meet(run[0][:, ri], shared)
    run[..., r] = _meet(run[..., r], sets)
    used[ri] += 1
    used[r] += 1
    alive = (run != 0).any(axis=1).all(axis=0)
    return lanes if alive.all() else _take(lanes, np.flatnonzero(alive))


def _sieve_tail(lanes, start, primes: Tuple[int, ...], sig, tables):
    """The lanes still alive after the primes, lane i having passed
    primes[:start[i]] already, by one kernel call over the distinct
    (prime, key) rows of all lanes and primes, reading tables.

    A lane's running set ends as the meet of it with its sets at every
    prime, in any order: its own set if constrained, else its first
    evidence's, keeping the values that every evidence holds.  That is
    what _sieve_step, prime by prime, leaves, so the survivors, their sets
    and their evidence counts are the same.
    """
    ps = np.array(primes, dtype=np.int64)
    num1, den1, num2, den2 = sig
    ahead = np.arange(len(ps)) >= start[:, None]      # (lanes, primes)
    i, j = np.nonzero(ahead & (lanes["res"][:, None] % ps != 0))
    p = ps[j]
    s1, s2 = lanes["s1"][i], lanes["s2"][i]
    ri, shared, r, sets = _key_sets(
        p, np.ones(len(i), dtype=bool), _reduce(num1[s1], den1[s1], p, tables, -1),
        _reduce(num2[s2], den2[s2], p, tables, -1), lanes["rational"][i],
        lanes["gamma"][..., i], tables)
    # ev (2, lanes, primes) marks the evidence of each critical point, n
    # (2, PERIOD_SLOTS, lanes, primes) holds its sets
    ev = np.zeros((2, *ahead.shape), dtype=bool)
    n = np.zeros((2, PERIOD_SLOTS, *ahead.shape), dtype=np.int32)
    ev[0, i[ri], j[ri]] = True
    n[0][:, i[ri], j[ri]] = shared
    ev[:, i[r], j[r]] = True
    n[..., i[r], j[r]] = sets
    run = lanes["run"]
    seed = np.take_along_axis(n, ev.argmax(axis=-1)[:, None, :, None], axis=-1)[..., 0]
    run = np.where((run[:, :1] < 0) & ev.any(axis=-1)[:, None], seed, run)
    hit = run[..., None] == n[:, :1]
    for k in range(1, PERIOD_SLOTS):
        hit |= run[..., None] == n[:, k:k + 1]
    run = np.where((hit | ~ev[:, None]).all(axis=-1), run, 0)
    lanes = dict(lanes, run=run, used=lanes["used"] + ev[0].sum(axis=-1, dtype=np.int32))
    return _take(lanes, np.flatnonzero((run != 0).any(axis=1).all(axis=0)))


def _lane_sieve(sig, primes: Tuple[int, ...]):
    """The lanes of all pairs that survive, in order, sig being the sigmas'
    (num1, den1, num2, den2).

    Lanes stream through the primes in the order given; sieve passes them
    ascending.  The lanes waiting at a prime are stepped together once
    there are LANE_BUDGET of them, and the rest after the last pair is
    prepared.  Once the lanes still alive times the primes still ahead fit
    in LANE_BUDGET, one _sieve_tail call takes the lanes through all of
    those primes.  All read one _mod_tables over all the primes, 16 bytes
    per unit of their sum (4.6 MB for every prime below LANE_PRIME_LIMIT).
    When LANE_BUDGET lanes reach a prime p together, p^2 being at most
    TABLE_KEYS, the kernel runs once over all p^2 keys and every batch at p
    reads that table until no lane can reach p; other steps keep nothing.
    """
    tables = _mod_tables(primes)
    contexts = {}
    waiting: List[list] = [[] for _ in range(len(primes) + 1)]

    def step(k):
        p = primes[k]
        batch = _concat(waiting[k])
        waiting[k] = []
        context = contexts.get(p)
        if context is None:
            table = None
            if len(batch["res"]) >= LANE_BUDGET and p * p <= TABLE_KEYS:
                table = _lane_table(period_entries(p, *ffdyn.family_forms(
                    *ffdyn.family_bc(*np.divmod(np.arange(p * p), p))), tables))
            context = (_reduce(sig[0], sig[1], p, tables, -1),
                       _reduce(sig[2], sig[3], p, tables, -1), table)
            if table is not None:
                contexts[p] = context
        waiting[k + 1].append(_sieve_step(p, batch, tables, *context))

    total = len(sig[0]) * len(sig[2])
    for t in range(0, total, LANE_BUDGET):
        waiting[0].append(_prepare_lanes(sig, t, min(t + LANE_BUDGET, total)))
        k = 0
        while k < len(primes) and sum(len(x["res"]) for x in waiting[k]) >= LANE_BUDGET:
            step(k)
            k += 1
    for k in range(len(primes)):
        # deeper lanes come first in the pair order
        rest = [(j, x) for j in range(len(primes) - 1, k - 1, -1) for x in waiting[j]]
        alive = sum(len(x["res"]) for _, x in rest)
        ahead = len(primes) - k
        if alive * ahead <= LANE_BUDGET:
            if alive:
                start = np.concatenate([np.full(len(x["res"]), j - k) for j, x in rest])
                waiting[-1].append(_sieve_tail(
                    _concat([x for _, x in rest]), start, primes[k:], sig, tables))
            break
        if waiting[k]:
            step(k)
        contexts.pop(primes[k], None)  # no lane reaches prime k any more
    return _concat(waiting[-1] or [_prepare_lanes(sig, 0, 0)])


def _candidate(s1: ExtendedRational, s2: ExtendedRational, forms, res: int,
               rational: bool, used: int, run) -> SieveCandidate:
    sets = tuple(None if used == 0 else frozenset(x for x in pair if x > 0)
                 for pair in run)
    return SieveCandidate(
        sigma1=s1, sigma2=s2, phi=NormalizedQuadMap(forms[:3], forms[3:], (s1, s2)),
        resultant=res, critical_rational=rational,
        period_sets=sets if rational else sets[:1], primes_used=used)


def sieve(h1: int, h2: int, primes: Sequence[int]) -> List[SieveCandidate]:
    """Find all possibly-PCF sigma-pairs with heights up to (h1, h2).

    Survivors come in the order of enumerate_rationals (sigma1 outer) and
    equal examine_pair's over a database of the same primes, in any order.
    """
    primes = validate_primes(primes, LANE_PRIME_LIMIT, "the lane sieve")
    if h1 * h2 > MAX_HEIGHT_PRODUCT:
        raise ValueError(f"heights ({h1}, {h2}) exceed the lane sieve's int64 "
                         f"bound h1 * h2 <= {MAX_HEIGHT_PRODUCT}")
    sigma1_list = list(enumerate_rationals(h1))
    sigma2_list = list(enumerate_rationals(h2))
    sig = (*_num_den(sigma1_list), *_num_den(sigma2_list))
    # a lane dies when its sets over all the primes have an empty
    # intersection, whatever their order, and small primes kill most lanes
    lanes = _lane_sieve(sig, tuple(sorted(primes)))
    i, j = lanes["s1"], lanes["s2"]
    F, G = _normal_forms(sig[0][i], sig[1][i], sig[2][j], sig[3][j])
    forms = np.stack(np.broadcast_arrays(*F, *G), axis=1).tolist()
    return [_candidate(sigma1_list[a], sigma2_list[b], *rest)
            for a, b, *rest in zip(i.tolist(), j.tolist(), forms, lanes["res"].tolist(),
                                   lanes["rational"].tolist(), lanes["used"].tolist(),
                                   lanes["run"].transpose(2, 0, 1).tolist())]
