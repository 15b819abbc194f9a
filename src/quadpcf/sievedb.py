"""The multi-prime period sieve, and the per-prime database kept as its reference.

For each odd prime p and each pair (b, c) in F_p^2, the family map
[2x^2+bxy+by^2, -x^2+(4-b)xy+cy^2] has, when it has degree 2 and both
critical points are F_p-rational, an admissible global-period set for each
critical point.  One vectorised kernel, period_entries, computes these for
any array of keys (b, c); scalar ffdyn.orbit_data is its oracle.

sieve() enumerates sigma-pairs up to height bounds and intersects the
per-critical-point period sets across good primes in numpy lanes: for each
prime it reduces the alive pairs to their (b, c) keys, runs the kernel on
the distinct keys only, intersects the running sets as arrays and drops the
dead lanes.  A candidate dies the moment an intersection empties.  Only the
survivors are turned into NormalizedQuadMap objects.

The database stores the kernel's output for all p^2 keys of each prime.
Nothing on the search path, and no command, reads it; examine_pair and the
check functions run the same sieve one pair at a time against it, as the
reference the tests and the benchmark's traced replay compare with.  On
disk a database is a single versioned binary file: a header with the prime
list, then per-prime blocks of a presence bitmap plus fixed-width records
in (b, c) order.  Content is deterministic for a given prime list.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from quadpcf import ffdyn
from quadpcf.exact_arith import (
    ExtendedRational,
    divisors,
    enumerate_rationals,
    is_prime,
    primes_up_to,
)
from quadpcf.ffdyn import FpMap, PeriodSet, format_fp_point
from quadpcf.projmap import NormalizedQuadMap

MAGIC = b"QPCFSDB\x01"
FORMAT_VERSION = 1

RECORD_DTYPE = np.dtype([
    ("c1", "<u2"), ("c2", "<u2"),
    ("m1", "<u2"), ("m2", "<u2"),
    ("mr1", "<u4"), ("mr2", "<u4"),
])
assert RECORD_DTYPE.itemsize == 16

NO_POINT = 0xFFFF
# u2 record fields hold critical points <= p (NO_POINT reserved) and cycle
# lengths <= p + 1; m * r <= p^2 - 1 then fits the u4 fields
DB_PRIME_LIMIT = NO_POINT - 1
# the lane kernel forms products of three residues (b^3 in the family
# resultant), which must stay below 2^63
LANE_PRIME_LIMIT = 1 << 20
# normal-form coefficients of a pair are at most 4 * h1 * h2 <= 2^14, so the
# wronskian discriminant (<= 32 * 2^56) and every other per-pair int64 value
# of the lane sieve stays far from overflow
MAX_HEIGHT_PRODUCT = 1 << 12
# lanes a sieve step handles at once; bounds the memory of a run
LANE_BUDGET = 1 << 14


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


def odd_primes_up_to(bound: int) -> Tuple[int, ...]:
    return primes_up_to(bound)[1:]


def first_odd_primes(count: int) -> Tuple[int, ...]:
    bound = 64
    while len(odd_primes_up_to(bound)) < count:
        bound *= 2
    return odd_primes_up_to(bound)[:count]


def validate_primes(primes: Sequence[int], limit: int, what: str) -> Tuple[int, ...]:
    """The primes as ints; ValueError unless distinct odd primes below limit."""
    primes = tuple(int(p) for p in primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if p >= limit:
            raise ValueError(f"prime {p} is too large for {what} (limit {limit})")
        if p == 2 or not is_prime(p):
            raise ValueError(f"need odd primes, got {p}")
    return primes


@dataclass(frozen=True)
class DbEntry:
    """Critical points of one reduced map with their admissible period sets.

    Points use the integer index encoding (p for infinity), ascending, and
    there are one or two of them depending on whether the reduced wronskian
    had a repeated root.
    """

    p: int
    points: Tuple[int, ...]
    period_sets: Tuple[PeriodSet, ...]

    def periods_for(self, point_index: int) -> PeriodSet:
        for pt, per in zip(self.points, self.period_sets):
            if pt == point_index:
                return per
        raise DbConsistencyError(
            f"point {format_fp_point(point_index, self.p)} not among stored "
            f"critical points {self.points} (p={self.p})")


# ----------------------------------------------------------------------
# per-prime block construction
# ----------------------------------------------------------------------

def _record(pts_pers) -> tuple:
    """Pack [(point, m, mr), ...] (1 or 2 items) into a record tuple."""
    (c1, m1, mr1) = pts_pers[0]
    if len(pts_pers) == 2:
        (c2, m2, mr2) = pts_pers[1]
    else:
        c2, m2, mr2 = NO_POINT, 0, 0
    return (c1, c2, m1, m2, mr1, mr2)


def build_prime_block_scalar(p: int) -> "PrimeBlock":
    """Reference builder: plain loops over (b, c) with exact orbit splits."""
    nbits = p * p
    bitmap = np.zeros((nbits + 63) // 64, dtype=np.uint64)
    records = []
    for b in range(p):
        for c in range(p):
            if FpMap.family_resultant(p, b, c) == 0:
                continue
            fmap = FpMap.from_bc(p, b, c)
            crit = fmap.critical_point_indices()
            if crit is None:
                continue
            per = []
            for pt in crit:
                o = ffdyn.orbit_data(fmap, pt)
                if o.lam == 0 or o.r == 1:
                    per.append((pt, o.m, 0))
                else:
                    per.append((pt, o.m, o.m * o.r))
            idx = b * p + c
            bitmap[idx >> 6] |= np.uint64(1 << (idx & 63))
            records.append(_record(per))
    rec_arr = np.array(records, dtype=RECORD_DTYPE) if records else np.empty(0, RECORD_DTYPE)
    return PrimeBlock(p, bitmap, rec_arr)


# -- vectorised kernel ----------------------------------------------------

def _powmod(x, e: int, p: int):
    """x^e mod p elementwise, for residues x < p < LANE_PRIME_LIMIT."""
    x = x % p
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _mod_tables(p: int):
    """Inverse and square-root tables mod p (0 and -1 where there is none)."""
    inv = _powmod(np.arange(p, dtype=np.int64), p - 2, p)
    sq = np.full(p, -1, dtype=np.int64)
    xs = np.arange((p - 1) // 2 + 1, dtype=np.int64)
    sq[(xs * xs) % p] = xs
    return inv, sq


def _mult_orders(lam, p: int):
    """Multiplicative order of each residue in lam, 0 for lam = 0."""
    vals, back = np.unique(lam, return_inverse=True)
    order = np.zeros(len(vals), dtype=np.int64)
    todo = vals != 0
    for d in divisors(p - 1):
        if not todo.any():
            break
        hit = todo & (_powmod(vals, d, p) == 1)
        order[hit] = d
        todo &= ~hit
    return order[back]


def _family_step(z, b, c, p, inv):
    """Vectorized map evaluation on index-encoded points (p = infinity)."""
    aff = z != p
    zz = np.where(aff, z, 0)
    num = (2 * zz * zz + b * zz + b) % p
    den = (-(zz * zz) + (4 - b) * zz + c) % p
    out = np.where(den == 0, p, (num * inv[den]) % p)
    return np.where(aff, out, p - 2)


def _family_deriv(z, b, c, p, inv):
    """Vectorized chart-correct derivative factor; g2 = -1 in this family."""
    aff = z != p
    zz = np.where(aff, z, 0)
    w2 = (8 - b) % p
    n_val = (w2 * zz * zz + (2 * b + 4 * c) * zz + b * (c + b - 4)) % p
    den = (-(zz * zz) + (4 - b) * zz + c) % p
    f_val = (2 * zz * zz + b * zz + b) % p
    fin = np.where(den == 0,
                   (-n_val * inv[f_val] % p) * inv[f_val] % p,
                   (n_val * inv[den] % p) * inv[den] % p)
    # from infinity: (f1*g2 - f2*g1) / g2^2 with g2 = -1 -> b - 8
    return np.where(aff, fin, (b - 8) % p)


def _vector_cycles(p, b, c, z0, inv):
    """Cycle length and cycle multiplier for each lane, by Brent's method."""
    n = len(z0)
    lam_out = np.zeros(n, dtype=np.int64)
    mult_out = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    bw, cw = b.copy(), c.copy()
    tort = z0.copy()
    hare = _family_step(z0, bw, cw, p, inv)
    power = np.ones(n, dtype=np.int64)
    lam = np.ones(n, dtype=np.int64)
    while len(idx):
        done = tort == hare
        if done.any():
            lane = idx[done]
            lam_out[lane] = lam[done]
            mult_out[lane] = hare[done]  # stash the on-cycle point for phase 2
            keep = ~done
            idx, bw, cw = idx[keep], bw[keep], cw[keep]
            tort, hare = tort[keep], hare[keep]
            power, lam = power[keep], lam[keep]
            if not len(idx):
                break
        tp = power == lam
        if tp.any():
            tort[tp] = hare[tp]
            power[tp] <<= 1
            lam[tp] = 0
        hare = _family_step(hare, bw, cw, p, inv)
        lam += 1
    # phase 2: walk each cycle once, multiplying derivative factors
    cur = mult_out.copy()
    remaining = lam_out.copy()
    mult = np.ones(n, dtype=np.int64)
    idx = np.flatnonzero(remaining > 0)
    bw, cw, cur_w, rem_w = b[idx], c[idx], cur[idx], remaining[idx]
    mult_w = np.ones(len(idx), dtype=np.int64)
    while len(idx):
        f = _family_deriv(cur_w, bw, cw, p, inv)
        mult_w = (mult_w * f) % p
        cur_w = _family_step(cur_w, bw, cw, p, inv)
        rem_w -= 1
        done = rem_w == 0
        if done.any():
            mult[idx[done]] = mult_w[done]
            keep = ~done
            idx, bw, cw = idx[keep], bw[keep], cw[keep]
            cur_w, rem_w, mult_w = cur_w[keep], rem_w[keep], mult_w[keep]
    return lam_out, mult


def period_entries(p: int, b, c, tables=None):
    """Critical points and admissible period sets of the family maps at the
    keys (b, c), by the rule of ffdyn.possible_periods.

    Returns (present, points, periods) with one row per key.  present marks
    the keys of degree 2 whose two critical points lie in P^1(F_p); for them
    points holds the points ascending (infinity = p last) and periods holds
    (m1, mr1, m2, mr2): the set of each point is {m}, or {m, mr} when the
    cycle multiplier has order r > 1 and mr = m * r.  Other rows are zero.
    """
    inv, sq = tables if tables is not None else _mod_tables(p)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    res = (4 * c * c - 4 * b * c + b * b * c + b ** 3 - 11 * b * b + 32 * b) % p
    w2 = (8 - b) % p
    w1 = (2 * b + 4 * c) % p
    w0 = (b * (c + b - 4)) % p
    # the wronskian discriminant is 4 * res, so on degree-2 keys the roots are
    # distinct, and w1 != 0 where w2 = 0 puts one root at infinity
    lin = (res != 0) & (w2 == 0)
    sqd = sq[(w1 * w1 - 4 * w2 * w0) % p]
    present = lin | ((res != 0) & (sqd >= 0))
    sel = np.flatnonzero(present)
    b, c, w2, w1, w0, sqd, lin = (x[sel] for x in (b, c, w2, w1, w0, sqd, lin))
    i2w2 = inv[(2 * w2) % p]
    r_lo = ((sqd - w1) % p) * i2w2 % p
    r_hi = ((-sqd - w1) % p) * i2w2 % p
    points = np.zeros((len(present), 2), dtype=np.int64)
    points[sel, 0] = np.where(lin, (-w0 * inv[w1]) % p, np.minimum(r_lo, r_hi))
    points[sel, 1] = np.where(lin, p, np.maximum(r_lo, r_hi))
    periods = np.zeros((len(present), 4), dtype=np.int64)
    for k in (0, 1):
        m, mult = _vector_cycles(p, b, c, points[sel, k], inv)
        r = _mult_orders(mult, p)
        periods[sel, 2 * k] = m
        periods[sel, 2 * k + 1] = np.where(r > 1, m * r, 0)
    return present, points, periods


def build_prime_block_fast(p: int) -> "PrimeBlock":
    """numpy builder over all (b, c) lanes at once; equals the scalar build."""
    b = np.repeat(np.arange(p, dtype=np.int64), p)
    c = np.tile(np.arange(p, dtype=np.int64), p)
    present, points, periods = period_entries(p, b, c)
    sel = np.flatnonzero(present)
    records = np.empty(len(sel), dtype=RECORD_DTYPE)
    records["c1"], records["c2"] = points[sel, 0], points[sel, 1]
    for k, name in enumerate(("m1", "mr1", "m2", "mr2")):
        records[name] = periods[sel, k]
    bitmap = np.zeros((p * p + 63) // 64, dtype=np.uint64)
    word = sel >> 6
    np.bitwise_or.at(bitmap, word, np.uint64(1) << (sel & 63).astype(np.uint64))
    return PrimeBlock(p, bitmap, records)


# ----------------------------------------------------------------------
# blocks, rank index, file format
# ----------------------------------------------------------------------

_POPCOUNT_BYTE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


class PrimeBlock:
    """All database entries for one prime: bitmap + packed records."""

    def __init__(self, p: int, bitmap: np.ndarray, records: np.ndarray):
        self.p = p
        self.bitmap = bitmap
        self.records = records
        counts = _POPCOUNT_BYTE[bitmap.view(np.uint8)].reshape(-1, 8).sum(axis=1)
        self.rank = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        if self.rank[-1] != len(records):
            raise DbFormatError(
                f"bitmap population {self.rank[-1]} != record count {len(records)} "
                f"for p={p}")

    def lookup(self, b: int, c: int):
        idx = b * self.p + c
        word = idx >> 6
        bit = idx & 63
        w = int(self.bitmap[word])
        if not (w >> bit) & 1:
            return ABSENT
        pos = int(self.rank[word]) + (w & ((1 << bit) - 1)).bit_count()
        rec = self.records[pos]
        pts = [int(rec["c1"])]
        pers = [_unpack_period_set(int(rec["m1"]), int(rec["mr1"]))]
        if int(rec["c2"]) != NO_POINT:
            pts.append(int(rec["c2"]))
            pers.append(_unpack_period_set(int(rec["m2"]), int(rec["mr2"])))
        return DbEntry(p=self.p, points=tuple(pts), period_sets=tuple(pers))

    def tobytes(self) -> bytes:
        head = struct.pack("<IQ", self.p, len(self.records))
        return head + self.bitmap.tobytes() + self.records.tobytes()


def _unpack_period_set(m: int, mr: int) -> PeriodSet:
    if mr == 0:
        return frozenset((m,))
    return frozenset((m, mr))


class Database:
    """Mapping (p, b, c) -> DbEntry, persistent and read-only once built."""

    def __init__(self, primes: Sequence[int], blocks: Optional[Dict[int, PrimeBlock]] = None,
                 path: Optional[str] = None, offsets: Optional[Dict[int, int]] = None):
        self.primes = tuple(int(p) for p in primes)
        self._blocks = blocks if blocks is not None else {}
        self._path = path
        self._offsets = offsets or {}

    # -- queries ----------------------------------------------------------

    def lookup(self, p: int, b: int, c: int):
        """DbEntry, or ABSENT for pairs excluded at build time."""
        block = self._block(p)
        return block.lookup(b % p, c % p)

    def entry_count(self, p: int) -> int:
        return len(self._block(p).records)

    def _block(self, p: int) -> PrimeBlock:
        if p not in self._blocks:
            if p not in self._offsets:
                raise UncoveredPrimeError(f"prime {p} is not covered by this database")
            self._blocks[p] = self._load_block(p)
        return self._blocks[p]

    # -- file I/O -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically; a partially written file is never left behind."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(self.primes)))
            fh.write(struct.pack(f"<{len(self.primes)}I", *self.primes))
            for p in self.primes:
                fh.write(self._block(p).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> "Database":
        if not os.path.exists(path):
            raise DbMissingError(f"database file not found: {path}")
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC))
            if head != MAGIC:
                raise DbFormatError(f"bad magic in {path}")
            version, nprimes = struct.unpack("<II", fh.read(8))
            if version != FORMAT_VERSION:
                raise DbFormatError(f"unsupported db version {version}")
            primes = struct.unpack(f"<{nprimes}I", fh.read(4 * nprimes))
            offsets = {}
            pos = fh.tell()
            size = os.fstat(fh.fileno()).st_size
            for p in primes:
                offsets[p] = pos
                fh.seek(pos)
                blk_p, nrec = struct.unpack("<IQ", fh.read(12))
                if blk_p != p:
                    raise DbFormatError(f"block for prime {blk_p} where {p} expected")
                nwords = (p * p + 63) // 64
                pos += 12 + nwords * 8 + nrec * RECORD_DTYPE.itemsize
            if pos != size:
                raise DbFormatError(
                    f"file length {size} does not match block layout end {pos}; "
                    "refusing a partial database")
        return Database(primes, blocks={}, path=path, offsets=offsets)

    def _load_block(self, p: int) -> PrimeBlock:
        with open(self._path, "rb") as fh:
            fh.seek(self._offsets[p])
            blk_p, nrec = struct.unpack("<IQ", fh.read(12))
            nwords = (p * p + 63) // 64
            bitmap = np.frombuffer(fh.read(nwords * 8), dtype="<u8").copy()
            records = np.frombuffer(
                fh.read(nrec * RECORD_DTYPE.itemsize), dtype=RECORD_DTYPE).copy()
        return PrimeBlock(p, bitmap, records)


def build_db(primes: Sequence[int], path: Optional[str] = None) -> Database:
    """Build the database for the given odd primes: per prime, all (b, c)
    pairs with degree 2 and split wronskian, in list order."""
    primes = validate_primes(primes, DB_PRIME_LIMIT, "16-bit database records")
    db = Database(primes, blocks={p: build_prime_block_fast(p) for p in primes})
    if path is not None:
        db.save(path)
        db = Database.load(path)
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
    s1p = _sigma_mod_p(s1, p)
    s2p = _sigma_mod_p(s2, p)
    return (2 - s1p) % p, (2 - s1p - s2p) % p


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
        inter = entry.period_sets[0]
        for per in entry.period_sets[1:]:
            inter = inter & per
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

LANE_DTYPE = np.dtype([
    ("s1", "<i4"), ("s2", "<i4"),     # positions in the sigma enumerations
    ("res", "<i8"),                     # resultant of the integer normal form
    ("rational", "?"),                  # both critical points in P^1(Q)
    # rational critical points as (N1, M1, N2, M2), each N/M in lowest
    # terms and infinity as 1/0; zero for irrational lanes
    ("gamma", "<i8", (4,)),
    # running period sets, two slots per critical point (irrational lanes
    # use the first pair only): 0 is an empty slot, -1 not yet constrained
    ("run", "<i8", (4,)),
    ("used", "<i4"),                    # primes that gave modular evidence
])


def _num_den(rationals):
    return (np.array([x.num for x in rationals], dtype=np.int64),
            np.array([x.den for x in rationals], dtype=np.int64))


def _prepare_lanes(num1, den1, num2, den2, start: int, stop: int) -> np.ndarray:
    """Lanes of the non-degenerate pairs at flat positions [start, stop),
    position t being sigma1 number t // len(num2) and sigma2 number
    t % len(num2); integer arithmetic throughout (see MAX_HEIGHT_PRODUCT)."""
    i, j = np.divmod(np.arange(start, stop, dtype=np.int64), len(num2))
    n1, d1, n2, d2 = num1[i], den1[i], num2[j], den2[j]
    # from_sigmas times d1*d2, then divided by the content; f2 > 0 already
    dd = d1 * d2
    f1 = (2 * d1 - n1) * d2
    g1 = (2 * d1 + n1) * d2
    g0 = 2 * dd - n1 * d2 - n2 * d1
    content = np.gcd(np.gcd(dd, f1), np.gcd(g1, g0))
    dd, f1, g1, g0 = dd // content, f1 // content, g1 // content, g0 // content
    f2, f0, g2 = 2 * dd, f1, -dd
    w2 = f2 * g1 - f1 * g2
    h = f2 * g0 - f0 * g2          # the wronskian's middle coefficient is 2h
    w0 = f1 * g0 - f0 * g1
    res = h * h - w2 * w0          # equals NormalizedQuadMap.resultant()
    keep = res != 0
    i, j, w2, h, w0, res = (x[keep] for x in (i, j, w2, h, w0, res))
    disc = 4 * res                 # nonzero, so the critical points differ
    s = np.sqrt(np.maximum(disc, 0).astype(np.float64)).astype(np.int64)
    s -= s * s > disc
    s += (s + 1) * (s + 1) <= disc
    lin = w2 == 0
    rational = lin | (s * s == disc)
    gamma = np.stack([np.where(lin, -w0, s - 2 * h), np.where(lin, 2 * h, 2 * w2),
                      np.where(lin, 1, -s - 2 * h), np.where(lin, 0, 2 * w2)], axis=1)
    gamma[~rational] = 0
    for k in (0, 2):
        g = np.gcd(gamma[:, k], gamma[:, k + 1])
        gamma[:, k:k + 2] //= np.where(g == 0, 1, g)[:, None]
    lanes = np.zeros(len(i), dtype=LANE_DTYPE)
    lanes["s1"], lanes["s2"], lanes["res"] = i, j, res
    lanes["rational"], lanes["gamma"], lanes["run"] = rational, gamma, -1
    return lanes


def _residues(num, den, p: int, inv):
    """Each rational mod p, or -1 where p divides its denominator."""
    d = den % p
    return np.where(d == 0, -1, num % p * inv[d] % p)


def _meet(x0, x1, n0, n1):
    """Two-slot set (x0, x1) intersected with the nonzero elements of {n0, n1}."""
    unconstrained = x0 < 0
    y0 = np.where(unconstrained, n0, np.where((x0 == n0) | (x0 == n1), x0, 0))
    y1 = np.where(unconstrained, n1, np.where((x1 == n0) | (x1 == n1), x1, 0))
    return y0, y1


def _sieve_step(p: int, lanes: np.ndarray, tables, sig1, sig2) -> np.ndarray:
    """Meet the lanes' running sets with their period sets at p, as
    check_rational_periods_detailed and check_irrational_periods_detailed
    do per pair; the lanes still alive."""
    good = lanes["res"] % p != 0
    x1, x2 = sig1[lanes["s1"]], sig2[lanes["s2"]]
    if (good & ((x1 < 0) | (x2 < 0))).any():
        raise DbConsistencyError(
            f"sigma denominator divisible by good prime {p}; resultant guard failed")
    idx = np.flatnonzero(good)
    if not len(idx):
        return lanes
    x1, x2 = x1[idx], x2[idx]
    keys, back = np.unique((2 - x1) % p * p + (2 - x1 - x2) % p, return_inverse=True)
    present, points, periods = period_entries(p, keys // p, keys % p, tables)
    rational = lanes["rational"][idx]
    run = lanes["run"][idx]
    # each rational critical point meets the set of the point it reduces to
    r = np.flatnonzero(rational)
    kr = back[r]
    if not present[kr].all():
        raise DbConsistencyError(
            f"no F_{p}-rational critical points at good prime {p} for a map "
            "with rational critical points")
    gamma = lanes["gamma"][idx[r]] % p
    inv = tables[0]
    for k in (0, 1):
        red = np.where(gamma[:, 2 * k + 1] == 0, p,
                       gamma[:, 2 * k] * inv[gamma[:, 2 * k + 1]] % p)
        first = red == points[kr, 0]
        if not (first | (red == points[kr, 1])).all():
            raise DbConsistencyError(
                f"a reduced critical point is not critical mod {p}")
        run[r, 2 * k], run[r, 2 * k + 1] = _meet(
            run[r, 2 * k], run[r, 2 * k + 1],
            np.where(first, periods[kr, 0], periods[kr, 2]),
            np.where(first, periods[kr, 1], periods[kr, 3]))
    # conjugate irrational points share one set: the meet of both stored sets
    shared = _meet(periods[:, 0], periods[:, 1], periods[:, 2], periods[:, 3])
    q = np.flatnonzero(~rational & present[back])
    run[q, 0], run[q, 1] = _meet(run[q, 0], run[q, 1], shared[0][back[q]],
                                 shared[1][back[q]])
    lanes["run"][idx] = run
    lanes["used"][idx[r]] += 1
    lanes["used"][idx[q]] += 1
    dead = (((run[:, 0] == 0) & (run[:, 1] == 0))
            | ((run[:, 2] == 0) & (run[:, 3] == 0)))
    alive = np.ones(len(lanes), dtype=bool)
    alive[idx[dead]] = False
    return lanes[alive]


def _lane_sieve(s1_list, s2_list, primes: Tuple[int, ...], start: int,
                stop: int) -> np.ndarray:
    """Surviving lanes of the flat pair positions [start, stop), in order.

    Lanes stream through the primes in order.  The lanes waiting at a prime
    are stepped together once there are LANE_BUDGET of them, and the rest
    at the end, so the late primes, where few lanes are left, run their
    kernel once rather than once per block of pairs.
    """
    num1, den1 = _num_den(s1_list)
    num2, den2 = _num_den(s2_list)
    contexts = {}
    waiting: List[list] = [[] for _ in range(len(primes) + 1)]

    def step(k):
        p = primes[k]
        if p not in contexts:
            tables = _mod_tables(p)
            contexts[p] = (tables, _residues(num1, den1, p, tables[0]),
                           _residues(num2, den2, p, tables[0]))
        batch = np.concatenate(waiting[k])
        waiting[k] = []
        waiting[k + 1].append(_sieve_step(p, batch, *contexts[p]))

    for t in range(start, stop, LANE_BUDGET):
        waiting[0].append(_prepare_lanes(num1, den1, num2, den2, t,
                                         min(t + LANE_BUDGET, stop)))
        k = 0
        while k < len(primes) and sum(len(x) for x in waiting[k]) >= LANE_BUDGET:
            step(k)
            k += 1
    for k in range(len(primes)):
        if waiting[k]:
            step(k)
        contexts.pop(primes[k], None)  # no lane reaches prime k any more
    return np.concatenate(waiting[-1]) if waiting[-1] else np.empty(0, LANE_DTYPE)


def _sieve_range(h1: int, h2: int, primes: Tuple[int, ...], start: int, stop: int):
    return _lane_sieve(list(enumerate_rationals(h1)), list(enumerate_rationals(h2)),
                       primes, start, stop)


def _candidate(s1: ExtendedRational, s2: ExtendedRational, lane) -> SieveCandidate:
    used = int(lane["used"])
    sets = tuple(None if used == 0 else
                 frozenset(int(x) for x in lane["run"][k:k + 2] if x > 0)
                 for k in (0, 2))
    rational = bool(lane["rational"])
    return SieveCandidate(
        sigma1=s1, sigma2=s2, phi=NormalizedQuadMap.from_sigmas(s1, s2),
        resultant=int(lane["res"]), critical_rational=rational,
        period_sets=sets if rational else sets[:1], primes_used=used)


def sieve(h1: int, h2: int, primes: Sequence[int],
          workers: int = 1) -> List[SieveCandidate]:
    """Find all possibly-PCF sigma-pairs with heights up to (h1, h2).

    Survivors come in the order of enumerate_rationals (sigma1 outer) and
    equal examine_pair's over a database of the same primes.  Workers take
    contiguous ranges of pairs, so the list is the same for any count.
    """
    primes = validate_primes(primes, LANE_PRIME_LIMIT, "the lane sieve")
    if h1 * h2 > MAX_HEIGHT_PRODUCT:
        raise ValueError(f"heights ({h1}, {h2}) exceed the lane sieve's int64 "
                         f"bound h1 * h2 <= {MAX_HEIGHT_PRODUCT}")
    sigma1_list = list(enumerate_rationals(h1))
    sigma2_list = list(enumerate_rationals(h2))
    total = len(sigma1_list) * len(sigma2_list)
    if workers > 1:
        import multiprocessing as mp
        cuts = [total * w // workers for w in range(workers + 1)]
        jobs = [(h1, h2, primes, a, b) for a, b in zip(cuts, cuts[1:])]
        with mp.get_context("spawn").Pool(workers) as pool:
            lanes = np.concatenate(pool.starmap(_sieve_range, jobs))
    else:
        lanes = _lane_sieve(sigma1_list, sigma2_list, primes, 0, total)
    return [_candidate(sigma1_list[lane["s1"]], sigma2_list[lane["s2"]], lane)
            for lane in lanes]
