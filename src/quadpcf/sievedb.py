"""The multi-prime period sieve, and the per-prime database kept as its reference.

A map (F, G) mod an odd prime p has, when it has degree 2 and both
critical points are F_p-rational, an admissible global-period set for each
critical point.  One vectorised kernel, period_entries, computes these for
arrays of integer forms, evaluating them as FpMap does; scalar
ffdyn.orbit_data is its oracle.  The sieve passes it the normal forms
ffdyn.family_forms(b, c) of its keys (b, c) in F_p^2.

sieve() enumerates sigma-pairs up to height bounds and intersects the
per-critical-point period sets across good primes in numpy lanes: for each
prime it reduces the alive pairs to their (b, c) keys, runs the kernel on
the distinct keys only, intersects the running sets as arrays and drops the
dead lanes.  A candidate dies the moment an intersection empties.  Only the
survivors are turned into NormalizedQuadMap objects.

The database holds the kernel's three arrays over all p^2 keys of each
prime, row b * p + c for the key (b, c).  Nothing on the search path, and
no command, reads it; examine_pair and the check functions run the same
sieve one pair at a time against it, as the reference the tests and the
benchmark's traced replay compare with.  On disk a database is a sequence
of .npy records: the prime list, then each prime's three arrays.  Content
is deterministic for a given prime list.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from quadpcf import ffdyn
from quadpcf.exact_arith import (
    ExtendedRational,
    divisors,
    enumerate_rationals,
    validate_primes,
)
from quadpcf.ffdyn import (
    LANE_PRIME_LIMIT,
    MAX_HEIGHT_PRODUCT,
    PeriodSet,
    format_fp_point,
)
from quadpcf.projmap import NormalizedQuadMap

# the database keeps 49 bytes for each of the p^2 keys of a prime, so this
# bound (below 4.2 M keys, about 200 MB) caps the memory of one prime
DB_PRIME_LIMIT = 1 << 11
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


def _pick(coeffs, idx):
    """The coefficients at the lanes idx; scalar coefficients stay scalars."""
    return tuple([x if np.ndim(x) == 0 else x[idx] for x in coeffs])


def _step(z, M, p, inv):
    """FpMap.step_index on each lane; M is F + G (+ W), reduced mod p."""
    f2, f1, f0, g2, g1, g0 = M[:6]
    aff = z != p
    zz = np.where(aff, z, 0)
    num = ((f2 * zz + f1) * zz + f0) % p
    den = ((g2 * zz + g1) * zz + g0) % p
    out = np.where(den == 0, p, num * inv[den] % p)
    return np.where(aff, out, np.where(g2 == 0, p, f2 * inv[g2] % p))


def _deriv(z, M, p, inv):
    """FpMap.derivative_factor on each lane; M is F + G + W, reduced mod p."""
    f2, f1, f0, g2, g1, g0, w2, w1, w0 = M
    aff = z != p
    zz = np.where(aff, z, 0)
    n_val = ((w2 * zz + w1) * zz + w0) % p
    den = ((g2 * zz + g1) * zz + g0) % p
    f_val = ((f2 * zz + f1) * zz + f0) % p
    fin = np.where(den == 0,
                   (-n_val * inv[f_val] % p) * inv[f_val] % p,
                   (n_val * inv[den] % p) * inv[den] % p)
    # at infinity, in the chart 1/z: w2 / f2^2 where g2 = 0, else -w2 / g2^2
    lead = inv[np.where(g2 == 0, f2, g2)]
    at_inf = np.where(g2 == 0, w2, -w2) * (lead * lead % p) % p
    return np.where(aff, fin, at_inf)


def _vector_cycles(p, M, z0, inv):
    """Cycle length and cycle multiplier for each lane, M being F + G + W
    reduced mod p: Brent's method, then one walk round each cycle."""
    n = len(z0)
    length = np.zeros(n, dtype=np.int64)
    on_cycle = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    FG = M[:6]
    tort = z0.copy()
    hare = _step(z0, FG, p, inv)
    power = np.ones(n, dtype=np.int64)
    lam = np.ones(n, dtype=np.int64)
    while len(idx):
        done = tort == hare
        if done.any():
            lane = idx[done]
            length[lane] = lam[done]
            on_cycle[lane] = hare[done]
            keep = np.flatnonzero(~done)
            idx, FG = idx[keep], _pick(FG, keep)
            tort, hare = tort[keep], hare[keep]
            power, lam = power[keep], lam[keep]
            if not len(idx):
                break
        tp = power == lam
        if tp.any():
            tort[tp] = hare[tp]
            power[tp] <<= 1
            lam[tp] = 0
        hare = _step(hare, FG, p, inv)
        lam += 1
    # with the lanes in ascending order of cycle length, those still walking
    # at step t are the ones from starts[t] on
    order = np.argsort(length, kind="stable")
    M = _pick(M, order)
    cur = on_cycle[order]
    mult = np.ones(n, dtype=np.int64)
    starts = np.searchsorted(length[order], np.arange(length.max(initial=0)),
                             side="right")
    for s in starts.tolist():
        Ms = _pick(M, slice(s, None))
        mult[s:] = mult[s:] * _deriv(cur[s:], Ms, p, inv) % p
        cur[s:] = _step(cur[s:], Ms, p, inv)
    out = np.empty(n, dtype=np.int64)
    out[order] = mult
    return length, out


def period_entries(p: int, F, G, tables=None):
    """Critical points and admissible period sets of the maps (F, G) mod p,
    by the rule of ffdyn.possible_periods; a coefficient is a vector with
    one entry per row, or a scalar shared by all rows.

    present marks the rows of degree 2 whose two critical points lie in
    P^1(F_p); for them points holds the points ascending (infinity = p
    last) and periods holds (m1, mr1, m2, mr2): the set of each point is
    {m}, or {m, mr} when the cycle multiplier has order r > 1 and
    mr = m * r.  Other rows are zero.
    """
    inv, sq = tables if tables is not None else _mod_tables(p)
    M = tuple(np.asarray(x, dtype=np.int64) % p for x in (*F, *G))
    (n,) = np.broadcast(*M).shape
    w2, w1, w0 = (w % p for w in ffdyn.wronskian(M[:3], M[3:]))
    # the wronskian discriminant is 4 * resultant: nonzero exactly on the
    # degree-2 rows, whose two critical points then differ; where w2 = 0,
    # w1 != 0 and one of them is infinity
    disc = np.broadcast_to((w1 * w1 - 4 * w2 * w0) % p, (n,))
    sqd = sq[disc]
    present = (disc != 0) & ((w2 == 0) | (sqd >= 0))
    sel = np.flatnonzero(present)
    M = _pick(M + (w2, w1, w0), sel)
    w2, w1, w0 = M[6:]
    sqd = sqd[sel]
    lin = w2 == 0
    i2w2 = inv[(2 * w2) % p]
    r_lo = ((sqd - w1) % p) * i2w2 % p
    r_hi = ((-sqd - w1) % p) * i2w2 % p
    points = np.zeros((n, 2), dtype=np.int64)
    points[sel, 0] = np.where(lin, (-w0 * inv[w1]) % p, np.minimum(r_lo, r_hi))
    points[sel, 1] = np.where(lin, p, np.maximum(r_lo, r_hi))
    periods = np.zeros((n, 4), dtype=np.int64)
    for k in (0, 1):
        m, mult = _vector_cycles(p, M, points[sel, k], inv)
        r = _mult_orders(mult, p)
        periods[sel, 2 * k] = m
        periods[sel, 2 * k + 1] = np.where(r > 1, m * r, 0)
    return present, points, periods


# ----------------------------------------------------------------------
# the reference database
# ----------------------------------------------------------------------

# per prime: the dtype and row shape of period_entries' present, points and
# periods arrays
_ARRAY_LAYOUT = ((np.dtype(bool), ()), (np.dtype(np.int64), (2,)),
                 (np.dtype(np.int64), (4,)))


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
        m1, mr1, m2, mr2 = periods[k].tolist()
        return DbEntry(p=p, points=tuple(points[k].tolist()),
                       period_sets=(frozenset((m1, mr1)) - {0},
                                    frozenset((m2, mr2)) - {0}))

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
                primes = validate_primes(primes.tolist(), DB_PRIME_LIMIT,
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
    primes = validate_primes(primes, DB_PRIME_LIMIT, "the reference database")
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
    # from_sigmas over the common denominator d1 * d2, divided by the
    # content gcd(d1 * d2, b, c) of the forms; f2 > 0 already
    dd = d1 * d2
    b, c = ffdyn.family_bc(n1 * d2, n2 * d1, dd)
    content = np.gcd(np.gcd(dd, b), c)
    F, G = ffdyn.family_forms(b // content, c // content, dd // content)
    res = ffdyn.form_resultant(F, G)   # equals NormalizedQuadMap.resultant()
    keep = res != 0
    i, j, res = i[keep], j[keep], res[keep]
    w2, w1, w0 = (w[keep] for w in ffdyn.wronskian(F, G))
    disc = 4 * res                 # nonzero, so the critical points differ
    s = np.sqrt(np.maximum(disc, 0).astype(np.float64)).astype(np.int64)
    s -= s * s > disc
    s += (s + 1) * (s + 1) <= disc
    lin = w2 == 0
    rational = lin | (s * s == disc)
    gamma = np.stack([np.where(lin, -w0, s - w1), np.where(lin, w1, 2 * w2),
                      np.where(lin, 1, -s - w1), np.where(lin, 0, 2 * w2)], axis=1)
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
    # den(sigma) divides the resultant: test_sievedb's test_denominator_prime_safety
    if (good & ((x1 < 0) | (x2 < 0))).any():
        raise DbConsistencyError(
            f"sigma denominator divisible by good prime {p}; resultant guard failed")
    idx = np.flatnonzero(good)
    if not len(idx):
        return lanes
    b, c = ffdyn.family_bc(x1[idx], x2[idx])
    del x1, x2  # a run's peak memory is reached in the first steps
    keys, back = np.unique(b % p * p + c % p, return_inverse=True)
    present, points, periods = period_entries(
        p, *ffdyn.family_forms(keys // p, keys % p), tables)
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


def _lane_sieve(s1_list, s2_list, primes: Tuple[int, ...]) -> np.ndarray:
    """Surviving lanes of all pairs, in order.

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

    total = len(num1) * len(num2)
    for t in range(0, total, LANE_BUDGET):
        waiting[0].append(_prepare_lanes(num1, den1, num2, den2, t,
                                         min(t + LANE_BUDGET, total)))
        k = 0
        while k < len(primes) and sum(len(x) for x in waiting[k]) >= LANE_BUDGET:
            step(k)
            k += 1
    for k in range(len(primes)):
        if waiting[k]:
            step(k)
        contexts.pop(primes[k], None)  # no lane reaches prime k any more
    return np.concatenate(waiting[-1]) if waiting[-1] else np.empty(0, LANE_DTYPE)


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


def sieve(h1: int, h2: int, primes: Sequence[int]) -> List[SieveCandidate]:
    """Find all possibly-PCF sigma-pairs with heights up to (h1, h2).

    Survivors come in the order of enumerate_rationals (sigma1 outer) and
    equal examine_pair's over a database of the same primes.
    """
    primes = validate_primes(primes, LANE_PRIME_LIMIT, "the lane sieve")
    if h1 * h2 > MAX_HEIGHT_PRODUCT:
        raise ValueError(f"heights ({h1}, {h2}) exceed the lane sieve's int64 "
                         f"bound h1 * h2 <= {MAX_HEIGHT_PRODUCT}")
    sigma1_list = list(enumerate_rationals(h1))
    sigma2_list = list(enumerate_rationals(h2))
    lanes = _lane_sieve(sigma1_list, sigma2_list, primes)
    return [_candidate(sigma1_list[lane["s1"]], sigma2_list[lane["s2"]], lane)
            for lane in lanes]
