"""The acceptance suite: every exit criterion as an executable check.

Each criterion function returns (ok, detail); run_all prints one PASS/FAIL
line per criterion.  Expected values are frozen here: the ten sigma-pairs
and their critical portraits, the ten rational preperiodic graphs of the
simpler conjugate forms, the four + seven symmetry-locus structures, and
the root-of-unity catalogs.  All are exact; there are no tolerances.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from quadpcf import sievedb
from quadpcf.exact_arith import INFINITY, QuadFieldElement, Rat
from quadpcf.pcfverify import critical_orbit_portrait
from quadpcf.preper import (
    INVERSE_SQUARE,
    SQUARE,
    RootOfUnityPoint,
    classify_psi1_twist,
    classify_psi2_map,
    power_map_low_degree_preperiodic,
    rational_preperiodic_graph,
)
from quadpcf.projmap import NormalizedQuadMap
from quadpcf.sievedb import Database, build_db, family_key, first_odd_primes, \
    odd_primes_up_to, reduce_rational_point

PRIME_BOUND = 750

I = INFINITY


def _q5(a, b):
    return QuadFieldElement(a, b, 5)


def _q2(a, b):
    return QuadFieldElement(a, b, 2)


# The classification: the ten trivial-stabilizer sigma-pairs.
TEN_SIGMA_PAIRS = (
    (Rat(2), Rat(-8)), (Rat(2), Rat(-4)), (Rat(-6), Rat(4)), (Rat(-6), Rat(8)),
    (Rat(-2), Rat(4)), (Rat(-2, 3), Rat(4, 3)), (Rat(-6), Rat(10)),
    (Rat(-2), Rat(0)), (Rat(-2), Rat(2)), (Rat(-10, 3), Rat(20, 3)),
)

# Critical portraits of the normal forms, as (source, target, ramification).
EXPECTED_PORTRAITS: Dict[Tuple, frozenset] = {
    (Rat(2), Rat(-8)): frozenset({
        (Rat(0), Rat(0), 2), (Rat(-4), Rat(-4, 3), 2),
        (Rat(-4, 3), Rat(4), 1), (Rat(4), Rat(4), 1)}),
    (Rat(2), Rat(-4)): frozenset({
        (Rat(0), Rat(0), 2), (Rat(-2), Rat(-1), 2), (Rat(-1), Rat(-2), 1)}),
    (Rat(-6), Rat(4)): frozenset({
        (I, Rat(-2), 2), (Rat(-2), Rat(0), 2), (Rat(0), Rat(2), 1),
        (Rat(2), Rat(-4), 1), (Rat(-4), Rat(2), 1)}),
    (Rat(-6), Rat(8)): frozenset({
        (Rat(-2), Rat(0), 2), (Rat(0), I, 1), (I, Rat(-2), 2)}),
    (Rat(-2), Rat(4)): frozenset({
        (Rat(0), I, 2), (I, Rat(-2), 1), (Rat(-2), Rat(-1), 2),
        (Rat(-1), Rat(-2), 1)}),
    (Rat(-2, 3), Rat(4, 3)): frozenset({
        (Rat(0), Rat(2), 2), (Rat(2), I, 1), (I, Rat(-2), 1),
        (Rat(-2), Rat(-1), 2), (Rat(-1), Rat(-2), 1)}),
    (Rat(-6), Rat(10)): frozenset({
        (I, Rat(-2), 2), (Rat(-2), Rat(0), 2), (Rat(0), Rat(-4), 1),
        (Rat(-4), Rat(-4), 1)}),
    (Rat(-2), Rat(0)): frozenset({
        (_q5(Rat(-3), Rat(-1)), _q5(Rat(-1, 2), Rat(-1, 2)), 2),
        (_q5(Rat(-3), Rat(1)), _q5(Rat(-1, 2), Rat(1, 2)), 2),
        (_q5(Rat(-1, 2), Rat(-1, 2)), Rat(2), 1),
        (_q5(Rat(-1, 2), Rat(1, 2)), Rat(2), 1),
        (Rat(2), I, 1), (I, Rat(-2), 1), (Rat(-2), I, 1)}),
    (Rat(-2), Rat(2)): frozenset({
        (_q2(Rat(-2), Rat(-1)), _q2(Rat(0), Rat(-1)), 2),
        (_q2(Rat(-2), Rat(1)), _q2(Rat(0), Rat(1)), 2),
        (_q2(Rat(0), Rat(-1)), I, 1), (_q2(Rat(0), Rat(1)), I, 1),
        (I, Rat(-2), 1), (Rat(-2), Rat(-2), 1)}),
    (Rat(-10, 3), Rat(20, 3)): frozenset({
        (Rat(0), Rat(-4), 2), (Rat(-4), Rat(-4, 3), 1),
        (Rat(-4, 3), Rat(-4, 3), 1), (Rat(-2), Rat(-1), 2),
        (Rat(-1), Rat(-2), 1)}),
}

# Rational preperiodic graphs of the simpler conjugate forms, as successor
# maps; every vertex and edge comes from direct exact evaluation.
CONJUGATE_FORMS = (
    "[1,0,-2]/[0,0,1]",      # z^2 - 2
    "[1,0,-1]/[0,0,1]",      # z^2 - 1
    "[0,0,1]/[2,-4,2]",      # 1/(2(z-1)^2)
    "[0,0,1]/[1,-2,1]",      # 1/(z-1)^2
    "[0,0,-1]/[4,-4,0]",     # -1/(4z^2-4z)
    "[0,0,-4]/[9,-12,0]",    # -4/(9z^2-12z)
    "[0,0,2]/[1,-2,1]",      # 2/(z-1)^2
    "[0,2,1]/[-2,4,0]",      # (2z+1)/(4z-2z^2)
    "[0,-2,0]/[2,-4,1]",     # -2z/(2z^2-4z+1)
    "[3,-4,1]/[0,-4,1]",     # (3z^2-4z+1)/(1-4z)
)

EXPECTED_PREPER = (
    {I: I, Rat(1): Rat(-1), Rat(-1): Rat(-1),
     Rat(0): Rat(-2), Rat(-2): Rat(2), Rat(2): Rat(2)},
    {I: I, Rat(1): Rat(0), Rat(0): Rat(-1), Rat(-1): Rat(0)},
    {Rat(1): I, I: Rat(0), Rat(0): Rat(1, 2), Rat(1, 2): Rat(2),
     Rat(2): Rat(1, 2), Rat(3, 2): Rat(2)},
    {I: Rat(0), Rat(0): Rat(1), Rat(1): I, Rat(2): Rat(1)},
    {Rat(1, 2): Rat(1), Rat(1): I, I: Rat(0), Rat(0): I},
    {Rat(2, 3): Rat(1), Rat(1): Rat(4, 3), Rat(4, 3): I,
     Rat(1, 3): Rat(4, 3), I: Rat(0), Rat(0): I},
    {Rat(1): I, I: Rat(0), Rat(0): Rat(2), Rat(2): Rat(2)},
    {Rat(-1, 2): Rat(0), Rat(0): I, I: Rat(0), Rat(2): I},
    {I: Rat(0), Rat(0): Rat(0)},
    {Rat(1, 2): Rat(1, 4), Rat(1, 4): I, I: I,
     Rat(1, 3): Rat(0), Rat(0): Rat(1), Rat(1): Rat(0)},
)

EXPECTED_PREPER_COUNTS = (6, 4, 6, 4, 4, 6, 4, 4, 2, 6)

# Table of psi1-twist structures: b value -> (class id, successor map).
EXPECTED_SQ_TWISTS = {
    Rat(1): ("sq-generic", {Rat(0): I, I: I}),
    Rat(1, 2): ("sq-fixed", {Rat(0): I, I: I, Rat(1): Rat(1), Rat(-1): Rat(-1)}),
    Rat(-3, 2): ("sq-2cycle", {Rat(0): I, I: I, Rat(1): Rat(-1), Rat(-1): Rat(1),
                               Rat(3): Rat(1), Rat(-3): Rat(-1)}),
    Rat(-1, 2): ("sq-type12", {Rat(0): I, I: I, Rat(1): Rat(0), Rat(-1): Rat(0)}),
}

# The seven psi2 classes: (input kwargs, class id, successor map).
EXPECTED_INVSQ = (
    (dict(t=Rat(1)), "invsq-2cycle-fixed",
     {Rat(0): I, I: Rat(0), Rat(-1): Rat(1), Rat(1): Rat(1)}),
    (dict(t=Rat(2)), "invsq-2cycle", {Rat(0): I, I: Rat(0)}),
    (dict(d=Rat(2), k=Rat(1)), "invsq-empty", {}),
    (dict(d=Rat(2), k=Rat(0)), "invsq-fixed", {Rat(0): Rat(0), I: Rat(0)}),
    (dict(phi=NormalizedQuadMap((-1, 2, 1), (1, 2, -1))), "invsq-fixed-type12",
     {Rat(1): Rat(1), Rat(-1): Rat(1), Rat(0): Rat(-1), I: Rat(-1)}),
    (dict(phi=NormalizedQuadMap((-1, 2, 0), (0, 2, -1))), "invsq-three-fixed",
     {Rat(0): Rat(0), Rat(1): Rat(1), I: I, Rat(2): Rat(0),
      Rat(-1): Rat(1), Rat(1, 2): I}),
    (dict(phi=NormalizedQuadMap((0, 2, -1), (1, 0, -1))), "invsq-3cycle",
     {Rat(0): Rat(1), Rat(1): I, I: Rat(0), Rat(1, 2): Rat(0),
      Rat(2): Rat(1), Rat(-1): I}),
)


def _portrait_edge_set(portrait) -> frozenset:
    return frozenset(portrait.edges())


def default_db_path() -> str:
    env = os.environ.get("PCF_SIEVE_DB")
    if env:
        return env
    cache = os.environ.get("QUADPCF_CACHE_DIR",
                           os.path.join(Path.home(), ".cache", "quadpcf"))
    os.makedirs(cache, exist_ok=True)
    return os.path.join(cache, f"sieve-p{PRIME_BOUND}.db")


def acceptance_db(db_path: Optional[str] = None, workers: int = 1,
                  build_if_missing: bool = True, quiet: bool = False) -> Database:
    """Database over all odd primes <= 750 (covers the first 130 odd primes)."""
    path = db_path or default_db_path()
    primes = odd_primes_up_to(PRIME_BOUND)
    if os.path.exists(path):
        db = Database.load(path)
        if all(db.covers(p) for p in primes):
            return db
        if not build_if_missing:
            raise sievedb.UncoveredPrimeError(
                f"database at {path} does not cover all odd primes <= {PRIME_BOUND}")
    elif not build_if_missing:
        raise sievedb.DbMissingError(f"no database at {path}")
    if not quiet:
        print(f"# building acceptance database ({len(primes)} primes) at {path} ...",
              flush=True)
    t0 = time.time()
    db = build_db(primes, path=path, workers=workers)
    if not quiet:
        print(f"# built in {time.time() - t0:.0f}s", flush=True)
    return db


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def criterion_1(workers: int = 1) -> Tuple[bool, str]:
    """pipeline at (H1, H2) = (10, 20), first 130 odd primes: exactly the
    ten classified sigma-pairs, all VERIFIED_PCF, none UNDETERMINED."""
    primes = first_odd_primes(130)
    survivors = sievedb.sieve(10, 20, primes, workers=workers)
    got = {(c.sigma1, c.sigma2) for c in survivors}
    want = set(TEN_SIGMA_PAIRS)
    if got != want:
        return False, f"survivor set mismatch: extra={got - want} missing={want - got}"
    undetermined = []
    for c in survivors:
        st = critical_orbit_portrait(c.phi)
        if not st.verified:
            undetermined.append((str(c.sigma1), str(c.sigma2), st.reason))
    if undetermined:
        return False, f"undetermined survivors: {undetermined}"
    return True, "ten sigma-pairs, all verified PCF, zero undetermined"


def criterion_2() -> Tuple[bool, str]:
    """Sub-bound runs: (2, 4) gives a fixed four-element set; (1, 1) nothing."""
    primes = first_odd_primes(130)
    got_24 = {(c.sigma1, c.sigma2) for c in sievedb.sieve(2, 4, primes)}
    want_24 = {(Rat(2), Rat(-4)), (Rat(-2), Rat(4)), (Rat(-2), Rat(0)),
               (Rat(-2), Rat(2))}
    if got_24 != want_24:
        return False, f"(2,4) mismatch: {got_24}"
    got_11 = sievedb.sieve(1, 1, primes)
    if got_11:
        return False, f"(1,1) not empty: {[(str(c.sigma1), str(c.sigma2)) for c in got_11]}"
    return True, "(2,4) -> four known pairs; (1,1) -> empty"


def criterion_3() -> Tuple[bool, str]:
    """Critical portraits of all ten maps, vertex-for-vertex and label-for-label."""
    for (s1, s2) in TEN_SIGMA_PAIRS:
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        st = critical_orbit_portrait(phi)
        if not st.verified:
            return False, f"({s1},{s2}) not verified: {st.reason}"
        got = _portrait_edge_set(st.portrait)
        want = EXPECTED_PORTRAITS[(s1, s2)]
        if got != want:
            return False, f"({s1},{s2}) portrait mismatch: {got ^ want}"
    return True, "all ten portraits exact, including the sqrt(5) and sqrt(2) orbits"


def criterion_4() -> Tuple[bool, str]:
    """Preperiodic graphs of the conjugate forms: exact vertex/edge sets,
    the known vertex counts, and the at-most-six bound."""
    for text, expected, count in zip(CONJUGATE_FORMS, EXPECTED_PREPER,
                                     EXPECTED_PREPER_COUNTS):
        phi = NormalizedQuadMap.from_str(text)
        g = rational_preperiodic_graph(phi)
        if g.unresolved:
            return False, f"{text}: unresolved candidates {g.unresolved}"
        if g.successor != expected:
            return False, f"{text}: graph mismatch {sorted(g.edge_lines())}"
        if len(g) != count:
            return False, f"{text}: {len(g)} vertices, expected {count}"
        if len(g) > 6:
            return False, f"{text}: exceeds the six-point bound"
    return True, "ten graphs exact; counts (6,4,6,4,4,6,4,4,2,6); max six vertices"


def criterion_5() -> Tuple[bool, str]:
    """Symmetry locus: all four z^2-twist structures (plus square-class
    assignment of b = -6, -8) and all seven 1/z^2-twist structures."""
    for b, (class_id, expected) in EXPECTED_SQ_TWISTS.items():
        cls = classify_psi1_twist(b)
        if cls.id != class_id:
            return False, f"b={b}: class {cls.id} != {class_id}"
        if cls.graph.successor != expected:
            return False, f"b={b}: graph mismatch {cls.graph.edge_lines()}"
    if classify_psi1_twist(Rat(-6)).id != "sq-2cycle":
        return False, "b=-6 not assigned to the 2-cycle class"
    if classify_psi1_twist(Rat(-8)).id != "sq-type12":
        return False, "b=-8 not assigned to the type-1_2 class"
    for kwargs, class_id, expected in EXPECTED_INVSQ:
        cls = classify_psi2_map(**kwargs)
        if cls.id != class_id:
            return False, f"{kwargs}: class {cls.id} != {class_id}"
        if cls.graph.successor != expected:
            return False, f"{kwargs}: graph mismatch {cls.graph.edge_lines()}"
    return True, "four z^2 classes (with -6, -8 assignments) and seven 1/z^2 classes"


def criterion_6() -> Tuple[bool, str]:
    """Root-of-unity catalogs for the power maps."""
    comps = power_map_low_degree_preperiodic(SQUARE, 2)
    total = sum(len(c) for c in comps)
    if total != 10:
        return False, f"z^2 degree-2 catalog has {total} points, expected 10"
    zero, inf = RootOfUnityPoint.zero(), RootOfUnityPoint.inf()
    one = RootOfUnityPoint.root(1, 0)
    m1 = RootOfUnityPoint.root(2, 1)
    i_pt, mi_pt = RootOfUnityPoint.root(4, 1), RootOfUnityPoint.root(4, 3)
    z3, z32 = RootOfUnityPoint.root(3, 1), RootOfUnityPoint.root(3, 2)
    z6, z65 = RootOfUnityPoint.root(6, 1), RootOfUnityPoint.root(6, 5)
    want_components = [
        {zero: zero}, {inf: inf},
        {one: one, m1: one, i_pt: m1, mi_pt: m1},
        {z3: z32, z32: z3, z6: z3, z65: z32},
    ]
    got = [c.successor for c in comps]
    for want in want_components:
        if want not in got:
            return False, f"missing z^2 component {want}"
    comps6 = power_map_low_degree_preperiodic(INVERSE_SQUARE, 6)
    sizes = sorted(len(c) for c in comps6)
    if sum(sizes) != 50 or sizes != [2, 4, 4, 6, 6, 8, 8, 12]:
        return False, f"1/z^2 degree-6 catalog sizes {sizes} (total {sum(sizes)})"
    shape = sorted((len(c), len(c.cycles()[0])) for c in comps6)
    want_shape = sorted([(2, 2), (8, 1), (4, 1), (4, 1), (6, 3), (6, 3),
                         (8, 4), (12, 6)])
    if shape != want_shape:
        return False, f"1/z^2 component shapes {shape}"
    return True, "z^2 catalog (10 points) and 1/z^2 catalog (50 points, sizes 2,4,4,6,6,8,8,12)"


def _eventual_period(portrait, start) -> int:
    seen = {}
    cur = start
    k = 0
    while cur not in seen:
        seen[cur] = k
        cur = portrait.successor[cur]
        k += 1
    return k - seen[cur]


def criterion_7(db: Database) -> Tuple[bool, str]:
    """Local-global soundness: for every verified map, rational critical
    point, and good odd prime p <= 750, the true eventual period is in the
    stored admissible set.  Zero exceptions."""
    primes = odd_primes_up_to(PRIME_BOUND)
    checks = 0
    for (s1, s2) in TEN_SIGMA_PAIRS:
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        st = critical_orbit_portrait(phi)
        if not st.verified:
            return False, f"({s1},{s2}) did not verify"
        res = phi.resultant()
        crit = phi.critical_point_data()
        if not crit.rational:
            continue
        for gamma in crit.points:
            n = _eventual_period(st.portrait, gamma)
            for p in primes:
                if res % p == 0:
                    continue
                key = family_key(s1, s2, p)
                entry = db.lookup(key.p, key.b, key.c)
                if entry is sievedb.ABSENT:
                    return False, f"absent entry at good prime {p} for ({s1},{s2})"
                per = entry.periods_for(reduce_rational_point(gamma, p))
                checks += 1
                if n not in per:
                    return False, (f"period {n} of gamma={gamma} for ({s1},{s2}) "
                                   f"not in {sorted(per)} at p={p}")
    return True, f"{checks} (map, point, prime) checks, zero violations"


def criterion_8(db: Database) -> Tuple[bool, str]:
    """Micro-scale oracle equivalence: on the height-<=3 grid the exact
    iteration verifier and the sieve certify exactly the same maps."""
    from quadpcf.exact_arith import enumerate_rationals
    primes = odd_primes_up_to(PRIME_BOUND)
    grid = list(enumerate_rationals(3))
    n_pairs = 0
    both = []
    for s1 in grid:
        for s2 in grid:
            phi = NormalizedQuadMap.from_sigmas(s1, s2)
            if phi.resultant() == 0:
                continue
            n_pairs += 1
            if phi.critical_point_data(need_points=False).field == "complex":
                # complex critical orbits cannot be exactly certified here,
                # and no PCF map over Q has them; the sieve must agree
                brute = False
            else:
                brute = critical_orbit_portrait(phi, budget=64,
                                                size_cutoff=10 ** 6).verified
            sieve_ok = sievedb.examine_pair(s1, s2, primes, db) is not None
            if brute != sieve_ok:
                return False, (f"disagreement at ({s1},{s2}): "
                               f"brute={brute} sieve={sieve_ok}")
            if brute:
                both.append((str(s1), str(s2)))
    return True, f"{n_pairs} nondegenerate pairs agree; certified: {both}"


CRITERIA: Tuple[Tuple[str, str], ...] = (
    ("1 classification reproduction", "workers"),
    ("2 sub-bound consistency", "pure"),
    ("3 portrait fidelity", "pure"),
    ("4 preperiodic graphs", "pure"),
    ("5 symmetry locus", "pure"),
    ("6 root-of-unity catalogs", "pure"),
    ("7 local-global property suite", "needs_db"),
    ("8 oracle equivalence at micro-scale", "needs_db"),
)


def run_all(db_path: Optional[str] = None, workers: int = 1,
            build_if_missing: bool = True) -> bool:
    db = acceptance_db(db_path, workers=workers, build_if_missing=build_if_missing)
    runners: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
        ("1 classification reproduction", lambda: criterion_1(workers)),
        ("2 sub-bound consistency", criterion_2),
        ("3 portrait fidelity", criterion_3),
        ("4 preperiodic graphs", criterion_4),
        ("5 symmetry locus", criterion_5),
        ("6 root-of-unity catalogs", criterion_6),
        ("7 local-global property suite", lambda: criterion_7(db)),
        ("8 oracle equivalence at micro-scale", lambda: criterion_8(db)),
    ]
    all_ok = True
    for name, fn in runners:
        t0 = time.time()
        ok, detail = fn()
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {name} ({time.time() - t0:.1f}s): {detail}",
              flush=True)
    return all_ok
