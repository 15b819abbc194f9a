"""The acceptance suite: one test per exit criterion.

Expected values are frozen here: the ten sigma-pairs and their critical
portraits, the ten rational preperiodic graphs of the simpler conjugate
forms, the four + seven symmetry-locus structures, and the root-of-unity
catalogs.  All are exact; there are no tolerances.  Criteria 7 and 8
compute every period set they need over the odd primes up to 750 with
ffdyn.critical_periods, the walk the sieve reads, so the suite builds and
reads no database.
"""

from quadpcf import sievedb
from quadpcf.cli import TEN_SIGMA_PAIRS, main
from quadpcf.exact_arith import (
    INFINITY,
    QuadPoint,
    Rat,
    enumerate_rationals,
    first_odd_primes,
    odd_primes_up_to,
)
from quadpcf.ffdyn import critical_periods, family_forms
from quadpcf.pcfverify import critical_orbit_portrait
from quadpcf.preper import (
    INVERSE_SQUARE,
    SQUARE,
    RootOfUnityPoint,
    classify_psi1_twist,
    classify_psi2_map,
    invsq_twist_from_dk,
    invsq_twist_from_t,
    power_map_low_degree_preperiodic,
    rational_preperiodic_graph,
)
from quadpcf.projmap import NormalizedQuadMap
from quadpcf.sievedb import family_key, reduce_rational_point

PRIME_BOUND = 750

I = INFINITY


def _q5(a, b, c=1):
    return QuadPoint(a, b, c, 5)


def _q2(a, b):
    return QuadPoint(a, b, 1, 2)


# Critical portraits of the normal forms, as (source, target, ramification).
EXPECTED_PORTRAITS = {
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
        (_q5(-3, -1), _q5(-1, -1, 2), 2),
        (_q5(-3, 1), _q5(-1, 1, 2), 2),
        (_q5(-1, -1, 2), Rat(2), 1),
        (_q5(-1, 1, 2), Rat(2), 1),
        (Rat(2), I, 1), (I, Rat(-2), 1), (Rat(-2), I, 1)}),
    (Rat(-2), Rat(2)): frozenset({
        (_q2(-2, -1), _q2(0, -1), 2),
        (_q2(-2, 1), _q2(0, 1), 2),
        (_q2(0, -1), I, 1), (_q2(0, 1), I, 1),
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

# The seven psi2 classes: (map, class id, successor map).
EXPECTED_INVSQ = (
    (invsq_twist_from_t(Rat(1)), "invsq-2cycle-fixed",
     {Rat(0): I, I: Rat(0), Rat(-1): Rat(1), Rat(1): Rat(1)}),
    (invsq_twist_from_t(Rat(2)), "invsq-2cycle", {Rat(0): I, I: Rat(0)}),
    (invsq_twist_from_dk(Rat(2), Rat(1)), "invsq-empty", {}),
    (invsq_twist_from_dk(Rat(2), Rat(0)), "invsq-fixed", {Rat(0): Rat(0), I: Rat(0)}),
    (NormalizedQuadMap((-1, 2, 1), (1, 2, -1)), "invsq-fixed-type12",
     {Rat(1): Rat(1), Rat(-1): Rat(1), Rat(0): Rat(-1), I: Rat(-1)}),
    (NormalizedQuadMap((-1, 2, 0), (0, 2, -1)), "invsq-three-fixed",
     {Rat(0): Rat(0), Rat(1): Rat(1), I: I, Rat(2): Rat(0),
      Rat(-1): Rat(1), Rat(1, 2): I}),
    (NormalizedQuadMap((0, 2, -1), (1, 0, -1)), "invsq-3cycle",
     {Rat(0): Rat(1), Rat(1): I, I: Rat(0), Rat(1, 2): Rat(0),
      Rat(2): Rat(1), Rat(-1): I}),
)


def test_criterion_1_classification_reproduction():
    """pipeline at (H1, H2) = (10, 20), first 130 odd primes: exactly the
    ten classified sigma-pairs, all VERIFIED_PCF, none UNDETERMINED."""
    primes = first_odd_primes(130)
    survivors = sievedb.sieve(10, 20, primes)
    got = {(c.sigma1, c.sigma2) for c in survivors}
    want = set(TEN_SIGMA_PAIRS)
    assert got == want, f"survivor set mismatch: extra={got - want} missing={want - got}"
    undetermined = []
    for c in survivors:
        st = critical_orbit_portrait(c.phi)
        if not st.verified:
            undetermined.append((str(c.sigma1), str(c.sigma2), st.reason))
    assert not undetermined, f"undetermined survivors: {undetermined}"


def test_criterion_2_sub_bound_consistency():
    """Sub-bound runs: (2, 4) gives a fixed four-element set; (1, 1) nothing."""
    primes = first_odd_primes(130)
    got_24 = {(c.sigma1, c.sigma2) for c in sievedb.sieve(2, 4, primes)}
    want_24 = {(Rat(2), Rat(-4)), (Rat(-2), Rat(4)), (Rat(-2), Rat(0)),
               (Rat(-2), Rat(2))}
    assert got_24 == want_24, f"(2,4) mismatch: {got_24}"
    got_11 = sievedb.sieve(1, 1, primes)
    assert not got_11, \
        f"(1,1) not empty: {[(str(c.sigma1), str(c.sigma2)) for c in got_11]}"


def test_criterion_3_portrait_fidelity():
    """Critical portraits of all ten maps, vertex-for-vertex and label-for-label."""
    for (s1, s2) in TEN_SIGMA_PAIRS:
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        st = critical_orbit_portrait(phi)
        assert st.verified, f"({s1},{s2}) not verified: {st.reason}"
        got = frozenset(st.portrait.edges())
        want = EXPECTED_PORTRAITS[(s1, s2)]
        assert got == want, f"({s1},{s2}) portrait mismatch: {got ^ want}"


def test_criterion_4_preperiodic_graphs():
    """Preperiodic graphs of the conjugate forms: exact vertex/edge sets,
    the known vertex counts, and the at-most-six bound."""
    for text, expected, count in zip(CONJUGATE_FORMS, EXPECTED_PREPER,
                                     EXPECTED_PREPER_COUNTS):
        phi = NormalizedQuadMap.from_str(text)
        g = rational_preperiodic_graph(phi)
        assert not g.unresolved, f"{text}: unresolved candidates {g.unresolved}"
        assert g.successor == expected, f"{text}: graph mismatch {sorted(g.edge_lines())}"
        assert len(g) == count, f"{text}: {len(g)} vertices, expected {count}"
        assert len(g) <= 6, f"{text}: exceeds the six-point bound"


def test_simpler_conjugate_forms_same_shape():
    """Each conjugate form has one of the ten sigma-pairs, and its rational
    preperiodic graph (at heights 16 and 120) and its critical portrait,
    ramification labels included, are isomorphic to its normal form's."""
    pairs = set()
    for text in CONJUGATE_FORMS:
        other = NormalizedQuadMap.from_str(text)
        sigmas = other.sigma_invariants()
        assert sigmas in TEN_SIGMA_PAIRS, f"{text}: sigma pair {sigmas}"
        pairs.add(sigmas)
        normal = NormalizedQuadMap.from_sigmas(*sigmas)
        for height in (16, 120):
            g1 = rational_preperiodic_graph(normal, height_bound=height)
            g2 = rational_preperiodic_graph(other, height_bound=height)
            assert not g1.unresolved and not g2.unresolved, (text, height)
            assert g1.canonical_form() == g2.canonical_form(), (text, height)
        p1 = critical_orbit_portrait(normal).portrait
        p2 = critical_orbit_portrait(other).portrait
        assert p1.canonical_form() == p2.canonical_form(), text
    assert len(pairs) == len(CONJUGATE_FORMS)


def test_criterion_5_symmetry_locus():
    """Symmetry locus: all four z^2-twist structures (plus square-class
    assignment of b = -6, -8) and all seven 1/z^2-twist structures."""
    for b, (class_id, expected) in EXPECTED_SQ_TWISTS.items():
        cls = classify_psi1_twist(b)
        assert cls.id == class_id, f"b={b}: class {cls.id} != {class_id}"
        assert cls.graph.successor == expected, f"b={b}: graph mismatch {cls.graph.edge_lines()}"
    assert classify_psi1_twist(Rat(-6)).id == "sq-2cycle", \
        "b=-6 not assigned to the 2-cycle class"
    assert classify_psi1_twist(Rat(-8)).id == "sq-type12", \
        "b=-8 not assigned to the type-1_2 class"
    for phi, class_id, expected in EXPECTED_INVSQ:
        cls = classify_psi2_map(phi)
        assert cls.id == class_id, f"{phi}: class {cls.id} != {class_id}"
        assert cls.graph.successor == expected, \
            f"{phi}: graph mismatch {cls.graph.edge_lines()}"


def test_criterion_6_root_of_unity_catalogs():
    """Root-of-unity catalogs for the power maps."""
    comps = power_map_low_degree_preperiodic(SQUARE, 2)
    total = sum(len(c) for c in comps)
    assert total == 10, f"z^2 degree-2 catalog has {total} points, expected 10"
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
        assert want in got, f"missing z^2 component {want}"
    comps6 = power_map_low_degree_preperiodic(INVERSE_SQUARE, 6)
    sizes = sorted(len(c) for c in comps6)
    assert sum(sizes) == 50 and sizes == [2, 4, 4, 6, 6, 8, 8, 12], \
        f"1/z^2 degree-6 catalog sizes {sizes} (total {sum(sizes)})"
    shape = sorted((len(c), len(c.cycles()[0])) for c in comps6)
    want_shape = sorted([(2, 2), (8, 1), (4, 1), (4, 1), (6, 3), (6, 3),
                         (8, 4), (12, 6)])
    assert shape == want_shape, f"1/z^2 component shapes {shape}"


def _eventual_period(portrait, start) -> int:
    seen = {}
    cur = start
    k = 0
    while cur not in seen:
        seen[cur] = k
        cur = portrait.successor[cur]
        k += 1
    return k - seen[cur]


def test_criterion_7_local_global_suite():
    """Local-global soundness: for every verified map, rational critical
    point, and good odd prime p <= 750, the true eventual period is in the
    admissible set critical_periods computes.  Zero exceptions."""
    # (sigmas, resultant, [(gamma, eventual period), ...]) of each map whose
    # critical points are rational
    maps = []
    for (s1, s2) in TEN_SIGMA_PAIRS:
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        st = critical_orbit_portrait(phi)
        assert st.verified, f"({s1},{s2}) did not verify"
        crit = phi.critical_point_data()
        if crit.rational:
            maps.append(((s1, s2), phi.resultant(),
                         [(g, _eventual_period(st.portrait, g)) for g in crit.points]))
    checks = 0
    for p in odd_primes_up_to(PRIME_BOUND):
        for (s1, s2), res, orbits in maps:
            if res % p == 0:
                continue
            entry = critical_periods(p, *family_forms(*family_key(s1, s2, p)))
            assert entry, f"absent entry at good prime {p} for ({s1},{s2})"
            z1, z2, set1, set2, _ = entry
            for gamma, n in orbits:
                per = {z1: set1, z2: set2}[reduce_rational_point(gamma, p)]
                checks += 1
                assert n in per, (f"period {n} of gamma={gamma} for ({s1},{s2}) "
                                  f"not in {sorted(per)} at p={p}")
    print(f"criterion 7: {checks} (map, point, prime) checks, zero violations")
    assert checks == 2092


def test_criterion_8_oracle_equivalence():
    """Micro-scale oracle equivalence: on the height-<=3 grid the exact
    iteration verifier and the sieve certify exactly the same maps."""
    primes = odd_primes_up_to(PRIME_BOUND)
    grid = list(enumerate_rationals(3))
    survivors = {(c.sigma1, c.sigma2) for c in sievedb.sieve(3, 3, primes)}
    n_pairs = 0
    both = []
    for s1 in grid:
        for s2 in grid:
            phi = NormalizedQuadMap.from_sigmas(s1, s2)
            if phi.resultant() == 0:
                continue
            n_pairs += 1
            brute = critical_orbit_portrait(phi, budget=64,
                                            size_cutoff=10 ** 6).verified
            sieve_ok = (s1, s2) in survivors
            assert brute == sieve_ok, (f"disagreement at ({s1},{s2}): "
                                       f"brute={brute} sieve={sieve_ok}")
            if brute:
                both.append((str(s1), str(s2)))
    print(f"criterion 8: {n_pairs} nondegenerate pairs agree; certified: {both}")


def test_criterion_1_through_the_cli(tmp_path):
    """The pipeline subcommand itself reproduces the classification."""
    outdir = tmp_path / "run"
    rc = main(["pipeline", "--h1", "10", "--h2", "20", "--primes", "130",
               "--outdir", str(outdir)])
    assert rc == 0
    lines = [l.split("\t") for l in (outdir / "verified.tsv").read_text().splitlines()
             if l and not l.startswith("#")]
    got = {(c[0], c[1]) for c in lines}
    want = {(str(s1), str(s2)) for s1, s2 in TEN_SIGMA_PAIRS}
    assert got == want
    assert all(c[3] == "VERIFIED_PCF" for c in lines)
