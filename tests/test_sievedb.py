import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadpcf import ffdyn, lanesieve
from quadpcf.cli import TEN_SIGMA_PAIRS
from quadpcf.exact_arith import (
    INFINITY,
    Rat,
    enumerate_rationals,
    first_odd_primes,
    odd_primes_up_to,
)
from quadpcf.ffdyn import LANE_PRIME_LIMIT, family_forms, form_resultant, wronskian
from quadpcf.projmap import NormalizedQuadMap, normal_form
from quadpcf.sievedb import (
    Database,
    DbConsistencyError,
    DbFormatError,
    DbMissingError,
    UncoveredPrimeError,
    build_db,
    check_irrational_periods_detailed,
    check_rational_periods_detailed,
    examine_pair,
    family_key,
    reduce_rational_point,
    sieve,
)

from oracles import naive_critical_periods


# ----------------------------------------------------------------------
# independent brute-force oracle for one prime
# ----------------------------------------------------------------------

def brute_force_entries(p):
    """Recount database membership from first principles: a pair is stored
    iff the two forms share no projective root and the wronskian, evaluated
    at every point of P^1(F_p), has two F_p-rational roots."""
    stored = {}
    for b in range(p):
        for c in range(p):
            F = (2, b, b)
            G = (-1, (4 - b) % p, c)
            common = any(
                ((F[0] * x * x + F[1] * x * y + F[2] * y * y) % p == 0
                 and (G[0] * x * x + G[1] * x * y + G[2] * y * y) % p == 0)
                for (x, y) in [(z, 1) for z in range(p)] + [(1, 0)])
            if common:
                continue
            w2 = (F[0] * G[1] - F[1] * G[0]) % p
            w1 = (2 * (F[0] * G[2] - F[2] * G[0])) % p
            w0 = (F[1] * G[2] - F[2] * G[1]) % p
            roots = [z for z in range(p) if (w2 * z * z + w1 * z + w0) % p == 0]
            if w2 == 0:
                roots.append(p)
            if len(roots) < 2 and not (len(roots) == 1 and w2 != 0 and (
                    w1 * w1 - 4 * w2 * w0) % p == 0):
                continue
            stored[(b, c)] = sorted(set(roots))
    return stored


def reference_sieve(h1, h2, primes, db):
    """The sieve one pair at a time, in the order of primes, against a
    database that covers them."""
    out = []
    for s1 in enumerate_rationals(h1):
        for s2 in enumerate_rationals(h2):
            cand = examine_pair(s1, s2, primes, db)
            if cand is not None:
                out.append(cand)
    return out


class TestBuild:
    def test_spec_entry_p7(self, small_db):
        assert small_db.lookup(7, 0, 1) == (0, 3, frozenset({1}), frozenset({1, 3}),
                                            frozenset({1}))

    def test_p3_count_matches_brute_force(self, small_db):
        brute = brute_force_entries(3)
        assert small_db.entry_count(3) == len(brute)
        for (b, c), roots in brute.items():
            e = small_db.lookup(3, b, c)
            assert e is not None
            assert list(e[:2]) == roots

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_membership_matches_brute_force(self, small_db, p):
        brute = brute_force_entries(p)
        assert small_db.entry_count(p) == len(brute)
        for b in range(p):
            for c in range(p):
                e = small_db.lookup(p, b, c)
                assert (e is not None) == ((b, c) in brute)

    def test_stored_points_are_wronskian_roots(self, small_db):
        for p in (3, 5, 7, 11):
            for b in range(p):
                for c in range(p):
                    e = small_db.lookup(p, b, c)
                    if e is None:
                        continue
                    w2, w1, w0 = (w % p for w in wronskian(*family_forms(b, c)))
                    for pt in e[:2]:
                        if pt == p:
                            assert w2 == 0
                        else:
                            assert (w2 * pt * pt + w1 * pt + w0) % p == 0

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_fast_equals_scalar(self, small_db, scalar_db, p):
        # every key of build_db against the plain-loop oracle's lookup
        for b in range(p):
            for c in range(p):
                assert small_db.lookup(p, b, c) == scalar_db.lookup(p, b, c), (b, c)

    def test_fast_equals_scalar_medium_prime(self, small_db, scalar_db):
        for b in range(101):
            for c in range(101):
                assert small_db.lookup(101, b, c) == scalar_db.lookup(101, b, c), (b, c)

    def test_equals_scalar_database(self, scalar_db):
        # one database over several primes, key by key
        db = build_db([3, 5, 7])
        for p in (3, 5, 7):
            for b in range(p):
                for c in range(p):
                    assert db.lookup(p, b, c) == scalar_db.lookup(p, b, c), (p, b, c)

    def test_large_prime_spot_checks(self):
        # critical_periods at the largest odd prime up to 750 against the
        # plain-loop oracle, on a deterministic sample of keys with two
        # critical points in P^1(F_p)
        p = 743
        rng = random.Random(p)
        checked = 0
        while checked < 40:
            F, G = family_forms(rng.randrange(p), rng.randrange(p))
            got = ffdyn.critical_periods(p, F, G)
            assert got == naive_critical_periods(p, F, G)
            checked += bool(got)

    def test_rejects_bad_primes(self):
        with pytest.raises(ValueError):
            build_db([2, 3])
        with pytest.raises(ValueError):
            build_db([3, 3])
        with pytest.raises(ValueError):
            build_db([9])

    def test_rejects_primes_beyond_memory_bound(self):
        # p^2 keys of 65537 would take about 200 GB; the check comes before
        # any array is allocated
        with pytest.raises(ValueError, match="too large"):
            build_db([3, 65537])
        # the sieve's bound, 2^11: 2053 is the first prime above it
        with pytest.raises(ValueError, match="too large"):
            build_db([3, 2053])


class TestLookup:
    def test_absent_degree_drop(self, small_db):
        # family resultant vanishes at (0, 0) for every p
        assert small_db.lookup(3, 0, 0) is None

    def test_absent_irreducible_wronskian(self, small_db):
        # p=3, (b,c)=(1,1): wronskian z^2+1 is irreducible over F_3
        assert form_resultant(*family_forms(1, 1)) % 3 != 0
        assert small_db.lookup(3, 1, 1) is None

    def test_uncovered_prime_is_error_not_absent(self, small_db):
        with pytest.raises(UncoveredPrimeError):
            small_db.lookup(1009, 0, 1)

    def test_periods_for_missing_point(self, small_db):
        # (2, -8) reduces to the key (0, 1) mod 7, whose critical points are
        # 0 and 3: a point reducing to 5 contradicts the entry
        m = NormalizedQuadMap.from_sigmas(2, -8)
        g1, _ = m.critical_point_data().points
        with pytest.raises(DbConsistencyError, match="not among"):
            check_rational_periods_detailed(m, g1, Rat(5), [7], m.resultant(), small_db)


class TestFileFormat:
    def test_round_trip(self, small_db_file, small_primes):
        db = Database.load(small_db_file)
        assert db.primes == tuple(small_primes)
        assert db.lookup(7, 0, 1)[:2] == (0, 3)

    def test_save_is_deterministic(self, tmp_path):
        a = tmp_path / "a.db"
        b = tmp_path / "b.db"
        build_db([3, 5, 7], path=str(a))
        build_db([3, 5, 7], path=str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DbMissingError):
            Database.load(str(tmp_path / "nope.db"))

    def test_truncated_file_rejected(self, tmp_path, small_db_file):
        data = Path(small_db_file).read_bytes()
        bad = tmp_path / "trunc.db"
        bad.write_bytes(data[:-50])
        with pytest.raises(DbFormatError):
            Database.load(str(bad))

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "junk.db"
        bad.write_bytes(b"NOTADB!!" + b"\x00" * 64)
        with pytest.raises(DbFormatError):
            Database.load(str(bad))

    def test_trailing_bytes_rejected(self, tmp_path, small_db_file):
        bad = tmp_path / "long.db"
        bad.write_bytes(Path(small_db_file).read_bytes() + b"\x00")
        with pytest.raises(DbFormatError, match="trailing"):
            Database.load(str(bad))

    def test_bad_prime_list_rejected(self, tmp_path):
        # the prime list is checked as build_db checks it, before any key
        # is walked
        good = tmp_path / "good.db"
        build_db([3], path=str(good))
        header = good.read_bytes().partition(b"\n")[0]
        bad = tmp_path / "bad.db"
        for line, why in ((b"3 5 x", "invalid literal"), (b"3 9", "need odd primes"),
                          (b"3 3", "distinct"), (b"3 2053", "too large")):
            bad.write_bytes(header + b"\n" + line + b"\n")
            with pytest.raises(DbFormatError, match=why):
                Database.load(str(bad))


def test_reference_runs_without_numpy(tmp_path):
    # a None entry in sys.modules makes every import of numpy fail: the
    # reference database and the tests' oracles run without it
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from oracles import ScalarDatabase\n"
            "from quadpcf.cli import TEN_SIGMA_PAIRS\n"
            "from quadpcf.sievedb import Database, build_db, examine_pair\n"
            "build_db([3, 5, 7], sys.argv[2])\n"
            "db = Database.load(sys.argv[2])\n"
            "if db.lookup(7, 0, 1) != ScalarDatabase().lookup(7, 0, 1):\n"
            "    sys.exit('the database and the oracle disagree')\n"
            "if examine_pair(*TEN_SIGMA_PAIRS[0], [3, 5, 7], db) is None:\n"
            "    sys.exit('a PCF pair refuted')\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), str(tmp_path / "ref.db")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestChecks:
    def test_single_prime_running_sets(self, small_db):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        g1, g2 = m.critical_point_data().points
        r = check_rational_periods_detailed(m, g1, g2, [7], m.resultant(), small_db)
        assert r.ok and r.period_sets == (frozenset({1}), frozenset({1, 3}))

    def test_pcf_map_survives_many_primes(self, small_db, small_primes):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        g1, g2 = m.critical_point_data().points
        assert check_rational_periods_detailed(
            m, g1, g2, small_primes, m.resultant(), small_db).ok

    def test_non_pcf_rational_refuted(self, small_db, small_primes):
        m = NormalizedQuadMap.from_sigmas(2, -5)
        crit = m.critical_point_data()
        assert crit.rational
        assert not check_rational_periods_detailed(
            m, crit.points[0], crit.points[1], small_primes, m.resultant(), small_db).ok

    def test_irrational_pcf_survives(self, small_db, small_primes):
        m = NormalizedQuadMap.from_sigmas(-2, 0)
        assert check_irrational_periods_detailed(m, small_primes, m.resultant(), small_db).ok

    def test_non_pcf_irrational_refuted(self, small_db, small_primes):
        m = NormalizedQuadMap.from_sigmas(-2, 1)
        assert not m.critical_point_data(need_points=False).rational
        assert not check_irrational_periods_detailed(
            m, small_primes, m.resultant(), small_db).ok

    def test_absent_everywhere_is_vacuous_survival(self, small_db):
        # 5 is a quadratic nonresidue mod 3, 7 and 13, so the (-2, 0) map
        # has no database entry at those primes: no modular information
        m = NormalizedQuadMap.from_sigmas(-2, 0)
        res = m.resultant()
        primes = [3, 7, 13]
        assert all(res % p for p in primes)
        r = check_irrational_periods_detailed(m, primes, res, small_db)
        assert r.ok and r.period_sets == (None,) and r.primes_used == 0

    def test_zero_resultant_rejected(self, small_db):
        m = NormalizedQuadMap.from_sigmas(2, 0)
        with pytest.raises(ValueError):
            check_irrational_periods_detailed(m, [3], 0, small_db)

    def test_absent_at_good_prime_is_hard_error(self):
        # a doctored database missing the (7, 0, 1) entry contradicts the
        # build invariant for maps with rational critical points
        entries = list(build_db([7]).entries[7])
        assert entries[0 * 7 + 1]
        entries[0 * 7 + 1] = ()
        doctored = Database({7: entries})
        assert doctored.lookup(7, 0, 1) is None
        m = NormalizedQuadMap.from_sigmas(2, -8)
        g1, g2 = m.critical_point_data().points
        with pytest.raises(DbConsistencyError):
            check_rational_periods_detailed(m, g1, g2, [7], m.resultant(), doctored)


class TestSieve:
    def test_sub_bound_2_4(self, small_primes):
        got = {(c.sigma1, c.sigma2) for c in sieve(2, 4, small_primes)}
        assert got == {(Rat(2), Rat(-4)), (Rat(-2), Rat(4)),
                       (Rat(-2), Rat(0)), (Rat(-2), Rat(2))}

    def test_sub_bound_1_1_empty(self, small_primes):
        assert sieve(1, 1, small_primes) == []

    def test_no_false_negatives_any_prefix(self, small_db, small_primes):
        # intersection can shrink toward but never past the true period
        for k in (1, 2, 3, 5, 10, 25):
            prefix = small_primes[:k]
            for s1, s2 in TEN_SIGMA_PAIRS:
                assert examine_pair(s1, s2, prefix, small_db) is not None, \
                    (k, str(s1), str(s2))

    def test_monotonicity(self, small_db, small_primes):
        grid = list(enumerate_rationals(3))
        prev = None
        for k in (1, 4, 12, 25):
            cur = set()
            for s1 in grid:
                for s2 in grid:
                    if examine_pair(s1, s2, small_primes[:k], small_db):
                        cur.add((s1, s2))
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_determinism(self, small_primes):
        a = [c.tsv_line() for c in sieve(4, 4, small_primes)]
        b = [c.tsv_line() for c in sieve(4, 4, small_primes)]
        assert a == b

    def test_candidate_fields(self, small_primes):
        cands = sieve(2, 4, small_primes)
        for c in cands:
            assert c.resultant != 0
            assert c.phi == NormalizedQuadMap.from_sigmas(c.sigma1, c.sigma2)
            line = c.tsv_line()
            assert str(c.sigma1) in line and str(c.phi) in line

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(h1=st.integers(1, 3), h2=st.integers(1, 6),
           primes=st.lists(st.sampled_from(first_odd_primes(20)[1:]),
                           unique=True, max_size=7),
           where=st.integers(0, 7))
    def test_equals_reference_sieve(self, small_db, h1, h2, primes, where):
        # the lane sieve against examine_pair over a database, line for line
        primes.insert(min(where, len(primes)), 3)
        got = [c.tsv_line() for c in sieve(h1, h2, primes)]
        assert got == [c.tsv_line() for c in reference_sieve(h1, h2, primes, small_db)]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(h1=st.integers(1, 2), h2=st.integers(1, 4),
           primes=st.lists(st.sampled_from(odd_primes_up_to(LANE_PRIME_LIMIT)),
                           unique=True, min_size=1, max_size=6))
    @example(h1=2, h2=4, primes=[2039, 743, 3])
    def test_equals_reference_on_every_prime(self, scalar_db, h1, h2, primes):
        # every prime the sieve takes, up to 2039, against the reference's
        # lookup computed key by key
        got = [c.tsv_line() for c in sieve(h1, h2, primes)]
        want = reference_sieve(h1, h2, primes, scalar_db)
        assert got == [c.tsv_line() for c in want]

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(h1=st.integers(1, 6), h2=st.integers(1, 12),
           primes=st.one_of(
               st.lists(st.sampled_from(odd_primes_up_to(LANE_PRIME_LIMIT)),
                        unique=True, min_size=1, max_size=8),
               # none below the filter's bound: the exact pass takes every lane
               st.lists(st.sampled_from([q for q in odd_primes_up_to(LANE_PRIME_LIMIT)
                                         if q >= lanesieve.FILTER_BOUND]),
                        unique=True, min_size=1, max_size=3),
               st.sampled_from([[743], [2039]])))
    @example(h1=3, h2=6, primes=[743])
    @example(h1=2, h2=5, primes=[2039])
    def test_equals_reference_on_random_boxes(self, walked_db, h1, h2, primes):
        # random boxes and prime lists, lone large primes and lists that
        # leave the filter nothing to do included.  The reference reads
        # build_db's entries, which TestPeriodEntries and the tests above
        # hold to the plain-loop oracle: through the oracle the tens of
        # thousands of keys these boxes look up would take seconds
        got = [c.tsv_line() for c in sieve(h1, h2, primes)]
        want = reference_sieve(h1, h2, primes, walked_db)
        assert got == [c.tsv_line() for c in want]

    def test_many_rational_survivors(self, scalar_db):
        # seven primes leave 485 pairs.  Five have rational critical
        # points, and the filter's shared-set rule kills two of those: a
        # kill stands only with a proof that the points are irrational
        primes = first_odd_primes(7)
        got = sieve(5, 9, primes)
        assert len(got) == 485
        assert sum(c.critical_rational for c in got) == 5
        want = reference_sieve(5, 9, primes, scalar_db)
        assert [c.tsv_line() for c in got] == [c.tsv_line() for c in want]

    @settings(max_examples=25, deadline=None)
    @given(h1=st.integers(1, 3), h2=st.integers(1, 3),
           primes=st.lists(st.sampled_from(first_odd_primes(12)), unique=True,
                           min_size=1))
    def test_prime_order_does_not_matter(self, small_db, h1, h2, primes):
        # a pair dies exactly when its sets over all the primes have an
        # empty intersection, so the survivors, their sets and primes_used
        # do not depend on the order of the primes; sieve() sorts them
        got = [c.tsv_line() for c in reference_sieve(h1, h2, primes, small_db)]
        assert got == [c.tsv_line() for c in reference_sieve(h1, h2, sorted(primes), small_db)]

    def test_equals_reference_on_a_larger_box(self, small_db, small_primes):
        # 8,601 pairs with every other prime of the 25 in a shuffled order;
        # only the reference follows that order (the sieve sorts its
        # primes), so the two kill pairs at different primes and must
        # still agree
        primes = list(small_primes[::2])
        random.Random(5).shuffle(primes)
        got = [c.tsv_line() for c in sieve(6, 12, primes)]
        assert got == [c.tsv_line() for c in reference_sieve(6, 12, primes, small_db)]

    def test_beyond_the_paper_box(self):
        # the paper proves the list complete: an eleventh survivor at any
        # height is a bug in the sieve, never a new map
        got = [(c.sigma1, c.sigma2) for c in sieve(15, 30, first_odd_primes(130))]
        assert sorted(got, key=str) == sorted(TEN_SIGMA_PAIRS, key=str)

    @settings(max_examples=200, deadline=None)
    @given(s1=st.builds(Rat, st.integers(-64, 64), st.integers(1, 64)),
           s2=st.builds(Rat, st.integers(-64, 64), st.integers(1, 64)))
    def test_integer_forms_equal_milnor_over_fractions(self, s1, s2):
        # the survivors' maps come from the sieve's integer normal form:
        # Milnor's [2, b, b] / [-1, 4 - b, c] with b = 2 - sigma1 and
        # c = 2 - sigma1 - sigma2, built over Fractions, its denominators
        # cleared and its content divided out; 2 > 0 fixes the sign
        b = 2 - Fraction(s1.num, s1.den)
        c = b - Fraction(s2.num, s2.den)
        coeffs = (Fraction(2), b, b, Fraction(-1), 4 - b, c)
        den = lcm(*(x.denominator for x in coeffs))
        ints = [int(x * den) for x in coeffs]
        g = gcd(*ints)
        ints = [x // g for x in ints]
        assert normal_form(s1.num, s1.den, s2.num, s2.den) == (tuple(ints[:3]), tuple(ints[3:]))

    @settings(max_examples=200, deadline=None)
    @given(s1=st.builds(Rat, st.integers(-64, 64), st.integers(1, 64)),
           s2=st.builds(Rat, st.integers(-64, 64), st.integers(1, 64)))
    def test_trusted_constructor_equals_normalizing(self, s1, s2):
        # the forms are already content-free with f2 > 0: normalizing them
        # again changes nothing
        F, G = normal_form(s1.num, s1.den, s2.num, s2.den)
        trusted = NormalizedQuadMap.from_normal_forms(F, G)
        ref = NormalizedQuadMap(F, G)
        assert (trusted.F, trusted.G) == (ref.F, ref.G)

    @settings(max_examples=300, deadline=None)
    @given(s1=st.builds(Rat, st.integers(-60, 60), st.integers(1, 60)),
           s2=st.builds(Rat, st.integers(-60, 60), st.integers(1, 60)),
           p=st.sampled_from(odd_primes_up_to(200)))
    @example(s1=Rat(-2, 3), s2=Rat(4, 3), p=3)
    def test_residue_goodness_equals_resultant(self, s1, s2, p):
        # res = lcm(d1, d2)^4 R(sigma), R's denominator dividing lcm^3, so
        # the key of the residues is bad exactly when p divides res, and a
        # denominator divisible by p makes p bad: the filter needs no
        # resultant
        res = NormalizedQuadMap.from_sigmas(s1, s2).resultant()
        entries = lanesieve._Entries(p)
        good = False
        if s1.den % p and s2.den % p:
            x1, x2 = (s.num * pow(s.den, -1, p) % p for s in (s1, s2))
            good = entries[x1 * p + x2] is not None
        assert good == (res % p != 0)

    def test_size_bounds(self):
        # both checks come before anything is enumerated or allocated
        with pytest.raises(ValueError, match="too large"):
            sieve(1, 1, [3, 1048583])          # the first prime above 2^20
        with pytest.raises(ValueError, match="too large"):
            sieve(1, 1, [3, 2053])             # the first prime above 2^11
        with pytest.raises(ValueError, match="size of a run"):
            sieve(64, 65, [3])
        with pytest.raises(ValueError, match="need odd primes"):
            sieve(1, 1, [3, 9])


COEFF = st.integers(-40, 40)
# leading coefficients are often 0, so that orbits meet the branches at
# infinity: a fixed infinity when g2 = 0, and infinity critical when
# f2 = 0 or g2 = 0 makes w2 = f2 * g1 - f1 * g2 vanish with the other
FORM = st.tuples(st.one_of(st.just(0), COEFF), COEFF, COEFF)


class TestPeriodEntries:
    """The entries build_db stores are ffdyn.critical_periods'; these check
    that walk against the plain-loop oracle, which shares none of its
    code."""

    def test_every_key_of_small_primes(self):
        for p in odd_primes_up_to(31):
            for b in range(p):
                for c in range(p):
                    F, G = family_forms(b, c)
                    assert ffdyn.critical_periods(p, F, G) == naive_critical_periods(p, F, G), \
                        (p, b, c)

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from(odd_primes_up_to(LANE_PRIME_LIMIT)),
           b=st.integers(0, LANE_PRIME_LIMIT), c=st.integers(0, LANE_PRIME_LIMIT))
    @example(p=2039, b=5, c=7)
    def test_random_family_keys(self, p, b, c):
        # every prime the sieve takes, up to 2039
        F, G = family_forms(b % p, c % p)
        assert ffdyn.critical_periods(p, F, G) == naive_critical_periods(p, F, G)

    @settings(max_examples=400, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 11, 13, 31, 101]), F=FORM, G=FORM)
    @example(p=3, F=(1, 0, 0), G=(0, 0, 1))           # z^2: infinity fixed
    @example(p=3, F=(0, 1, 1), G=(1, 0, 2))           # infinity critical
    @example(p=3, F=(3, 1, 2), G=(6, 2, 1))           # drops degree mod 3
    @example(p=3, F=(16, 0, -29), G=(0, 0, 16))       # the p = 3 slot
    @example(p=7, F=(-2, -2, -2), G=(-2, 1, 1))       # the chart's sign at infinity
    def test_forms_equal_scalar_oracle(self, p, F, G):
        # arbitrary integer forms, also where the map drops degree mod p
        assert ffdyn.critical_periods(p, F, G) == naive_critical_periods(p, F, G)

    def test_p3_counterexample(self):
        # z^2 - 29/16, which has a rational 3-cycle: mod 3 its critical
        # point 0 falls into the fixed point 2, of multiplier 1, so its set
        # is {1, 3}; infinity is a superattracting fixed point
        got = ffdyn.critical_periods(3, (16, 0, -29), (0, 0, 16))
        assert got == (0, 3, {1, 3}, {1}, {1})

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 101])
    def test_random_keys_equal_lookup(self, small_db, scalar_db, p):
        # unreduced keys, negative ones included, against the oracle's lookup
        rng = random.Random(p)
        for _ in range(200):
            b, c = rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p)
            assert small_db.lookup(p, b, c) == scalar_db.lookup(p, b, c), (b, c)


class TestReductionHelpers:
    def test_reduce_rational_point(self):
        assert reduce_rational_point(Rat(-4, 3), 3) == 3          # infinity
        assert reduce_rational_point(Rat(-4, 3), 7) == (-4 * pow(3, 5, 7)) % 7
        assert reduce_rational_point(INFINITY, 11) == 11
        assert reduce_rational_point(Rat(5), 7) == 5

    def test_family_key_matches_reduction(self):
        s1, s2 = Rat(-2, 3), Rat(4, 3)
        b, c = family_key(s1, s2, 7)
        m = NormalizedQuadMap.from_sigmas(s1, s2)
        fm = tuple(x % 7 for x in m.F + m.G)
        fam = tuple(x % 7 for x in sum(family_forms(b, c), ()))
        scale = fm[0] * pow(fam[0], 5, 7) % 7
        assert all(x == y * scale % 7 for x, y in zip(fm, fam))

    @settings(max_examples=300, deadline=None)
    @given(st.builds(Rat, st.integers(-60, 60), st.integers(1, 60)),
           st.builds(Rat, st.integers(-60, 60), st.integers(1, 60)))
    def test_denominator_prime_safety(self, s1, s2):
        # sigma_i = N_i / resultant with N_i integral, so each denominator
        # divides the resultant: a prime dividing one is bad, and the
        # sieve's exact pass never finds a pole at a good prime
        res = NormalizedQuadMap.from_sigmas(s1, s2).resultant()
        assert res % s1.den == 0 and res % s2.den == 0
