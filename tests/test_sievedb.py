import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from quadpcf import ffdyn
from quadpcf.cli import TEN_SIGMA_PAIRS
from quadpcf.exact_arith import INFINITY, Rat, enumerate_rationals, first_odd_primes
from quadpcf.ffdyn import FpMap, family_forms, form_resultant
from quadpcf.projmap import NormalizedQuadMap
from quadpcf.sievedb import (
    ABSENT,
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
    period_entries,
    reduce_rational_point,
    sieve,
)

from oracles import scalar_period_entries


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


def reference_sieve(h1, h2, primes):
    """The sieve one pair at a time against a database of the same primes."""
    db = build_db(primes)
    out = []
    for s1 in enumerate_rationals(h1):
        for s2 in enumerate_rationals(h2):
            cand = examine_pair(s1, s2, primes, db)
            if cand is not None:
                out.append(cand)
    return out


class TestBuild:
    def test_spec_entry_p7(self, small_db):
        e = small_db.lookup(7, 0, 1)
        assert e.points == (0, 3)
        assert e.period_sets == (frozenset({1}), frozenset({1, 3}))

    def test_p3_count_matches_brute_force(self, small_db):
        brute = brute_force_entries(3)
        assert small_db.entry_count(3) == len(brute)
        for (b, c), roots in brute.items():
            e = small_db.lookup(3, b, c)
            assert e is not ABSENT
            assert list(e.points) == roots

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_membership_matches_brute_force(self, small_db, p):
        brute = brute_force_entries(p)
        assert small_db.entry_count(p) == len(brute)
        for b in range(p):
            for c in range(p):
                e = small_db.lookup(p, b, c)
                assert (e is not ABSENT) == ((b, c) in brute)

    def test_stored_points_are_wronskian_roots(self, small_db):
        for p in (3, 5, 7, 11):
            for b in range(p):
                for c in range(p):
                    e = small_db.lookup(p, b, c)
                    if e is ABSENT:
                        continue
                    w2, w1, w0 = FpMap(p, *family_forms(b, c)).wronskian()
                    for pt in e.points:
                        if pt == p:
                            assert w2 == 0
                        else:
                            assert (w2 * pt * pt + w1 * pt + w0) % p == 0

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_fast_equals_scalar(self, p):
        a = scalar_period_entries(p)
        b = build_db([p]).arrays[p]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_fast_equals_scalar_medium_prime(self):
        a = scalar_period_entries(101)
        b = build_db([101]).arrays[101]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_large_prime_spot_checks(self):
        # the kernel at the largest odd prime up to 750 against the scalar
        # orbit splitter, lane by lane on a deterministic sample
        p = 743
        rng = random.Random(p)
        checked = 0
        while checked < 40:
            b, c = rng.randrange(p), rng.randrange(p)
            fam_res = form_resultant(*family_forms(b, c)) % p
            present, points, periods = period_entries(
                p, *family_forms(np.array([b]), np.array([c])))
            if fam_res == 0:
                assert not present[0]
                continue
            fmap = FpMap(p, *family_forms(b, c))
            crit = fmap.critical_point_indices()
            if crit is None:
                assert not present[0]
                continue
            assert present[0]
            assert tuple(points[0]) == tuple(crit)
            for k, pt in enumerate(crit):
                o = ffdyn.orbit_data(fmap, pt)
                got = set(periods[0, 2 * k:2 * k + 2].tolist()) - {0}
                assert got == ffdyn.possible_periods(o)
            checked += 1

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


class TestLookup:
    def test_absent_degree_drop(self, small_db):
        # family resultant vanishes at (0, 0) for every p
        assert small_db.lookup(3, 0, 0) is ABSENT

    def test_absent_irreducible_wronskian(self, small_db):
        # p=3, (b,c)=(1,1): wronskian z^2+1 is irreducible over F_3
        assert form_resultant(*family_forms(1, 1)) % 3 != 0
        assert small_db.lookup(3, 1, 1) is ABSENT

    def test_uncovered_prime_is_error_not_absent(self, small_db):
        with pytest.raises(UncoveredPrimeError):
            small_db.lookup(1009, 0, 1)

    def test_periods_for_missing_point(self, small_db):
        e = small_db.lookup(7, 0, 1)
        with pytest.raises(DbConsistencyError):
            e.periods_for(5)


class TestFileFormat:
    def test_round_trip(self, small_db_file, small_primes):
        db = Database.load(small_db_file)
        assert db.primes == tuple(small_primes)
        assert db.lookup(7, 0, 1).points == (0, 3)

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

    def test_block_of_wrong_shape_rejected(self, tmp_path):
        present, points, periods = build_db([3]).arrays[3]
        bad = tmp_path / "shape.db"
        with open(bad, "wb") as fh:
            for arr in (np.array([3]), present, points[:, :1], periods):
                np.save(fh, arr)
        with pytest.raises(DbFormatError, match="shape"):
            Database.load(str(bad))


class TestChecks:
    def test_single_prime_running_sets(self, small_db):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        (g1, g2), _ = m.critical_points()
        r = check_rational_periods_detailed(m, g1, g2, [7], m.resultant(), small_db)
        assert r.ok and r.period_sets == (frozenset({1}), frozenset({1, 3}))

    def test_pcf_map_survives_many_primes(self, small_db, small_primes):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        (g1, g2), _ = m.critical_points()
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
        assert r.ok and r.no_modular_info and r.primes_used == 0

    def test_zero_resultant_rejected(self, small_db):
        m = NormalizedQuadMap.from_sigmas(2, 0)
        with pytest.raises(ValueError):
            check_irrational_periods_detailed(m, [3], 0, small_db)

    def test_absent_at_good_prime_is_hard_error(self):
        # a doctored database missing the (7, 0, 1) entry contradicts the
        # build invariant for maps with rational critical points
        present, points, periods = build_db([7]).arrays[7]
        assert present[0 * 7 + 1]
        present = present.copy()
        present[0 * 7 + 1] = False
        doctored = Database({7: (present, points, periods)})
        assert doctored.lookup(7, 0, 1) is ABSENT
        m = NormalizedQuadMap.from_sigmas(2, -8)
        (g1, g2), _ = m.critical_points()
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

    def test_determinism_and_workers(self, small_primes):
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
    def test_equals_reference_sieve(self, h1, h2, primes, where):
        # the lane sieve against examine_pair over a database, line for line
        primes.insert(min(where, len(primes)), 3)
        got = [c.tsv_line() for c in sieve(h1, h2, primes)]
        assert got == [c.tsv_line() for c in reference_sieve(h1, h2, primes)]

    def test_equals_reference_on_a_larger_box(self, small_primes):
        # 8,601 pairs, more than one block of lanes, with every other prime
        # of the 25 in a shuffled order, so lanes die at many different steps
        primes = list(small_primes[::2])
        random.Random(5).shuffle(primes)
        got = [c.tsv_line() for c in sieve(6, 12, primes)]
        assert got == [c.tsv_line() for c in reference_sieve(6, 12, primes)]

    def test_size_bounds(self):
        # both checks come before anything is enumerated or allocated
        with pytest.raises(ValueError, match="too large"):
            sieve(1, 1, [3, 1048583])          # the first prime above 2^20
        with pytest.raises(ValueError, match="int64"):
            sieve(64, 65, [3])
        with pytest.raises(ValueError, match="need odd primes"):
            sieve(1, 1, [3, 9])


COEFF = st.integers(-40, 40)
# leading coefficients are often 0, so that orbits meet the branches at
# infinity: a fixed infinity when g2 = 0, and infinity critical when
# f2 = 0 or g2 = 0 makes w2 = f2 * g1 - f1 * g2 vanish with the other
FORM = st.tuples(st.one_of(st.just(0), COEFF), COEFF, COEFF)


class TestPeriodEntries:
    # no shrinking: each example runs up to twelve scalar orbit walks, so a
    # kernel wrong only at a fixed infinity took minutes to shrink
    @settings(max_examples=150, deadline=None,
              phases=[ph for ph in Phase if ph is not Phase.shrink])
    @given(p=st.sampled_from([3, 5, 7, 11, 13]),
           rows=st.lists(st.tuples(FORM, FORM), min_size=1, max_size=12))
    @example(p=3, rows=[((1, 0, 0), (0, 0, 1)), ((0, 1, 1), (1, 0, 2)),
                        ((3, 1, 2), (6, 2, 1))])
    def test_forms_equal_scalar_oracle(self, p, rows):
        # the kernel on arbitrary integer forms, one map per row, against
        # FpMap's critical points and possible_periods(orbit_data(...))
        F = tuple(np.array(c) for c in zip(*(f for f, _ in rows)))
        G = tuple(np.array(c) for c in zip(*(g for _, g in rows)))
        present, points, periods = period_entries(p, F, G)
        for k, (f, g) in enumerate(rows):
            crit = None
            if form_resultant(f, g) % p:
                fmap = FpMap(p, f, g)
                crit = fmap.critical_point_indices()
            assert bool(present[k]) == (crit is not None)
            if crit is None:
                assert not points[k].any() and not periods[k].any()
                continue
            assert tuple(points[k]) == crit
            for i, pt in enumerate(crit):
                got = set(periods[k, 2 * i:2 * i + 2].tolist()) - {0}
                assert got == ffdyn.possible_periods(ffdyn.orbit_data(fmap, pt))

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 101])
    def test_random_keys_equal_lookup(self, p):
        db = Database({p: scalar_period_entries(p)})
        rng = random.Random(p)
        keys = [(rng.randrange(p), rng.randrange(p)) for _ in range(200)]
        present, points, periods = period_entries(p, *family_forms(
            np.array([b for b, _ in keys]), np.array([c for _, c in keys])))
        for k, (b, c) in enumerate(keys):
            entry = db.lookup(p, b, c)
            assert bool(present[k]) == (entry is not ABSENT)
            if entry is ABSENT:
                assert not points[k].any() and not periods[k].any()
                continue
            assert tuple(points[k]) == entry.points
            m1, mr1, m2, mr2 = periods[k]
            assert entry.period_sets == (frozenset({m1, mr1} - {0}),
                                         frozenset({m2, mr2} - {0}))


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
        fm = FpMap(7, m.F, m.G)
        fam = FpMap(7, *family_forms(b, c))
        scale = fm.F[0] * pow(fam.F[0], 5, 7) % 7
        assert all(x == y * scale % 7 for x, y in zip(fm.F + fm.G, fam.F + fam.G))

    @settings(max_examples=300, deadline=None)
    @given(st.builds(Rat, st.integers(-60, 60), st.integers(1, 60)),
           st.builds(Rat, st.integers(-60, 60), st.integers(1, 60)))
    def test_denominator_prime_safety(self, s1, s2):
        # sigma_i = N_i / resultant with N_i integral, so each denominator
        # divides the resultant: a prime dividing one is bad, and the
        # resultant guard in _sieve_step never fires
        res = NormalizedQuadMap.from_sigmas(s1, s2).resultant()
        assert res % s1.den == 0 and res % s2.den == 0
