import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadpcf.ffdyn import (
    FpMap,
    FpPoint,
    OrbitData,
    _sqrt_mod,
    family_forms,
    form_resultant,
    mult_order,
    orbit_data,
    possible_periods,
)
from quadpcf.projmap import NormalizedQuadMap

from oracles import poly_resultant

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


class TestFpPoint:
    def test_normalization_and_index(self):
        p = 7
        a = FpPoint.affine(10, p)
        assert (a.x, a.y) == (3, 1) and a.index(p) == 3
        inf = FpPoint.infinity()
        assert inf.is_infinity() and inf.index(p) == p
        assert FpPoint.from_index(7, 7) == inf
        assert FpPoint.from_index(3, 7) == a


class TestFpMap:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            FpMap(7, (1, 0, 0), (2, 0, 0))

    def test_family_form(self):
        m = FpMap(7, *family_forms(0, 1))
        assert m.F == (2, 0, 0) and m.G == (6, 4, 1)

    def test_step_values(self):
        m = FpMap(7, *family_forms(0, 1))
        assert m.step_index(3) == 1
        assert m.step_index(1) == 4
        assert m.step_index(4) == 4
        assert m.step_index(7) == 5       # infinity -> -2
        z2 = FpMap(7, (1, 0, 0), (0, 0, 1))
        assert z2.step_index(7) == 7      # infinity fixed for z^2

    def test_critical_points_match_brute_force(self):
        rng = random.Random(3)
        for p in SMALL_PRIMES:
            for _ in range(30):
                b, c = rng.randrange(p), rng.randrange(p)
                if form_resultant(*family_forms(b, c)) % p == 0:
                    continue
                m = FpMap(p, *family_forms(b, c))
                w2, w1, w0 = m.wronskian()
                brute = sorted(
                    z for z in range(p) if (w2 * z * z + w1 * z + w0) % p == 0)
                if w2 % p == 0:
                    brute.append(p)
                got = m.critical_point_indices()
                if got is None:
                    assert brute == []
                else:
                    assert list(got) == brute


class TestOrbitData:
    def test_spec_example_tail(self):
        m = FpMap(7, *family_forms(0, 1))
        o = orbit_data(m, 3)
        assert (o.tail, o.m, o.lam, o.r) == (2, 1, 4, 3)
        assert possible_periods(o) == frozenset({1, 3})

    def test_spec_example_superattracting(self):
        m = FpMap(7, *family_forms(0, 1))
        o = orbit_data(m, 0)
        assert (o.tail, o.m, o.lam) == (0, 1, 0)
        assert o.superattracting and o.r is None
        assert possible_periods(o) == frozenset({1})

    def test_fixed_point_start(self):
        m = FpMap(7, *family_forms(0, 1))
        o = orbit_data(m, FpPoint.affine(4, 7))
        assert o.tail == 0 and o.m == 1

    def test_termination_and_true_cycle(self):
        rng = random.Random(5)
        for p in SMALL_PRIMES:
            for _ in range(25):
                b, c = rng.randrange(p), rng.randrange(p)
                if form_resultant(*family_forms(b, c)) % p == 0:
                    continue
                m = FpMap(p, *family_forms(b, c))
                start = rng.randrange(p + 1)
                o = orbit_data(m, start)
                assert o.tail + o.m <= p + 2
                z = start
                for _ in range(o.tail):
                    z = m.step_index(z)
                w = z
                for _ in range(o.m):
                    w = m.step_index(w)
                assert w == z, "reported cycle is not genuinely periodic"

    def test_multiplier_conjugation_invariance(self):
        # conjugating over F_p permutes cycles but keeps their multipliers
        rng = random.Random(9)
        for p in (7, 11, 13):
            for _ in range(10):
                b, c = rng.randrange(p), rng.randrange(p)
                if form_resultant(*family_forms(b, c)) % p == 0:
                    continue
                m = FpMap(p, *family_forms(b, c))
                while True:
                    a_, b_, c_, d_ = (rng.randrange(p) for _ in range(4))
                    if (a_ * d_ - b_ * c_) % p != 0:
                        break
                conj = _conjugate_fp(m, (a_, b_, c_, d_))
                start = rng.randrange(p + 1)
                o1 = orbit_data(m, start)
                o2 = orbit_data(conj, _mobius_fp(p, (a_, b_, c_, d_), start))
                assert o1.m == o2.m
                assert o1.lam == o2.lam


def _mobius_fp(p, mat, z):
    a, b, c, d = mat
    if z == p:
        return p if c % p == 0 else a * pow(c, p - 2, p) % p
    num = (a * z + b) % p
    den = (c * z + d) % p
    return p if den == 0 else num * pow(den, p - 2, p) % p


def _subst(form, u, v, w, t, p):
    q2, q1, q0 = form
    return ((q2 * u * u + q1 * u * w + q0 * w * w) % p,
            (2 * q2 * u * v + q1 * (u * t + v * w) + 2 * q0 * w * t) % p,
            (q2 * v * v + q1 * v * t + q0 * t * t) % p)


def _conjugate_fp(m, mat):
    a, b, c, d = mat
    p = m.p
    h1 = _subst(m.F, d, -b, -c, a, p)
    h2 = _subst(m.G, d, -b, -c, a, p)
    new_f = tuple((a * x + b * y) % p for x, y in zip(h1, h2))
    new_g = tuple((c * x + d * y) % p for x, y in zip(h1, h2))
    return FpMap(p, new_f, new_g)


class TestMultOrder:
    def test_examples(self):
        assert mult_order(1, 101) == 1
        assert mult_order(4, 7) == 3
        for p in SMALL_PRIMES:
            assert mult_order(p - 1, p) == 2 or p == 3 and mult_order(2, 3) == 2

    def test_brute_force_agreement(self):
        for p in (7, 11, 13, 17):
            for lam in range(1, p):
                r = mult_order(lam, p)
                assert pow(lam, r, p) == 1
                assert all(pow(lam, k, p) != 1 for k in range(1, r))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mult_order(0, 7)


class TestPossiblePeriods:
    def test_collapse_when_r_is_one(self):
        o = OrbitData(p=11, tail=0, m=2, lam=1, r=1)
        assert possible_periods(o) == frozenset({2})

    def test_superattracting(self):
        o = OrbitData(p=11, tail=0, m=3, lam=0, r=None)
        assert possible_periods(o) == frozenset({3})

    def test_general(self):
        o = OrbitData(p=7, tail=2, m=1, lam=4, r=3)
        assert possible_periods(o) == frozenset({1, 3})

    def test_invariant_enforced(self):
        with pytest.raises(AssertionError):
            OrbitData(p=7, tail=0, m=1, lam=0, r=3)


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_sqrt_mod(p, data):
    a = data.draw(st.integers(0, p - 1))
    s = _sqrt_mod(a, p)
    if s is None:
        assert all((x * x) % p != a for x in range(p))
    else:
        assert (s * s) % p == a


FORMS = st.tuples(*[st.integers(-50, 50)] * 3)


def _columns(*forms):
    """The forms as one form with an int64 column per coefficient."""
    return tuple(np.array(c, dtype=np.int64) for c in zip(*forms))


@given(FORMS, FORMS, st.sampled_from(SMALL_PRIMES))
@settings(max_examples=200, deadline=None)
def test_resultant_equals_sylvester_determinant(F, G, p):
    # h^2 - w2 * w0 against the Fraction determinant of the Sylvester matrix
    assume(any(F + G))
    m = NormalizedQuadMap(F, G)
    assert m.resultant() == poly_resultant(m.F, m.G)
    res = int(poly_resultant(F, G))
    # elementwise on int64 columns too: rows (F, G), (G, F) and (F, F)
    columns = form_resultant(_columns(F, G, F), _columns(G, F, F))
    assert columns.tolist() == [res, res, 0]
    if res % p:
        assert FpMap(p, F, G).resultant() == res % p
    else:
        with pytest.raises(ValueError):
            FpMap(p, F, G)
