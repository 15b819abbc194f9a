import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadpcf.exact_arith import Rat, _factorize, odd_primes_up_to
from quadpcf.ffdyn import (
    FpMap,
    OrbitData,
    _sqrt_mod,
    critical_periods,
    family_forms,
    form_resultant,
    mult_order,
    orbit_data,
    possible_periods,
)
from quadpcf.projmap import NormalizedQuadMap

from oracles import naive_critical_periods, naive_cycle, naive_cycle_periods, poly_resultant

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


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
        o = orbit_data(m, 4)
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

    def test_p3(self):
        # at p = 3 the period may also be 3 * m * r, unless the cycle is
        # superattracting
        assert possible_periods(OrbitData(p=3, tail=0, m=2, lam=0, r=None)) == {2}
        assert possible_periods(OrbitData(p=3, tail=0, m=2, lam=1, r=1)) == {2, 6}
        assert possible_periods(OrbitData(p=3, tail=0, m=2, lam=2, r=2)) == {2, 4, 12}


def _cycle_of(family, t):
    """c and the rational cycle of exact period family of z^2 + c:
    Poonen's parametrisations of the fixed points and 2-cycles (Math. Z.
    228, 1998), and Walde and Russo's of the 3-cycles (Amer. Math. Monthly
    101, 1994), at the parameter t; the cycle is walked exactly."""
    if family == 1:
        c, x = t - t * t, t
    elif family == 2:
        c, x = -Fraction(3, 4) - t * t, t - Fraction(1, 2)
    else:
        d = 2 * t * (t + 1)
        c = -(t ** 6 + 2 * t ** 5 + 4 * t ** 4 + 8 * t ** 3 + 9 * t ** 2 + 4 * t + 1) / (d * d)
        x = (t ** 3 + 2 * t ** 2 + t + 1) / d
    cycle = [x]
    while cycle[-1] ** 2 + c != x:
        cycle.append(cycle[-1] ** 2 + c)
        assert len(cycle) <= family
    return c, cycle


class TestPeriodRuleAtThree:
    def test_counterexample(self):
        # z^2 - 29/16 has the 3-cycle -1/4 -> -7/4 -> 5/4 (Walde and Russo's
        # t = 1); mod 3 it is z^2 + 1, and all three points reduce to its
        # fixed point 2, of multiplier 1
        c, cycle = _cycle_of(3, Fraction(1))
        assert c == Fraction(-29, 16) and sorted(cycle) == [-Fraction(7, 4), -Fraction(1, 4),
                                                           Fraction(5, 4)]
        o = orbit_data(FpMap(3, (16, 0, -29), (0, 0, 16)), 2)
        assert (o.m, o.lam, o.r) == (1, 1, 1)
        assert possible_periods(o) == {1, 3}

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from([1, 2, 3]),
           t=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)))
    @example(family=3, t=Fraction(1))
    def test_rational_cycles_of_z2_plus_c(self, family, t):
        # Morton and Silverman: at every good odd prime the exact period of
        # a rational periodic point is in the set of its reduction.  The
        # plain-loop oracle gives the same sets, for the cycle's points and,
        # against critical_periods, for the critical points 0 and infinity
        assume(family == 1 or t != 0)
        assume(family != 3 or t != -1)
        c, cycle = _cycle_of(family, t)
        assert len(cycle) == family
        F, G = (c.denominator, 0, c.numerator), (0, 0, c.denominator)
        for p in odd_primes_up_to(200):
            if form_resultant(F, G) % p == 0:
                continue
            fmap = FpMap(p, F, G)
            for x in cycle:
                z = p if x.denominator % p == 0 else x.numerator * pow(x.denominator, -1, p) % p
                per = possible_periods(orbit_data(fmap, z))
                assert family in per, (p, x)
                assert per == naive_cycle_periods(p, F, G, naive_cycle(p, F, G, z)), (p, x)
            assert critical_periods(p, F, G) == naive_critical_periods(p, F, G), p

    @settings(max_examples=200, deadline=None)
    @given(st.builds(Rat, st.integers(-40, 40), st.integers(1, 40)),
           st.builds(Rat, st.integers(-40, 40), st.integers(1, 40)))
    def test_ramified_primes_are_bad(self, s1, s2):
        # the rule needs p unramified in the critical points' field
        # Q(sqrt(D)); D is the squarefree part of the wronskian
        # discriminant, 4 * resultant, so an odd prime dividing D divides
        # the resultant, and the sieve skips it as bad
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        res = phi.resultant()
        assume(res != 0)
        crit = phi.critical_point_data()
        assume(not crit.rational)
        w2, w1, w0 = phi.wronskian()
        assert w1 * w1 - 4 * w2 * w0 == 4 * res
        for q in _factorize(abs(crit.points[0].D)):
            assert q == 2 or res % q == 0, q


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


@given(FORMS, FORMS, st.sampled_from(SMALL_PRIMES))
@settings(max_examples=200, deadline=None)
def test_resultant_equals_sylvester_determinant(F, G, p):
    # h^2 - w2 * w0 against the Fraction determinant of the Sylvester matrix
    assume(any(F + G))
    m = NormalizedQuadMap(F, G)
    assert m.resultant() == poly_resultant(m.F, m.G)
    res = int(poly_resultant(F, G))
    assert (form_resultant(F, G), form_resultant(G, F), form_resultant(F, F)) == (res, res, 0)
    if res % p:
        assert FpMap(p, F, G).resultant() == res % p
    else:
        with pytest.raises(ValueError):
            FpMap(p, F, G)
