import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadpcf.exact_arith import Rat, odd_primes_up_to
from quadpcf.ffdyn import (
    LANE_PRIME_LIMIT,
    _cycle_periods,
    _walk,
    critical_periods,
    family_forms,
    form_resultant,
    mult_order,
    point_mod_p,
    prime_tables,
    wronskian,
)
from quadpcf.projmap import NormalizedQuadMap

from oracles import (
    divisors,
    naive_critical_periods,
    naive_cycle,
    naive_cycle_periods,
    naive_multiplier,
    naive_point_mod_p,
    naive_step,
    poly_resultant,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
FORMS = st.tuples(*[st.integers(-50, 50)] * 3)


def _reduce(p, F, G):
    return tuple(x % p for x in F), tuple(x % p for x in G)


class TestFpMap:
    """A quadratic map mod p: its steps, its critical points and their
    period sets."""

    def test_degenerate_rejected(self):
        # the forms share the root 0, so the map drops degree mod p
        assert critical_periods(7, (1, 0, 0), (2, 0, 0)) is None

    def test_family_form(self):
        F, G = family_forms(0, 1)
        assert (F, G) == ((2, 0, 0), (-1, 4, 1))
        assert _reduce(7, F, G) == ((2, 0, 0), (6, 4, 1))

    def test_step_values(self):
        # the oracle's step, which the walk is held to
        F, G = family_forms(0, 1)
        assert [naive_step(7, F, G, z) for z in (3, 1, 4)] == [1, 4, 4]
        assert naive_step(7, F, G, 7) == 5                      # infinity -> -2
        assert naive_step(7, (1, 0, 0), (0, 0, 1), 7) == 7      # infinity fixed for z^2

    def test_critical_points_match_brute_force(self):
        rng = random.Random(3)
        for p in SMALL_PRIMES:
            for _ in range(30):
                b, c = rng.randrange(p), rng.randrange(p)
                F, G = family_forms(b, c)
                if form_resultant(F, G) % p == 0:
                    continue
                w2, w1, w0 = (w % p for w in wronskian(F, G))
                brute = [z for z in range(p) if (w2 * z * z + w1 * z + w0) % p == 0]
                if w2 == 0:
                    brute.append(p)
                got = critical_periods(p, F, G)
                assert list(got[:2]) == brute, (p, b, c)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from((3, 5, 7, 11, 13)), F=FORMS, G=FORMS,
           mat=st.tuples(*[st.integers(0, 12)] * 4))
    @example(p=7, F=(2, 0, 0), G=(-1, 4, 1), mat=(0, 1, 1, 0))    # swaps 0 and infinity
    @example(p=3, F=(16, 0, -29), G=(0, 0, 16), mat=(1, 1, 0, 1))
    def test_conjugation_invariance(self, p, F, G, mat):
        # conjugating by a Moebius map M over F_p moves the critical points
        # to their images under M and keeps the cycles they reach, with
        # their lengths and multipliers: the same sets at the images
        a, b, c, d = mat
        assume((a * d - b * c) % p)
        got = critical_periods(p, F, G)
        conj = critical_periods(p, *_conjugate_fp(p, F, G, mat))
        if not got:
            assert conj == got
            return
        z1, z2, s1, s2, shared = got
        w1, w2, t1, t2, conj_shared = conj
        assert {_mobius_fp(p, mat, z1): s1, _mobius_fp(p, mat, z2): s2} == {w1: t1, w2: t2}
        assert conj_shared == shared


class TestOrbitData:
    """The walk's cycle length and multiplier from any start."""

    def test_spec_example_tail(self):
        # 3 -> 1 -> 4, a fixed point of multiplier 4, of order 3 mod 7
        assert _orbit(7, *family_forms(0, 1), 3) == (1, 4)
        assert _cycle_periods(7, 1, 4) == frozenset({1, 3})

    def test_spec_example_superattracting(self):
        assert _orbit(7, *family_forms(0, 1), 0) == (1, 0)
        assert _cycle_periods(7, 1, 0) == frozenset({1})

    def test_fixed_point_start(self):
        assert _orbit(7, *family_forms(0, 1), 4)[0] == 1

    def test_termination_and_true_cycle(self):
        rng = random.Random(5)
        for p in SMALL_PRIMES:
            for _ in range(25):
                b, c = rng.randrange(p), rng.randrange(p)
                F, G = family_forms(b, c)
                if form_resultant(F, G) % p == 0:
                    continue
                start = rng.randrange(p + 1)
                m, lam = _orbit(p, F, G, start)
                cycle = naive_cycle(p, F, G, start)
                assert (m, lam) == (len(cycle), naive_multiplier(p, F, G, cycle)), (p, b, c)


def _orbit(p, F, G, start):
    """(m, lam) of the walk from start under the map (F, G) mod p."""
    F, G = _reduce(p, F, G)
    W = tuple(w % p for w in wronskian(F, G))
    ((m, lam),) = _walk(p, F, G, W, (start,), prime_tables(p).inv)
    return m, lam


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


def _conjugate_fp(p, F, G, mat):
    """The forms of M o (F, G) o M^-1 mod p for M = [[a, b], [c, d]]."""
    a, b, c, d = mat
    h1 = _subst(F, d, -b, -c, a, p)
    h2 = _subst(G, d, -b, -c, a, p)
    return (tuple((a * x + b * y) % p for x, y in zip(h1, h2)),
            tuple((c * x + d * y) % p for x, y in zip(h1, h2)))


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
    """The period rule of a cycle of length m and multiplier lam."""

    def test_collapse_when_r_is_one(self):
        assert _cycle_periods(11, 2, 1) == frozenset({2})

    def test_superattracting(self):
        assert _cycle_periods(11, 3, 0) == frozenset({3})

    def test_general(self):
        # 4 has order 3 mod 7
        assert _cycle_periods(7, 1, 4) == frozenset({1, 3})

    def test_p3(self):
        # at p = 3 the period may also be 3 * m * r, unless the cycle is
        # superattracting
        assert _cycle_periods(3, 2, 0) == {2}
        assert _cycle_periods(3, 2, 1) == {2, 6}
        assert _cycle_periods(3, 2, 2) == {2, 4, 12}


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
        # fixed point 2, of multiplier 1.  The critical point 0 falls into
        # it; infinity is a superattracting fixed point
        c, cycle = _cycle_of(3, Fraction(1))
        assert c == Fraction(-29, 16) and sorted(cycle) == [-Fraction(7, 4), -Fraction(1, 4),
                                                           Fraction(5, 4)]
        assert {x.numerator * pow(x.denominator, -1, 3) % 3 for x in cycle} == {2}
        F, G = (16, 0, -29), (0, 0, 16)
        fixed = naive_cycle(3, F, G, 2)
        lam = naive_multiplier(3, F, G, fixed)
        assert (fixed, lam) == ([2], 1)
        assert _cycle_periods(3, len(fixed), lam) == {1, 3}
        assert critical_periods(3, F, G) == (0, 3, {1, 3}, {1}, {1})

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from([1, 2, 3]),
           t=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)))
    @example(family=3, t=Fraction(1))
    def test_rational_cycles_of_z2_plus_c(self, family, t):
        # Morton and Silverman: at every good odd prime the exact period of
        # a rational periodic point is in the set of its reduction's
        # cycle.  The plain-loop oracle gives the same sets, for the
        # cycle's points and, against critical_periods, for the critical
        # points 0 and infinity
        assume(family == 1 or t != 0)
        assume(family != 3 or t != -1)
        c, cycle = _cycle_of(family, t)
        assert len(cycle) == family
        F, G = (c.denominator, 0, c.numerator), (0, 0, c.denominator)
        for p in odd_primes_up_to(200):
            if form_resultant(F, G) % p == 0:
                continue
            for x in cycle:
                z = p if x.denominator % p == 0 else x.numerator * pow(x.denominator, -1, p) % p
                cyc = naive_cycle(p, F, G, z)
                per = _cycle_periods(p, len(cyc), naive_multiplier(p, F, G, cyc))
                assert family in per, (p, x)
                assert per == naive_cycle_periods(p, F, G, cyc), (p, x)
            assert critical_periods(p, F, G) == naive_critical_periods(p, F, G), p

    @settings(max_examples=200, deadline=None)
    @given(st.builds(Rat, st.integers(-40, 40), st.integers(1, 40)),
           st.builds(Rat, st.integers(-40, 40), st.integers(1, 40)))
    def test_ramified_primes_are_bad(self, s1, s2):
        # the rule needs p unramified in the critical points' field
        # Q(sqrt(D)); D divides the wronskian discriminant, 4 * resultant,
        # so every odd divisor of D divides the resultant, and the sieve
        # skips an odd prime dividing D as bad
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        res = phi.resultant()
        assume(res != 0)
        crit = phi.critical_point_data()
        assume(not crit.rational)
        w2, w1, w0 = phi.wronskian()
        assert w1 * w1 - 4 * w2 * w0 == 4 * res
        for q in divisors(abs(crit.points[0].D)):
            assert q % 2 == 0 or res % q == 0, q


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(odd_primes_up_to(LANE_PRIME_LIMIT)),
       x=st.integers(-10 ** 6, 10 ** 6), y=st.integers(0, 10 ** 6), pole=st.booleans())
@example(p=3, x=1, y=0, pole=False)               # infinity
@example(p=7, x=-4, y=3, pole=False)              # a negative numerator
@example(p=7, x=-4, y=3, pole=True)               # a denominator divisible by p
@example(p=2039, x=1, y=2038, pole=False)         # the largest lane prime
def test_point_mod_p_equals_fraction_oracle(p, x, y, pole):
    # the one reduction into P^1(F_p) of the sieve and the reference
    # database: a denominator divisible by p, like infinity, goes to p
    if pole:
        y *= p
    g = gcd(x, y)
    assume(g != 0)
    x, y = x // g, y // g
    assert point_mod_p(x, y, p, prime_tables(p).inv) == naive_point_mod_p(x, y, p)


def test_prime_tables_of_every_lane_prime():
    # the log table is a bijection from F_p^x onto 0 .. p - 2 exactly when
    # the tables are built from a primitive root
    for p in odd_primes_up_to(LANE_PRIME_LIMIT):
        log = prime_tables(p).log
        assert sorted(log[1:]) == list(range(p - 1)), p


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_sqrt_mod(p, data):
    a = data.draw(st.integers(0, p - 1))
    s = prime_tables(p).sqrt[a]
    if s < 0:
        assert all((x * x) % p != a for x in range(p))
    else:
        assert (s * s) % p == a


@given(FORMS, FORMS, st.sampled_from(SMALL_PRIMES))
@settings(max_examples=200, deadline=None)
def test_resultant_equals_sylvester_determinant(F, G, p):
    # h^2 - w2 * w0 against the Fraction determinant of the Sylvester matrix
    assume(any(F + G))
    m = NormalizedQuadMap(F, G)
    assert m.resultant() == poly_resultant(m.F, m.G)
    res = int(poly_resultant(F, G))
    assert (form_resultant(F, G), form_resultant(G, F), form_resultant(F, F)) == (res, res, 0)
    # the map drops degree mod p exactly where p divides the resultant
    assert (critical_periods(p, F, G) is None) == (res % p == 0)


def test_oracle_shares_no_mod_p_code():
    # the oracle takes only the normal-form family from ffdyn and nothing
    # from sievedb, so that it shares no code with the walk it checks
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith(("quadpcf.ffdyn", "quadpcf.sievedb")), \
                    alias.name
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert node.module != "quadpcf.sievedb", names
            if node.module == "quadpcf.ffdyn":
                assert names <= {"family_forms"}, names
            if node.module == "quadpcf":
                assert not names & {"ffdyn", "sievedb"}, names
