import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    QuadPoint,
    Rat,
    enumerate_rationals,
    height,
    point_sort_key,
    primes_up_to,
    squarefree_part,
    validate_primes,
)

from oracles import Surd, divisors, rat

nonzero_ints = st.integers(-200, 200).filter(lambda x: x != 0)
small_rats = st.builds(Rat, st.integers(-60, 60), nonzero_ints)
small_fractions = st.builds(Fraction, st.integers(-60, 60), nonzero_ints)


# ----------------------------------------------------------------------
# rationals
# ----------------------------------------------------------------------

class TestExtendedRational:
    def test_reduction(self):
        r = Rat(6, -4)
        assert (r.num, r.den) == (-3, 2)
        assert Rat(0, 5) == Rat(0) and Rat(0).den == 1

    def test_zero_denominator_is_infinity(self):
        assert Rat(3, 0) is INFINITY
        with pytest.raises(ZeroDivisionError):
            Rat(0, 0)

    def test_infinity_identity(self):
        assert INFINITY == INFINITY
        assert INFINITY != Rat(1)
        assert INFINITY != 10 ** 9
        assert INFINITY.is_infinity()

    def test_value_type_without_arithmetic_or_order(self):
        # the exact layer computes on num and den; point_sort_key orders points
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.pow, operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(Rat(1, 2), 2)
        with pytest.raises(TypeError):
            -Rat(1, 3)

    def test_only_ints_convert_and_only_rationals_compare(self):
        # a Fraction converts through rat, explicitly; no Python number
        # equals an ExtendedRational, so equality and hash are the pair's
        assert rat(Fraction(-3, 4)) == Rat(-3, 4) and rat(Fraction(5)).den == 1
        assert Rat(5) != 5 and Rat(3, 4) != Fraction(3, 4) and Rat(0) != 0
        assert {Rat(7): 1}.get(7) is None
        for bad in (Fraction(3, 4), 0.5, "1/2", None):
            with pytest.raises(TypeError):
                Rat(bad)
        with pytest.raises(TypeError):
            Rat(1, Fraction(1, 2))

    def test_text_round_trip(self):
        for text in ("-10/3", "7", "0", "inf", "1/2"):
            assert str(ExtendedRational.from_str(text)) == text

    @given(st.integers(-10**6, 10**6), nonzero_ints)
    @settings(max_examples=80)
    def test_reduction_canonical(self, p, q):
        r = Rat(p, q)
        assert r.den >= 1
        assert gcd(abs(r.num), r.den) == 1
        assert Fraction(p, q) == Fraction(r.num, r.den)


# ----------------------------------------------------------------------
# heights and enumeration
# ----------------------------------------------------------------------

class TestHeight:
    def test_examples(self):
        assert height(Rat(0)) == 1
        assert height(Rat(-10, 3)) == 10
        assert height(Rat(20, 3)) == 20
        assert height(INFINITY) == 1
        assert height(Rat(1)) == height(Rat(-1)) == 1

    @given(small_rats, small_rats)
    @settings(max_examples=80)
    def test_multiplicativity_bound(self, x, y):
        assert height(Rat(x.num * y.num, x.den * y.den)) <= height(x) * height(y)


def brute_force_rationals(h):
    out = set()
    for q in range(1, h + 1):
        for p in range(-h, h + 1):
            if max(abs(p), q) <= h and gcd(abs(p), q) == 1:
                out.add((p, q))
    return out


class TestEnumerateRationals:
    def test_h1(self):
        assert list(enumerate_rationals(1)) == [Rat(-1), Rat(0), Rat(1)]

    def test_h2(self):
        seq = list(enumerate_rationals(2))
        assert seq == [Rat(-1), Rat(0), Rat(1), Rat(-2), Rat(2),
                       Rat(-1, 2), Rat(1, 2)]
        assert set(seq) == {Rat(0), Rat(1), Rat(-1), Rat(2), Rat(-2),
                            Rat(1, 2), Rat(-1, 2)}

    @pytest.mark.parametrize("h", [1, 2, 3, 5, 8, 12])
    def test_against_brute_force(self, h):
        seq = list(enumerate_rationals(h))
        assert len(seq) == len(set(seq)), "duplicates"
        assert {(r.num, r.den) for r in seq} == brute_force_rationals(h)

    def test_postcondition_and_order(self):
        seq = list(enumerate_rationals(9))
        assert all(height(x) <= 9 for x in seq)
        keys = [(height(x), x.den, x.num) for x in seq]
        assert keys == sorted(keys)

    def test_deterministic(self):
        assert list(enumerate_rationals(7)) == list(enumerate_rationals(7))

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_rationals(0))


# ----------------------------------------------------------------------
# quadratic points, and the tests' own field arithmetic
# ----------------------------------------------------------------------

class TestQuadPoint:
    def test_text(self):
        # a/c and b/c in lowest terms, as the verifier's artifacts print them
        assert str(QuadPoint(-3, -1, 1, 5)) == "-3-1*sqrt(5)"
        assert str(QuadPoint(-1, 1, 2, 5)) == "-1/2+1/2*sqrt(5)"
        assert str(QuadPoint(0, -1, 1, 2)) == "0-1*sqrt(2)"
        assert str(QuadPoint(9, -4, 6, -3)) == "3/2-2/3*sqrt(-3)"

    def test_sort_key(self):
        # rationals, then quadratic points by D, a/c and b/c, then infinity
        pts = [INFINITY, QuadPoint(1, 1, 1, 2), QuadPoint(-1, 1, 2, -3),
               QuadPoint(1, -1, 1, 2), Rat(7), QuadPoint(0, 1, 1, 2)]
        assert sorted(pts, key=point_sort_key) == [
            Rat(7), QuadPoint(-1, 1, 2, -3), QuadPoint(0, 1, 1, 2),
            QuadPoint(1, -1, 1, 2), QuadPoint(1, 1, 1, 2), INFINITY]


    @settings(max_examples=200)
    @given(st.lists(st.one_of(
        small_rats, st.just(INFINITY),
        st.builds(QuadPoint, st.integers(-30, 30), nonzero_ints, st.integers(1, 30),
                  st.sampled_from([-3, -1, 2, 3, 5]))), max_size=12))
    def test_sort_key_orders_by_value(self, pts):
        # the key compares a/c and b/c exactly, not in lowest terms: the
        # order of Fraction values, ties included
        def by_fraction(pt):
            if isinstance(pt, QuadPoint):
                return (1, pt.D, Fraction(pt.a, pt.c), Fraction(pt.b, pt.c))
            return (2,) if pt is INFINITY else (0, Fraction(pt.num, pt.den))

        assert sorted(pts, key=point_sort_key) == sorted(pts, key=by_fraction)
        for x in pts[:4]:
            for y in pts[:4]:
                assert ((point_sort_key(x) == point_sort_key(y))
                        == (by_fraction(x) == by_fraction(y)))
                assert ((point_sort_key(x) < point_sort_key(y))
                        == (by_fraction(x) < by_fraction(y)))


class TestSurd:
    def test_rational_collapse(self):
        a = Surd.of(QuadPoint(-3, 1, 1, 5), 5)
        assert (a * a.conjugate()).point() == Rat(4)    # (-3)^2 - 5
        assert (a + a.conjugate()).point() == Rat(-6)

    def test_division(self):
        x = Surd(Fraction(1), Fraction(1), 2)            # 1 + sqrt2
        assert (x / x).point() == Rat(1)
        assert (Surd.of(1, 2) / x).point() == QuadPoint(-1, 1, 1, 2)  # sqrt2 - 1

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            Surd(Fraction(0), Fraction(1), 2) + Surd(Fraction(0), Fraction(1), 3)

    @given(small_fractions, small_fractions, small_fractions, small_fractions,
           st.sampled_from([2, 3, 5, 7, 13, -1, -3]))
    @settings(max_examples=60)
    def test_norm_identity(self, a, b, c, d, D):
        x = Surd.of(a, D) + Surd.of(b, D) * Surd(Fraction(0), Fraction(1), D)
        y = Surd.of(c, D) + Surd.of(d, D) * Surd(Fraction(0), Fraction(1), D)
        assert (x * x.conjugate()).point() == rat(a * a - b * b * D)
        # conjugation is a ring homomorphism
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        # a QuadPoint is canonical: gcd(a, b, c) = 1 and c > 0
        if b:
            pt = x.point()
            assert gcd(pt.a, pt.b, pt.c) == 1 and pt.c > 0
            assert Surd.of(pt, D) == x


def test_squarefree_part():
    assert squarefree_part(0) == (0, 0)
    assert squarefree_part(8) == (2, 2)
    assert squarefree_part(36) == (6, 1)
    assert squarefree_part(-12) == (2, -3)
    assert squarefree_part(320) == (8, 5)


def _is_prime_by_division(n):
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_is_prime_and_divisors_small():
    assert primes_up_to(3000) == tuple(n for n in range(3001) if _is_prime_by_division(n))
    for n in range(1, 600):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_validate_primes_accepts_exactly_the_odd_primes_below_the_limit():
    for n in range(-5, 2100):
        if n % 2 and _is_prime_by_division(n) and n < 2048:
            assert validate_primes([n], 2048, "the sieve") == (n,)
        else:
            with pytest.raises(ValueError, match="need odd primes|too large"):
                validate_primes([n], 2048, "the sieve")


@given(st.integers(1, 10 ** 4), st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 30]),
       st.sampled_from([1, 1009, 999983, 1000037]),
       st.sampled_from([1, 1013, 1000003, 2 ** 61 - 1]), st.sampled_from([1, -1]))
@settings(max_examples=80, deadline=None)
def test_squarefree_part_with_large_factors(s, d, q1, q2, sign):
    # s^2 * d * q1 * q2^2 with d squarefree and distinct primes q1, q2
    # above the range of trial division, whose cofactor is
    # big^2 * q1 * q2^2, big the prime factor of s above 1000 if any (one at
    # most, as s <= 10^4)
    n = sign * s * s * d * q1 * q2 * q2
    got_s, got_d = squarefree_part(n)
    assert got_s * got_s * got_d == n
    assert all(got_d % (p * p) for p in primes_up_to(999))
    big = s
    for p in primes_up_to(999):
        while big % p == 0:
            big //= p
    if q1 == 1:
        # a square cofactor goes into s
        assert (got_s, got_d) == (s * q2, sign * d)
    else:
        # any other cofactor goes into D whole; it is below 10^9 only as q1
        # alone, and then D is squarefree
        assert (got_s, got_d) == (s // big, sign * d * big * big * q1 * q2 * q2)
