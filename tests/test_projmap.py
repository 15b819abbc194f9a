import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadpcf.cli import TEN_SIGMA_PAIRS
from quadpcf.exact_arith import (
    INFINITY,
    NegativeDiscriminantError,
    QuadFieldElement,
    Rat,
)
from quadpcf.ffdyn import FpMap, family_forms, form_resultant
from quadpcf.projmap import DegenerateMapError, NormalizedQuadMap

from oracles import (
    MobiusTransform,
    UnsupportedFieldError,
    conjugate,
    fixed_point_multipliers,
)

nonzero = st.integers(-40, 40).filter(lambda x: x != 0)
small_sigmas = st.builds(Rat, st.integers(-8, 8), st.integers(1, 4))
COEFF = st.integers(-12, 12)
# leading coefficients are often 0, so that infinity is fixed or critical
FORM = st.tuples(st.one_of(st.just(0), COEFF), COEFF, COEFF)


def fraction_image(F, G, z):
    """F(z) / G(z) over Fraction, with None for infinity on both sides."""
    if z is None:
        f, g = F[0], G[0]
    else:
        f = (F[0] * z + F[1]) * z + F[2]
        g = (G[0] * z + G[1]) * z + G[2]
    return None if g == 0 else Fraction(f) / g


def rational_roots(form):
    """The finite rational roots of a quadratic form's affine polynomial."""
    a, b, c = form
    if a == 0:
        return [Fraction(-c, b)] if b else []
    disc = b * b - 4 * a * c
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return []
    return [Fraction(-b + s, 2 * a) for s in (isqrt(disc), -isqrt(disc))]


def random_mobius(rng):
    while True:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        if a * d - b * c != 0:
            return MobiusTransform(a, b, c, d)


class TestNormalization:
    def test_content_and_sign(self):
        m = NormalizedQuadMap((-2, 0, -4), (0, -6, -2))
        assert m.F == (1, 0, 2) and m.G == (0, 3, 1)

    def test_rational_coefficients_cleared(self):
        m = NormalizedQuadMap((Rat(1, 2), 0, 0), (0, 0, Rat(1, 3)))
        assert m.F == (3, 0, 0) and m.G == (0, 0, 2)

    def test_all_zero_rejected(self):
        with pytest.raises(Exception):
            NormalizedQuadMap((0, 0, 0), (0, 0, 0))

    def test_equality_is_coefficient_comparison(self):
        assert NormalizedQuadMap((2, 0, 0), (-1, 4, 8)) == \
            NormalizedQuadMap((-4, 0, 0), (2, -8, -16))

    def test_str_round_trip(self):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        assert NormalizedQuadMap.from_str(str(m)) == m


class TestFromSigmas:
    def test_integer_pair(self):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        assert m.F == (2, 0, 0) and m.G == (-1, 4, 8)

    def test_fractional_pair(self):
        m = NormalizedQuadMap.from_sigmas(Rat(-2, 3), Rat(4, 3))
        assert m.F == (6, 8, 8) and m.G == (-3, 4, 4)

    def test_negative_sigma1(self):
        m = NormalizedQuadMap.from_sigmas(-6, 4)
        assert m.F == (2, 8, 8) and m.G == (-1, -4, 4)

    def test_provenance(self):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        assert m.sigmas == (Rat(2), Rat(-8))


class TestResultant:
    def test_examples(self):
        assert NormalizedQuadMap.from_sigmas(2, -8).resultant() == 256
        assert NormalizedQuadMap.from_sigmas(2, 0).resultant() == 0
        assert NormalizedQuadMap.from_sigmas(-6, 12).resultant() == 0

    def test_zero_iff_common_projective_root(self):
        assert NormalizedQuadMap((1, 0, 0), (2, 0, 0)).resultant() == 0
        # x(x+y) and y(x+y) share the factor x+y
        assert NormalizedQuadMap((1, 1, 0), (0, 1, 1)).resultant() == 0
        # x^2+y^2 and xy are coprime
        assert NormalizedQuadMap((1, 0, 1), (0, 1, 0)).resultant() != 0


class TestCriticalPoints:
    def test_rational_pair(self):
        pts, rational = NormalizedQuadMap.from_sigmas(2, -8).critical_points()
        assert rational and pts == (Rat(0), Rat(-4))

    def test_squaring_map(self):
        pts, rational = NormalizedQuadMap((1, 0, 0), (0, 0, 1)).critical_points()
        assert rational and set(pts) == {Rat(0), INFINITY}

    def test_conjugate_quadratic_pair(self):
        pts, rational = NormalizedQuadMap.from_sigmas(-2, 0).critical_points()
        assert not rational
        assert pts == (QuadFieldElement(Rat(-3), Rat(1), 5),
                       QuadFieldElement(Rat(-3), Rat(-1), 5))

    def test_complex_raises(self):
        # (4, -3) has wronskian (10z^2 + 10) up to scale: negative discriminant
        m = NormalizedQuadMap.from_sigmas(4, -3)
        assert m.resultant() != 0
        data = m.critical_point_data(need_points=False)
        assert data.field == "complex" and not data.rational
        with pytest.raises(NegativeDiscriminantError):
            m.critical_points()

    def test_critical_value_single_fiber(self):
        # each critical value has exactly one preimage (ramification 2)
        for s1, s2 in TEN_SIGMA_PAIRS:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            pts, _ = m.critical_points()
            f2, f1, f0 = m.F
            g2, g1, g0 = m.G
            for gamma in pts:
                v = m.apply(gamma)
                # the quadratic F - v*G must have a double root (disc == 0)
                if isinstance(v, type(INFINITY)) and v.is_infinity():
                    a, b, c = Rat(g2), Rat(g1), Rat(g0)
                else:
                    a = f2 - v * g2
                    b = f1 - v * g1
                    c = f0 - v * g0
                disc = b * b - a * c * 4
                assert disc == 0, (str(m), str(gamma))


class TestMultipliers:
    def test_z2_minus_2(self):
        m = NormalizedQuadMap((1, 0, -2), (0, 0, 1))
        vals = fixed_point_multipliers(m).values
        assert sorted(vals, key=str) == sorted([Rat(4), Rat(-2), Rat(0)], key=str)

    def test_z2(self):
        m = NormalizedQuadMap((1, 0, 0), (0, 0, 1))
        assert sorted(fixed_point_multipliers(m).values, key=str) == \
            sorted([Rat(2), Rat(0), Rat(0)], key=str)

    def test_inverse_square(self):
        m = NormalizedQuadMap((0, 0, 1), (1, 0, 0))
        assert fixed_point_multipliers(m).values == (Rat(-2), Rat(-2), Rat(-2))

    def test_triple_fixed_infinity(self):
        # z + 1/z fixes only infinity, with multiplicity three
        m = NormalizedQuadMap((1, 0, 1), (0, 1, 0))
        assert fixed_point_multipliers(m).values == (Rat(1), Rat(1), Rat(1))

    def test_golden_ratio_multipliers(self):
        m = NormalizedQuadMap((1, 0, -1), (0, 0, 1))   # z^2 - 1
        vals = fixed_point_multipliers(m).values
        quad = [v for v in vals if isinstance(v, QuadFieldElement)]
        assert len(quad) == 2 and quad[0].D == 5
        assert quad[0] == quad[1].conjugate()
        e1, e2, _ = fixed_point_multipliers(m).elementary_symmetric()
        assert (e1, e2) == (Rat(2), Rat(-4))

    def test_irreducible_cubic_rejected(self):
        # the simpler conjugate of the (-2, 0) class has an irreducible
        # fixed-point cubic, so its multipliers live in a cubic field
        m = NormalizedQuadMap.from_str("[0,2,1]/[-2,4,0]")
        with pytest.raises(UnsupportedFieldError):
            fixed_point_multipliers(m)

    def test_complex_multiplier_pair(self):
        m = NormalizedQuadMap.from_sigmas(Rat(-10, 3), Rat(20, 3))
        vals = fixed_point_multipliers(m).values
        quad = [v for v in vals if isinstance(v, QuadFieldElement)]
        assert len(quad) == 2 and quad[0].D == -3


class TestSigmaInvariants:
    def test_examples(self):
        assert NormalizedQuadMap((1, 0, -2), (0, 0, 1)).sigma_invariants() == \
            (Rat(2), Rat(-8))
        assert NormalizedQuadMap((1, 0, -1), (0, 0, 1)).sigma_invariants() == \
            (Rat(2), Rat(-4))
        assert NormalizedQuadMap((0, 0, 1), (1, 0, 0)).sigma_invariants() == \
            (Rat(-6), Rat(12))
        # z + 1/z: infinity is its only fixed point, with multiplier 1
        assert NormalizedQuadMap((1, 0, 1), (0, 1, 0)).sigma_invariants() == \
            (Rat(3), Rat(3))

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateMapError):
            NormalizedQuadMap.from_sigmas(2, 0).sigma_invariants()

    @settings(max_examples=300, deadline=None)
    @given(root=st.tuples(COEFF, st.one_of(st.just(0), COEFF)),
           q=st.tuples(st.one_of(st.just(0), COEFF), st.one_of(st.just(0), COEFF), COEFF),
           g=st.tuples(COEFF, COEFF))
    def test_equals_oracle_multipliers(self, root, q, g):
        # F - z G = (v z - u) q(z) makes u / v a fixed point (infinity for
        # v = 0), so the oracle can split the fixed-point cubic over Q or a
        # quadratic field; q2 = 0 makes infinity fixed (g2 = 0), and
        # q1 = 0 as well makes it a multiple fixed point (f2 = g1)
        (u, v), (q2, q1, q0), (g1, g0) = root, q, g
        assume((u, v) != (0, 0))
        G = (-v * q2, g1, g0)
        F = (v * q1 - u * q2 + g1, v * q0 - u * q1 + g0, -u * q0)
        assume(form_resultant(F, G) != 0)
        m = NormalizedQuadMap(F, G)
        e1, e2, _ = fixed_point_multipliers(m).elementary_symmetric()
        assert m.sigma_invariants() == (e1, e2)

    @given(small_sigmas, small_sigmas)
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, s1, s2):
        m = NormalizedQuadMap.from_sigmas(s1, s2)
        if m.resultant() == 0:
            return
        assert m.sigma_invariants() == (s1, s2)

    def test_round_trip_on_the_ten(self):
        for s1, s2 in TEN_SIGMA_PAIRS:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            assert m.sigma_invariants() == (s1, s2)


class TestApply:
    def test_known_rational_values(self):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        assert m.apply(Rat(-4)) == Rat(-4, 3)
        assert m.apply(Rat(4)) == Rat(4)

    def test_quadratic_point_value(self):
        m = NormalizedQuadMap.from_sigmas(-2, 0)
        gamma = QuadFieldElement(Rat(-3), Rat(-1), 5)
        assert m.apply(gamma) == QuadFieldElement(Rat(-1, 2), Rat(-1, 2), 5)

    def test_infinity_handling(self):
        m = NormalizedQuadMap.from_sigmas(-6, 8)   # G = -z^2 - 4z
        assert m.apply(Rat(0)) is INFINITY
        assert m.apply(INFINITY) == Rat(-2)
        z2 = NormalizedQuadMap((1, 0, 0), (0, 0, 1))
        assert z2.apply(INFINITY) is INFINITY

    @settings(max_examples=300, deadline=None)
    @given(F=FORM, G=FORM,
           zs=st.lists(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                 st.integers(1, 10 ** 4)), max_size=6))
    def test_integer_step_equals_fraction_oracle(self, F, G, zs):
        # nonzero resultant: F and G never vanish together, so infinity is
        # exactly where G does
        assume(form_resultant(F, G) != 0)
        m = NormalizedQuadMap(F, G)
        for z in [None, *rational_roots(G), *zs]:
            pt = INFINITY if z is None else Rat(z)
            image = fraction_image(F, G, z)
            expected = INFINITY if image is None else Rat(image)
            got = m.apply(pt)
            assert (got.num, got.den) == (expected.num, expected.den)
            assert (got is INFINITY) == (image is None)

    def test_degenerate_pair_raises(self):
        # F = x * y and G = y^2 share the root infinity
        with pytest.raises(DegenerateMapError):
            NormalizedQuadMap((0, 1, 0), (0, 0, 1)).apply(INFINITY)


class TestConjugation:
    def test_identity(self):
        z2 = NormalizedQuadMap((1, 0, 0), (0, 0, 1))
        assert conjugate(z2, MobiusTransform.identity()) == z2

    def test_cube_scaling(self):
        # conjugating 8/z^2 by z -> z/2 gives 1/z^2
        t8 = NormalizedQuadMap((0, 0, 8), (1, 0, 0))
        assert conjugate(t8, MobiusTransform(1, 0, 0, 2)) == \
            NormalizedQuadMap((0, 0, 1), (1, 0, 0))

    def test_sigma_invariance(self):
        rng = random.Random(7)
        for s1, s2 in TEN_SIGMA_PAIRS[:5]:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            for _ in range(3):
                f = random_mobius(rng)
                assert conjugate(m, f).sigma_invariants() == (s1, s2)

    def test_critical_points_transform(self):
        rng = random.Random(11)
        m = NormalizedQuadMap.from_sigmas(2, -8)
        pts, _ = m.critical_points()
        for _ in range(4):
            f = random_mobius(rng)
            conj_pts, _ = conjugate(m, f).critical_points()
            assert set(conj_pts) == {f(p) for p in pts}

    def test_rational_mobius_entries_cleared(self):
        f = MobiusTransform(Rat(1, 2), 0, 0, 1)
        assert (f.a, f.b, f.c, f.d) == (1, 0, 0, 2)

    def test_degenerate_mobius_rejected(self):
        with pytest.raises(ValueError):
            MobiusTransform(2, 4, 1, 2)


def fp_degree_drops(p, F, G):
    """Independent degree-drop check: common projective root over F_p,
    found by scanning all points of P^1(F_p)."""
    for z in range(p):
        fv = (F[0] * z * z + F[1] * z + F[2]) % p
        gv = (G[0] * z * z + G[1] * z + G[2]) % p
        if fv == 0 and gv == 0:
            return True
    return F[0] % p == 0 and G[0] % p == 0


class TestReduction:
    def test_coefficient_reduction(self):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        fm = FpMap(7, m.F, m.G)
        assert fm.F == (2, 0, 0) and fm.G == (6, 4, 1)

    def test_bad_reduction_at_denominator_prime(self):
        m = NormalizedQuadMap.from_sigmas(Rat(-2, 3), Rat(4, 3))
        assert m.resultant() % 3 == 0
        with pytest.raises(ValueError, match="drops degree"):
            FpMap(3, m.F, m.G)

    def test_bad_reduction_characterization(self):
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97]
        for s1, s2 in TEN_SIGMA_PAIRS:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            res = m.resultant()
            for p in primes:
                # cross-check with an independent common-root scan
                assert (res % p == 0) == fp_degree_drops(p, m.F, m.G)

    def test_family_agreement_at_good_primes(self):
        # the reduction of the normal form is the (b, c) family member up
        # to the scalar that cleared denominators
        for s1, s2 in TEN_SIGMA_PAIRS:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            res = m.resultant()
            for p in (3, 5, 7, 11, 13):
                if res % p == 0:
                    continue
                fm = FpMap(p, m.F, m.G)
                s1p = s1.num * pow(s1.den, p - 2, p) % p
                s2p = s2.num * pow(s2.den, p - 2, p) % p
                fam = FpMap(p, *family_forms((2 - s1p) % p, (2 - s1p - s2p) % p))
                scale = fm.F[0] * pow(fam.F[0], p - 2, p) % p
                assert all(x == y * scale % p for x, y in zip(fm.F, fam.F))
                assert all(x == y * scale % p for x, y in zip(fm.G, fam.G))
