import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadpcf.cli import TEN_SIGMA_PAIRS
from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    QuadPoint,
    Rat,
)
from quadpcf.ffdyn import critical_periods, family_forms, form_resultant
from quadpcf.preper import invsq_twist_from_dk, invsq_twist_from_t, sq_twist_map
from quadpcf.projmap import DegenerateMapError, NormalizedQuadMap

from oracles import (
    MobiusTransform,
    Surd,
    UnsupportedFieldError,
    conjugate,
    field_conjugate,
    fixed_point_multipliers,
    rat,
)

nonzero = st.integers(-40, 40).filter(lambda x: x != 0)
small_sigmas = st.builds(Rat, st.integers(-8, 8), st.integers(1, 4))
# pairs of heights up to 10^30 whose numerators share one factor and whose
# denominators another, so that cross-denominator products and contents
# are exercised
FACTOR = st.integers(1, 10 ** 10)
shared_factor_pairs = st.builds(
    lambda g, h, n1, d1, n2, d2: (Rat(n1 * g, d1 * h), Rat(n2 * g, d2 * h)),
    FACTOR, FACTOR, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20),
    st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20))
COEFF = st.integers(-12, 12)
# leading coefficients are often 0, so that infinity is fixed or critical
FORM = st.tuples(st.one_of(st.just(0), COEFF), COEFF, COEFF)
# squarefree D of both signs: real and imaginary quadratic fields
SQUAREFREE = st.sampled_from([-15, -7, -3, -2, -1, 2, 3, 5, 6, 7, 10, 13])


def fraction_image(F, G, z):
    """F(z) / G(z) over Fraction, with None for infinity on both sides."""
    if z is None:
        f, g = F[0], G[0]
    else:
        f = (F[0] * z + F[1]) * z + F[2]
        g = (G[0] * z + G[1]) * z + G[2]
    return None if g == 0 else Fraction(f) / g


def minimal_form(pt):
    """The integer form whose roots are (a +- b sqrt(D)) / c."""
    a, b, c, D = pt
    return (c * c, -2 * a * c, a * a - D * b * b)


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

    def test_non_integer_coefficients_rejected(self):
        # every constructor builds integer forms
        for bad in (Rat(1, 2), Fraction(1, 2), 1.0, True):
            with pytest.raises(TypeError):
                NormalizedQuadMap((bad, 0, 0), (0, 0, 1))

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

    def test_infinite_sigma_rejected(self):
        for pair in ((INFINITY, 2), (2, INFINITY)):
            with pytest.raises(ValueError, match="finite"):
                NormalizedQuadMap.from_sigmas(*pair)


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
        crit = NormalizedQuadMap.from_sigmas(2, -8).critical_point_data()
        assert crit.rational and crit.points == (Rat(0), Rat(-4))

    def test_squaring_map(self):
        crit = NormalizedQuadMap((1, 0, 0), (0, 0, 1)).critical_point_data()
        assert crit.rational and set(crit.points) == {Rat(0), INFINITY}

    def test_conjugate_quadratic_pair(self):
        crit = NormalizedQuadMap.from_sigmas(-2, 0).critical_point_data()
        assert not crit.rational
        assert crit.points == (QuadPoint(-3, 1, 1, 5), QuadPoint(-3, -1, 1, 5))

    def test_complex_pair(self):
        # (4, -3) has wronskian 10z^2 + 10: the critical points are +-i
        m = NormalizedQuadMap.from_sigmas(4, -3)
        assert m.resultant() != 0
        data = m.critical_point_data(need_points=False)
        assert data.points is None and not data.rational
        crit = m.critical_point_data()
        assert not crit.rational
        assert crit.points == (QuadPoint(0, 1, 1, -1), QuadPoint(0, -1, 1, -1))

    @settings(max_examples=300, deadline=None)
    @given(F=FORM, G=FORM)
    @example(F=(1, 0, 0), G=(0, 0, 1))            # z^2: w2 = 0, infinity critical
    @example(F=(1, 0, 0), G=(0, -1, 1))           # w2 < 0, roots 0 and 2
    def test_rational_points_equal_fraction_roots(self, F, G):
        # the roots of the wronskian over Fraction, in the order
        # (-w1 + s) / 2w2, (-w1 - s) / 2w2, or the finite root and then
        # infinity where w2 = 0; rational exactly when there are two
        assume(form_resultant(F, G) != 0)
        m = NormalizedQuadMap(F, G)
        w = m.wronskian()
        roots = [rat(r) for r in rational_roots(w)] + [INFINITY] * (w[0] == 0)
        crit = m.critical_point_data(need_points=False)
        assert crit.rational == (len(roots) == 2)
        if crit.rational:
            assert crit.points == tuple(roots)

    def test_critical_value_single_fiber(self):
        # each critical value has exactly one preimage (ramification 2)
        for s1, s2 in TEN_SIGMA_PAIRS:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            pts = m.critical_point_data().points
            f2, f1, f0 = m.F
            g2, g1, g0 = m.G
            for gamma in pts:
                v = m.apply(gamma)
                # the quadratic F - v*G must have a double root (disc == 0)
                if v is INFINITY:
                    a, b, c = g2, g1, g0
                else:
                    v = Surd.of(v, 0)
                    a = v * -g2 + f2
                    b = v * -g1 + f1
                    c = v * -g0 + f0
                disc = b * b - a * c * 4
                assert not disc, (str(m), str(gamma))


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
        quad = [v for v in vals if isinstance(v, QuadPoint)]
        assert len(quad) == 2 and quad[0].D == 5
        assert quad[0] == field_conjugate(quad[1])
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
        quad = [v for v in vals if isinstance(v, QuadPoint)]
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

    @given(st.one_of(st.tuples(small_sigmas, small_sigmas), shared_factor_pairs))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, pair):
        s1, s2 = pair
        m = NormalizedQuadMap.from_sigmas(s1, s2)
        if m.resultant() == 0:
            return
        assert m.sigma_invariants() == (s1, s2)

    @given(shared_factor_pairs)
    @settings(max_examples=80, deadline=None)
    def test_twists_have_the_power_map_sigmas(self, pair):
        # the twists of z^2 share its sigmas (2, 0) and those of 1/z^2 its
        # (-6, 12), however the forms are built; the image of one point pins
        # down the parameter
        x, y = pair
        assume(not x.is_zero())
        fx = Fraction(x.num, x.den)
        phi = sq_twist_map(x)
        assert phi.sigma_invariants() == (Rat(2), Rat(0))
        assert phi.apply(Rat(1)) == rat(Fraction(1, 2) + fx)
        phi = invsq_twist_from_t(x)
        assert phi.sigma_invariants() == (Rat(-6), Rat(12))
        assert phi.apply(Rat(1)) == x
        assume(Fraction(y.num, y.den) ** 2 != fx)
        phi = invsq_twist_from_dk(x, y)
        assert phi.sigma_invariants() == (Rat(-6), Rat(12))
        assert phi.apply(INFINITY) == y

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
        gamma = QuadPoint(-3, -1, 1, 5)
        assert m.apply(gamma) == QuadPoint(-1, -1, 2, 5)

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
            pt = INFINITY if z is None else rat(z)
            image = fraction_image(F, G, z)
            expected = INFINITY if image is None else rat(image)
            got = m.apply(pt)
            assert (got.num, got.den) == (expected.num, expected.den)
            assert (got is INFINITY) == (image is None)

    @settings(max_examples=300, deadline=None)
    @given(F=FORM, G=FORM, D=SQUAREFREE, q=st.integers(-6, 6),
           abc=st.tuples(st.integers(-10 ** 4, 10 ** 4),
                         st.integers(-10 ** 4, 10 ** 4).filter(bool),
                         st.integers(1, 10 ** 3)))
    def test_quadratic_step_equals_surd_oracle(self, F, G, D, q, abc):
        a, b, c = abc
        z = Surd(Fraction(a, c), Fraction(b, c), D)
        pt = z.point()
        M = minimal_form(pt)
        # the forms as drawn; G = M, a pole at z; and F = M + q G, whose
        # image of z collapses to q in Q wherever G(z) != 0
        collapse = tuple(x + q * y for x, y in zip(M, G))
        for F1, G1 in ((F, G), (F, M), (collapse, G)):
            if form_resultant(F1, G1) == 0:
                continue
            m = NormalizedQuadMap(F1, G1)
            f = (z * F1[0] + F1[1]) * z + F1[2]
            g = (z * G1[0] + G1[1]) * z + G1[2]
            expected = INFINITY if not g else (f / g).point()
            got = m.quad_step(pt)
            assert type(got) is type(expected) and got == expected
            if G1 == M:
                assert got is INFINITY
            elif F1 == collapse and g:
                assert got == Rat(q)
        # with b = 0 the formula is the rational step, infinity included
        if form_resultant(F, G) != 0:
            m = NormalizedQuadMap(F, G)
            g = gcd(a, c)
            for x, y in ((a // g, c // g), (1, 0)):
                got = m.quad_step(QuadPoint(x, 0, y, D))
                want = ExtendedRational.from_pair(*m.step((x, y)))
                assert (got.num, got.den) == (want.num, want.den)

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
        # rational, real quadratic and complex critical points
        rng = random.Random(11)
        for s1, s2 in ((2, -8), (-2, 0), (4, -3)):
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            pts = m.critical_point_data().points
            for _ in range(4):
                f = random_mobius(rng)
                conj_pts = conjugate(m, f).critical_point_data().points
                assert set(conj_pts) == {f(p) for p in pts}

    def test_rational_mobius_entries_cleared(self):
        f = MobiusTransform(Fraction(1, 2), 0, 0, 1)
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
        assert tuple(x % 7 for x in m.F) == (2, 0, 0)
        assert tuple(x % 7 for x in m.G) == (6, 4, 1)

    def test_bad_reduction_at_denominator_prime(self):
        m = NormalizedQuadMap.from_sigmas(Rat(-2, 3), Rat(4, 3))
        assert m.resultant() % 3 == 0
        assert critical_periods(3, m.F, m.G) is None

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
                fm = tuple(x % p for x in m.F + m.G)
                s1p = s1.num * pow(s1.den, p - 2, p) % p
                s2p = s2.num * pow(s2.den, p - 2, p) % p
                fam = tuple(x % p for x in sum(family_forms(2 - s1p, 2 - s1p - s2p), ()))
                scale = fm[0] * pow(fam[0], p - 2, p) % p
                assert all(x == y * scale % p for x, y in zip(fm, fam))
