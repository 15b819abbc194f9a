import random
from fractions import Fraction

import pytest

from quadpcf.cli import TEN_SIGMA_PAIRS
from quadpcf.exact_arith import INFINITY, QuadPoint, Rat
from quadpcf.pcfverify import critical_orbit_portrait, point_size
from quadpcf.preper import FunctionalGraph
from quadpcf.projmap import NormalizedQuadMap

from oracles import MobiusTransform, conjugate


def brute_orbit_z2_minus_2(start, steps=20):
    """Independent exact iteration of z^2 - 2 with plain Fractions."""
    out = [start]
    cur = start
    for _ in range(steps):
        if cur == "inf":
            nxt = "inf"
        else:
            nxt = cur * cur - 2
        if nxt in out:
            out.append(nxt)
            break
        out.append(nxt)
        cur = nxt
    return out


class TestPortraits:
    def test_fixed_critical_class_matches_independent_iteration(self):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        st = critical_orbit_portrait(m)
        assert st.verified
        edges = set(st.portrait.edges())
        assert edges == {
            (Rat(0), Rat(0), 2), (Rat(-4), Rat(-4, 3), 2),
            (Rat(-4, 3), Rat(4), 1), (Rat(4), Rat(4), 1)}
        # the conjugate z^2 - 2 has critical points 0 and inf; check its
        # finite orbit against a local Fraction-only iteration
        brute = brute_orbit_z2_minus_2(Fraction(0))
        assert brute == [Fraction(0), Fraction(-2), Fraction(2), Fraction(2)]
        conj = NormalizedQuadMap((1, 0, -2), (0, 0, 1))
        st2 = critical_orbit_portrait(conj)
        verts = set(st2.portrait.vertices)
        assert {Rat(0), Rat(-2), Rat(2), INFINITY} == verts

    def test_critical_three_cycle(self):
        st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(-6, 8))
        assert set(st.portrait.edges()) == {
            (Rat(-2), Rat(0), 2), (Rat(0), INFINITY, 1), (INFINITY, Rat(-2), 2)}

    def test_sqrt2_orbits(self):
        st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(-2, 2))
        s2 = lambda a, b: QuadPoint(a, b, 1, 2)
        expected = {
            (s2(-2, -1), s2(0, -1), 2),
            (s2(-2, 1), s2(0, 1), 2),
            (s2(0, -1), INFINITY, 1),
            (s2(0, 1), INFINITY, 1),
            (INFINITY, Rat(-2), 1), (Rat(-2), Rat(-2), 1)}
        assert set(st.portrait.edges()) == expected

    def test_z2_portrait(self):
        st = critical_orbit_portrait(NormalizedQuadMap((1, 0, 0), (0, 0, 1)))
        assert set(st.portrait.edges()) == {
            (Rat(0), Rat(0), 2), (INFINITY, INFINITY, 2)}

    def test_all_ten_verified(self):
        for s1, s2 in TEN_SIGMA_PAIRS:
            st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(s1, s2))
            assert st.verified and st.portrait is not None


class TestUndetermined:
    def test_2_minus_12_blows_up(self):
        st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(2, -12))
        assert not st.verified
        assert st.portrait is None
        assert st.max_size_seen > 10 ** 6 or "budget" in st.reason

    def test_budget_boundary(self):
        m = NormalizedQuadMap.from_sigmas(2, -8)
        assert not critical_orbit_portrait(m, budget=2).verified
        assert critical_orbit_portrait(m, budget=3).verified

    def test_is_pcf_never_claims_non_pcf(self):
        st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(2, -12))
        assert not st.verified and ("cutoff" in st.reason or "budget" in st.reason)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            critical_orbit_portrait(NormalizedQuadMap.from_sigmas(2, 0))


class TestPortraitInvariants:
    def test_functionality_and_ramification(self):
        for s1, s2 in TEN_SIGMA_PAIRS:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            st = critical_orbit_portrait(m)
            p = st.portrait
            crit = set(p.critical)
            for v in p.vertices:
                assert m.apply(v) == p.successor[v]
                assert p.ramification(v) == (2 if v in crit else 1)
            # edges labeled 2 originate exactly at the critical points
            heavy = {src for src, _, r in p.edges() if r == 2}
            assert heavy == crit

    def test_conjugation_equivariance_random(self):
        rng = random.Random(23)
        for s1, s2 in [(Rat(2), Rat(-8)), (Rat(-6), Rat(8)), (Rat(-2), Rat(4))]:
            m = NormalizedQuadMap.from_sigmas(s1, s2)
            base = critical_orbit_portrait(m).portrait
            for _ in range(3):
                while True:
                    a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
                    if a * d - b * c != 0:
                        break
                f = MobiusTransform(a, b, c, d)
                conj = critical_orbit_portrait(conjugate(m, f)).portrait
                mapped = {(f(p), f(q), r) for p, q, r in base.edges()}
                assert mapped == set(conj.edges())

    def test_simpler_conjugate_forms_same_shape(self):
        # simpler conjugate forms have isomorphic portraits with equal sigmas
        conj_forms = {
            (Rat(2), Rat(-8)): "[1,0,-2]/[0,0,1]",
            (Rat(-6), Rat(8)): "[0,0,1]/[1,-2,1]",
            (Rat(-2), Rat(0)): "[0,2,1]/[-2,4,0]",
            (Rat(-10, 3), Rat(20, 3)): "[3,-4,1]/[0,-4,1]",
        }
        for (s1, s2), text in conj_forms.items():
            normal = NormalizedQuadMap.from_sigmas(s1, s2)
            other = NormalizedQuadMap.from_str(text)
            assert other.sigma_invariants() == (s1, s2)
            g1 = FunctionalGraph(critical_orbit_portrait(normal).portrait.successor)
            g2 = FunctionalGraph(critical_orbit_portrait(other).portrait.successor)
            assert g1.is_isomorphic_to(g2), text


class TestPointSize:
    def test_values(self):
        assert point_size(INFINITY) == 1
        assert point_size(Rat(-10, 3)) == 10
        assert point_size(QuadPoint(1, 154, 7, 5)) == 22
        # the heights of a/c and b/c in lowest terms, a = 0 counting 1
        assert point_size(QuadPoint(-9, 4, 6, -3)) == 3
        assert point_size(QuadPoint(0, -1, 1, 2)) == 1


class TestDotOutput:
    def test_dot_contains_labels(self):
        st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(2, -8))
        dot = st.portrait.to_dot()
        assert dot.startswith("digraph")
        assert '"-4" -> "-4/3" [label="2"]' in dot
        assert '"4" -> "4" [label="1"]' in dot

    def test_text_lines(self):
        st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(-6, 8))
        assert "inf ->(2) -2" in st.portrait.text_lines()
