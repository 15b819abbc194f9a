import random
from fractions import Fraction

import pytest

from quadpcf.cli import TEN_SIGMA_PAIRS, main
from quadpcf.exact_arith import INFINITY, QuadPoint, Rat
from quadpcf.pcfverify import critical_orbit_portrait, point_size
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

    def test_iterations_and_sizes_of_the_ten(self):
        # the benchmark's traced replay reads these two figures; a critical
        # point already on the other orbit costs no step
        want = ((4, 4), (3, 2), (5, 4), (3, 2), (4, 2), (5, 2), (4, 4), (7, 3),
                (6, 2), (5, 4))
        got = tuple((st.iterations_used, st.max_size_seen)
                    for st in (critical_orbit_portrait(NormalizedQuadMap.from_sigmas(s1, s2))
                               for s1, s2 in TEN_SIGMA_PAIRS))
        assert got == want


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


class TestRepeatBeforeCutoff:
    """An exact repeat closes an orbit even when the repeated point is past
    the size cutoff: only the critical points themselves are never held to
    the cutoff, so such a repeat meets a critical point."""

    # z^2 - 20z + 110 fixes its critical point 10, at the first image;
    # z^2 - 20z + 109 has the critical 2-cycle 10 -> 9 -> 10, closed at the
    # second image
    CASES = (("[1,-20,110]/[0,0,1]", 5, ["10 ->(2) 10", "inf ->(2) inf"], 2),
             ("[1,-20,109]/[0,0,1]", 9,
              ["9 ->(1) 10", "10 ->(2) 9", "inf ->(2) inf"], 3))

    @pytest.mark.parametrize("text, cutoff, lines, iterations", CASES,
                             ids=("fixed", "two-cycle"))
    def test_repeat_past_the_cutoff_verifies(self, text, cutoff, lines, iterations):
        st = critical_orbit_portrait(NormalizedQuadMap.from_str(text), size_cutoff=cutoff)
        assert st.verified and st.portrait.edge_lines() == lines
        assert (st.iterations_used, st.max_size_seen) == (iterations, 10)

    def test_image_past_the_cutoff_before_a_repeat(self):
        # below 9 the 2-cycle's first image is past the cutoff and no repeat
        st = critical_orbit_portrait(NormalizedQuadMap.from_str("[1,-20,109]/[0,0,1]"),
                                     size_cutoff=8)
        assert not st.verified and st.portrait is None
        assert st.reason == "orbit size 9 exceeded cutoff 8"
        assert (st.iterations_used, st.max_size_seen) == (1, 10)

    def test_through_the_cli(self, capsys):
        assert main(["portrait", "--map", "[1,-20,110]/[0,0,1]"]) == 0
        assert capsys.readouterr().out == "10 ->(2) 10\ninf ->(2) inf\n"


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
        dot = st.portrait.to_dot("portrait")
        assert dot.startswith("digraph portrait {")
        assert '"-4" -> "-4/3" [label="2"]' in dot
        assert '"4" -> "4" [label="1"]' in dot

    def test_edge_lines(self):
        st = critical_orbit_portrait(NormalizedQuadMap.from_sigmas(-6, 8))
        assert st.portrait.edge_lines() == ["-2 ->(2) 0", "0 ->(1) inf", "inf ->(2) -2"]
