from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadpcf import preper
from quadpcf.cli import TEN_SIGMA_PAIRS
from quadpcf.exact_arith import INFINITY, Rat
from quadpcf.ffdyn import form_resultant
from quadpcf.preper import (
    BUDGET,
    CUTOFF,
    INVERSE_SQUARE,
    REPEAT,
    SQUARE,
    CatalogMatchError,
    FunctionalGraph,
    RootOfUnityPoint,
    TypeTag,
    classify_psi1_twist,
    classify_psi2_map,
    invsq_catalog,
    invsq_twist_from_dk,
    invsq_twist_from_t,
    orbit,
    power_map_low_degree_preperiodic,
    rational_preperiodic_graph,
    sq_twist_map,
    totient,
)
from quadpcf.projmap import NormalizedQuadMap

from oracles import naive_cycle_and_depth, reference_search

nonzero_small = st.builds(Rat, st.integers(-30, 30).filter(bool),
                          st.integers(1, 12))
COEFF = st.integers(-9, 9)
FORM = st.tuples(st.one_of(st.just(0), COEFF), COEFF, COEFF)


def as_fraction(pt):
    return None if pt is INFINITY else Fraction(pt.num, pt.den)


# ----------------------------------------------------------------------
# functional graph machinery
# ----------------------------------------------------------------------

class TestFunctionalGraph:
    def test_requires_closure(self):
        with pytest.raises(ValueError):
            FunctionalGraph({Rat(1): Rat(2)})

    def test_cycles_and_types(self):
        g = FunctionalGraph({Rat(0): Rat(1), Rat(1): Rat(2), Rat(2): Rat(1),
                             Rat(5): Rat(0)})
        assert g.cycles() == [(Rat(1), Rat(2))]
        assert g.type_of(Rat(1)) == TypeTag(2, 0)
        assert g.type_of(Rat(0)) == TypeTag(2, 1)
        assert g.type_of(Rat(5)) == TypeTag(2, 2)
        assert str(TypeTag(2, 1)) == "2_1"

    def test_type_of_absent_point(self):
        g = FunctionalGraph({Rat(0): Rat(0)})
        with pytest.raises(KeyError):
            g.type_of(Rat(9))

    def test_components(self):
        g = FunctionalGraph({Rat(0): Rat(0), Rat(1): Rat(0),
                             Rat(5): Rat(6), Rat(6): Rat(5)})
        comps = g.components()
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_canonical_form_isomorphism(self):
        a = FunctionalGraph({Rat(0): Rat(1), Rat(1): Rat(0), Rat(2): Rat(0)})
        b = FunctionalGraph({Rat(7): Rat(9), Rat(9): Rat(7), Rat(8): Rat(9)})
        c = FunctionalGraph({Rat(0): Rat(1), Rat(1): Rat(0), Rat(2): Rat(0),
                             Rat(3): Rat(1)})
        assert a.canonical_form() == b.canonical_form()
        assert a.canonical_form() != c.canonical_form()

    def test_canonical_form_sees_ramification(self):
        succ = {Rat(0): Rat(1), Rat(1): Rat(1)}
        tail = FunctionalGraph(succ, critical=(Rat(0),))
        fixed = FunctionalGraph(succ, critical=(Rat(1),))
        assert tail != fixed
        assert tail.canonical_form() != fixed.canonical_form()
        assert (FunctionalGraph(tail.successor).canonical_form()
                == FunctionalGraph(fixed.successor).canonical_form())
        assert tail.canonical_form() == FunctionalGraph(
            {Rat(5): Rat(7), Rat(7): Rat(7)}, critical=(Rat(5),)).canonical_form()

    def test_labels_only_with_critical_points(self):
        succ = {Rat(0): Rat(1), Rat(1): Rat(1)}
        plain = FunctionalGraph(succ)
        labeled = FunctionalGraph(succ, critical=(Rat(0),))
        assert plain.edges() == [(Rat(0), Rat(1), 1), (Rat(1), Rat(1), 1)]
        assert labeled.edges() == [(Rat(0), Rat(1), 2), (Rat(1), Rat(1), 1)]
        assert plain.edge_lines() == ["0 -> 1", "1 -> 1"]
        assert labeled.edge_lines() == ["0 ->(2) 1", "1 ->(1) 1"]
        assert plain.to_dot("g") == 'digraph g {\n  "0";\n  "1";\n  "0" -> "1";\n  "1" -> "1";\n}'
        assert labeled.to_dot("g") == ('digraph g {\n  "0";\n  "1";\n'
                                       '  "0" -> "1" [label="2"];\n'
                                       '  "1" -> "1" [label="1"];\n}')
        assert plain == FunctionalGraph(dict(succ)) and plain != labeled


def _rotations(cycle):
    return frozenset(cycle[i:] + cycle[:i] for i in range(len(cycle)))


@st.composite
def successor_maps(draw):
    """A random successor map on Rat(0) ... Rat(n - 1), n <= 12."""
    n = draw(st.integers(1, 12))
    images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return {Rat(i): Rat(j) for i, j in enumerate(images)}


class TestStructurePass:
    @settings(max_examples=300, deadline=None)
    @given(successor_maps(), st.data())
    def test_equals_plain_loops(self, succ, data):
        g = FunctionalGraph(succ)
        oracle = {v: naive_cycle_and_depth(succ, v) for v in succ}
        cycles = {_rotations(c) for c, _ in oracle.values()}
        assert len(g.cycles()) == len(cycles)
        assert {_rotations(c) for c in g.cycles()} == cycles
        for v, (cycle, depth) in oracle.items():
            assert g.type_of(v) == TypeTag(len(cycle), depth)
        # components() partitions the vertices as "same cycle" does
        comps = g.components()
        assert len(comps) == len(g.cycles())
        assert sum(len(c) for c in comps) == len(succ)
        assert {frozenset(c.successor) for c in comps} == {
            frozenset(v for v in succ if _rotations(oracle[v][0]) == r) for r in cycles}
        assert all(c.successor == {v: succ[v] for v in c.successor} for c in comps)
        # the canonical form survives a relabelling, with and without a
        # critical set
        perm = data.draw(st.permutations(range(len(succ))), label="relabelling")
        label = {Rat(i): Rat(j) for i, j in enumerate(perm)}
        relabelled = {label[v]: label[w] for v, w in succ.items()}
        crit = data.draw(st.sets(st.sampled_from(list(succ))), label="critical")
        assert g.canonical_form() == FunctionalGraph(relabelled).canonical_form()
        assert (FunctionalGraph(succ, critical=crit).canonical_form()
                == FunctionalGraph(relabelled, critical={label[v] for v in crit})
                .canonical_form())


# ----------------------------------------------------------------------
# the exact walk
# ----------------------------------------------------------------------

def _double_mod_7(z):
    return 2 * z % 7


def _no_step(z):
    raise AssertionError("a start in known takes no step")


class TestOrbit:
    """orbit on z -> 2z mod 7, whose cycle is 1 -> 2 -> 4 -> 1, with the
    residue as its size."""

    @pytest.mark.parametrize("start, known, budget, cutoff, path, end", (
        (1, {}, 3, 10, [1, 2, 4, 1], REPEAT),    # a repeat at the last step
        (1, {}, 2, 10, [1, 2, 4], BUDGET),
        (1, {}, 3, 3, [1, 2, 4], CUTOFF),
        (4, {}, 3, 3, [4, 1, 2, 4], REPEAT),     # the repeat is past the cutoff
        (4, {}, 3, 0, [4, 1], CUTOFF),
        (2, {4: False}, 3, 1, [2, 4], REPEAT),   # known before the cutoff
        (3, {4: True}, 1, 10, [3, 6], BUDGET),
        (3, {5: True}, 5, 10, [3, 6, 5], REPEAT),
        (0, {}, 1, 0, [0, 0], REPEAT),           # a fixed start at the first image
    ), ids=("repeat-at-the-budget", "budget", "cutoff", "repeat-past-the-cutoff",
            "cutoff-at-the-first-image", "known-past-the-cutoff", "budget-of-one",
            "known", "fixed-start"))
    def test_ends(self, start, known, budget, cutoff, path, end):
        assert orbit(_double_mod_7, start, known, budget, int, cutoff) == (path, end)

    def test_start_in_known_takes_no_step(self):
        assert orbit(_no_step, 5, {5: False}, 1, int, 0) == ([5], REPEAT)


# ----------------------------------------------------------------------
# bounded preperiodic search
# ----------------------------------------------------------------------

class TestRationalPreperiodicGraph:
    def test_z2_minus_2(self):
        g = rational_preperiodic_graph(NormalizedQuadMap((1, 0, -2), (0, 0, 1)))
        assert g.successor == {
            INFINITY: INFINITY, Rat(1): Rat(-1), Rat(-1): Rat(-1),
            Rat(0): Rat(-2), Rat(-2): Rat(2), Rat(2): Rat(2)}

    def test_two_point_graph(self):
        g = rational_preperiodic_graph(NormalizedQuadMap.from_str("[0,-2,0]/[2,-4,1]"))
        assert g.successor == {INFINITY: Rat(0), Rat(0): Rat(0)}

    def test_cycle_pair_with_tails(self):
        g = rational_preperiodic_graph(NormalizedQuadMap.from_str("[3,-4,1]/[0,-4,1]"))
        assert g.successor == {
            Rat(1, 2): Rat(1, 4), Rat(1, 4): INFINITY, INFINITY: INFINITY,
            Rat(1, 3): Rat(0), Rat(0): Rat(1), Rat(1): Rat(0)}

    def test_forward_closed_and_cyclic(self):
        for text in ("[1,0,-2]/[0,0,1]", "[0,0,-4]/[9,-12,0]"):
            g = rational_preperiodic_graph(NormalizedQuadMap.from_str(text))
            for v in g.vertices:
                assert g.successor[v] in g
                assert g.type_of(v) is not None

    def test_unresolved_reported(self):
        g = rational_preperiodic_graph(
            NormalizedQuadMap((1, 0, -2), (0, 0, 1)), step_budget=1)
        assert Rat(3) in g.unresolved

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            rational_preperiodic_graph(NormalizedQuadMap.from_sigmas(2, 0))

    def test_step_budget_below_one_rejected(self):
        # a search allowed no step would settle nothing, or with the
        # first-step exit settle candidates it was allowed no step for
        phi = NormalizedQuadMap((1, 0, -2), (0, 0, 1))
        for budget in (0, -1):
            with pytest.raises(ValueError, match="step_budget must be positive"):
                rational_preperiodic_graph(phi, step_budget=budget)

    # below the height bound the cutoff meets searched candidates: the
    # first-step exit must record its image's fate (1/2 would otherwise be
    # walked as a start and found fixed), look the image's fate up (the
    # fixed -2 takes 1/2 along) and test for a repeat (-1/2 is fixed)
    # before it calls a start divergent
    FIRST_STEP_CASES = (
        ((1, 3, 0), (0, 3, 2), 3, 7, 1,
         ["-3 -> 0", "-2/3 -> inf", "0 -> 0", "inf -> inf"]),
        ((2, 1, 4), (-2, -2, -1), 3, 3, 1, ["-2 -> -2", "1/2 -> -2"]),
        ((3, 1, -2), (4, -3, 1), 2, 4, 1, ["-1/2 -> -1/2", "1 -> 1"]),
    )

    @pytest.mark.parametrize("F, G, height_bound, step_budget, size_cutoff, edges",
                             FIRST_STEP_CASES,
                             ids=("image-fate-recorded", "image-fate-looked-up",
                                  "repeat-tested"))
    def test_first_step_exit_below_the_height_bound(self, F, G, height_bound,
                                                    step_budget, size_cutoff, edges):
        graph = rational_preperiodic_graph(NormalizedQuadMap(F, G), height_bound,
                                           step_budget, size_cutoff)
        assert graph.edge_lines() == edges
        succ, unresolved = reference_search(F, G, height_bound, step_budget,
                                            size_cutoff)
        assert {as_fraction(v): as_fraction(w)
                for v, w in graph.successor.items()} == succ
        assert graph.unresolved == () and unresolved == []

    @settings(max_examples=200, deadline=None)
    @given(F=FORM, G=FORM, height_bound=st.integers(1, 8),
           step_budget=st.integers(1, 8),
           size_cutoff=st.one_of(st.integers(1, 60), st.integers(1, 10 ** 5)))
    @example(F=(1, 3, 0), G=(0, 3, 2), height_bound=3, step_budget=7, size_cutoff=1)
    @example(F=(2, 1, 4), G=(-2, -2, -1), height_bound=3, step_budget=3, size_cutoff=1)
    @example(F=(3, 1, -2), G=(4, -3, 1), height_bound=2, step_budget=4, size_cutoff=1)
    def test_equals_fraction_reference(self, F, G, height_bound, step_budget,
                                       size_cutoff):
        assume(form_resultant(F, G) != 0)
        graph = rational_preperiodic_graph(NormalizedQuadMap(F, G), height_bound,
                                           step_budget, size_cutoff)
        succ, unresolved = reference_search(F, G, height_bound, step_budget,
                                            size_cutoff)
        assert {as_fraction(v): as_fraction(w)
                for v, w in graph.successor.items()} == succ
        assert [as_fraction(v) for v in graph.unresolved] == unresolved

    def test_benchmark_height_on_the_ten(self):
        # the benchmark's catalog workload searches to height 120; for the
        # ten maps that finds nothing beyond the default height 16
        counts = (6, 4, 6, 4, 4, 6, 4, 4, 2, 6)
        for (s1, s2), count in zip(TEN_SIGMA_PAIRS, counts):
            phi = NormalizedQuadMap.from_sigmas(s1, s2)
            graph = rational_preperiodic_graph(phi, height_bound=120)
            assert len(graph) == count, (s1, s2)
            assert graph.unresolved == ()
            assert graph == rational_preperiodic_graph(phi)


# ----------------------------------------------------------------------
# twists of z^2
# ----------------------------------------------------------------------

class TestSqTwists:
    def test_map_construction(self):
        assert sq_twist_map(Rat(1, 2)) == NormalizedQuadMap((2, 0, 2), (0, 4, 0))
        for b in (0, INFINITY):
            with pytest.raises(ValueError):
                sq_twist_map(b)
            with pytest.raises(ValueError):
                classify_psi1_twist(b)

    def test_representatives(self):
        assert classify_psi1_twist(Rat(1)).id == "sq-generic"
        assert classify_psi1_twist(Rat(1, 2)).id == "sq-fixed"
        assert classify_psi1_twist(Rat(-3, 2)).id == "sq-2cycle"
        assert classify_psi1_twist(Rat(-1, 2)).id == "sq-type12"

    def test_fixed_class_graph(self):
        cls = classify_psi1_twist(Rat(1, 2))
        assert set(cls.graph.vertices) == {INFINITY, Rat(0), Rat(1), Rat(-1)}

    def test_square_class_arithmetic(self):
        assert classify_psi1_twist(Rat(-6)).id == "sq-2cycle"     # -6b = 36
        assert classify_psi1_twist(Rat(-8)).id == "sq-type12"     # -2b = 16
        assert classify_psi1_twist(Rat(2)).id == "sq-fixed"       # 2b = 4
        assert classify_psi1_twist(Rat(7)).id == "sq-generic"
        # q is beyond Pollard's rho; a square-class test needs no factoring
        q = (10 ** 18 + 3) * (10 ** 18 + 9)
        assert classify_psi1_twist(Rat(q)).id == "sq-generic"
        assert classify_psi1_twist(Rat(2 * q * q)).id == "sq-fixed"
        assert classify_psi1_twist(Rat(-3 * q * q, 2)).id == "sq-2cycle"
        assert classify_psi1_twist(Rat(-8 * q * q, 9)).id == "sq-type12"

    def test_type_tags_in_twist_graphs(self):
        g = classify_psi1_twist(Rat(1)).graph
        assert g.type_of(Rat(0)) == TypeTag(1, 1)
        g2 = classify_psi1_twist(Rat(-1, 2)).graph
        assert g2.type_of(Rat(1)) == TypeTag(1, 2)
        assert g2.type_of(Rat(-1)) == TypeTag(1, 2)

    @given(nonzero_small, st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_invariance_up_to_squares(self, b, pnum, pden):
        scaled = Rat(b.num * pnum * pnum, b.den * pden * pden)
        assert classify_psi1_twist(b).id == classify_psi1_twist(scaled).id

    @given(nonzero_small)
    @settings(max_examples=60, deadline=None)
    def test_no_period_above_two(self, b):
        # rational periodic points of the twists have least period <= 2
        cls = classify_psi1_twist(b)
        assert all(len(c) <= 2 for c in cls.graph.cycles())


# ----------------------------------------------------------------------
# twists of 1/z^2
# ----------------------------------------------------------------------

class TestInvsqTwists:
    def test_input_forms(self):
        assert classify_psi2_map(invsq_twist_from_t(Rat(1))).id == "invsq-2cycle-fixed"
        assert classify_psi2_map(invsq_twist_from_t(Rat(2))).id == "invsq-2cycle"
        assert classify_psi2_map(invsq_twist_from_dk(Rat(2), Rat(1))).id == "invsq-empty"
        assert classify_psi2_map(invsq_twist_from_dk(Rat(2), Rat(0))).id == "invsq-fixed"
        m7 = NormalizedQuadMap.from_str("[0,2,-1]/[1,0,-1]")
        assert classify_psi2_map(m7).id == "invsq-3cycle"

    def test_t_cube_gives_fixed_point_class(self):
        for t, class_id in ((Rat(8), "invsq-2cycle-fixed"),
                            (Rat(27, 64), "invsq-2cycle-fixed"), (Rat(3), "invsq-2cycle")):
            assert classify_psi2_map(invsq_twist_from_t(t)).id == class_id

    def test_parameter_validation(self):
        for t in (0, INFINITY):
            with pytest.raises(ValueError):
                invsq_twist_from_t(t)
        for d, k in ((0, 1), (INFINITY, 1), (2, INFINITY)):
            with pytest.raises(ValueError):
                invsq_twist_from_dk(d, k)
        for d, k in ((4, 2), (Rat(9, 4), Rat(-3, 2))):
            with pytest.raises(ValueError, match="k\\^2 must differ"):
                invsq_twist_from_dk(d, k)

    def test_foreign_map_rejected(self):
        with pytest.raises(ValueError, match="not conjugate"):
            classify_psi2_map(NormalizedQuadMap((1, 0, -2), (0, 0, 1)))

    def test_stunted_search_is_hard_failure(self, monkeypatch):
        # searching only up to height 1 finds the 3-cycle but just one of
        # its three tails, a shape outside the catalog; the reference graphs
        # are searched at the full height before the search is stunted
        invsq_catalog()
        search = preper.rational_preperiodic_graph
        monkeypatch.setattr(preper, "rational_preperiodic_graph",
                            lambda phi: search(phi, height_bound=1))
        m7 = NormalizedQuadMap.from_str("[0,2,-1]/[1,0,-1]")
        with pytest.raises(CatalogMatchError):
            classify_psi2_map(m7)

    def test_catalog_is_complete_and_distinct(self):
        catalog = invsq_catalog()
        assert len(catalog) == 7
        forms = [cls.graph.canonical_form() for cls in catalog]
        assert len(set(forms)) == 7

    def test_no_type_2n_points(self):
        # critical 2-cycle means no rational point ever feeds the 2-cycle
        for cls in invsq_catalog():
            for v in cls.graph.vertices:
                m, n = cls.graph.type_of(v)
                assert not (m == 2 and n >= 1), (cls.id, v)

    def test_tail_counts_match_cycle_counts(self):
        # for m != 2, as many type m_1 points as period-m points
        for cls in invsq_catalog():
            g = cls.graph
            for m in {len(c) for c in g.cycles()}:
                if m == 2:
                    continue
                periodic = sum(1 for v in g.vertices if g.type_of(v) == TypeTag(m, 0))
                tails = sum(1 for v in g.vertices if g.type_of(v) == TypeTag(m, 1))
                assert periodic == tails, (cls.id, m)

    def test_fixed_point_count_never_two(self):
        for cls in invsq_catalog():
            fixed = sum(1 for c in cls.graph.cycles() if len(c) == 1)
            assert fixed in (0, 1, 3), cls.id

    def test_six_point_bound(self):
        for cls in invsq_catalog():
            assert len(cls.graph) <= 6


# ----------------------------------------------------------------------
# power maps on roots of unity
# ----------------------------------------------------------------------

class TestRootOfUnityPoint:
    def test_reduction(self):
        assert RootOfUnityPoint.root(6, 2) == RootOfUnityPoint.root(3, 1)
        assert RootOfUnityPoint.root(4, 0) == RootOfUnityPoint.root(1, 0)
        assert repr(RootOfUnityPoint.root(2, 1)) == "-1"
        assert repr(RootOfUnityPoint.root(1, 0)) == "1"
        assert repr(RootOfUnityPoint.root(8, 3)) == "zeta8^3"

    def test_degree(self):
        assert RootOfUnityPoint.root(7, 1).degree() == 6
        assert RootOfUnityPoint.root(8, 1).degree() == 4
        assert RootOfUnityPoint.zero().degree() == 1


class TestPowerMapCatalogs:
    def test_inverse_square_degree6(self):
        comps = power_map_low_degree_preperiodic(INVERSE_SQUARE, 6)
        sizes = sorted(len(c) for c in comps)
        assert sum(sizes) == 50
        assert sizes == [2, 4, 4, 6, 6, 8, 8, 12]
        shapes = sorted((len(c), len(c.cycles()[0])) for c in comps)
        assert shapes == sorted([(2, 2), (4, 1), (4, 1), (6, 3), (6, 3),
                                 (8, 1), (8, 4), (12, 6)])
        # the 0 <-> infinity two-cycle is its own component
        zero_inf = next(c for c in comps if RootOfUnityPoint.zero() in c)
        assert len(zero_inf) == 2 and RootOfUnityPoint.inf() in zero_inf

    def test_square_degree2(self):
        comps = power_map_low_degree_preperiodic(SQUARE, 2)
        assert sum(len(c) for c in comps) == 10
        one = RootOfUnityPoint.root(1, 0)
        m1 = RootOfUnityPoint.root(2, 1)
        i_pt, mi_pt = RootOfUnityPoint.root(4, 1), RootOfUnityPoint.root(4, 3)
        comp_one = next(c for c in comps if one in c)
        assert comp_one.successor == {one: one, m1: one, i_pt: m1, mi_pt: m1}
        z3, z32 = RootOfUnityPoint.root(3, 1), RootOfUnityPoint.root(3, 2)
        z6, z65 = RootOfUnityPoint.root(6, 1), RootOfUnityPoint.root(6, 5)
        comp_z3 = next(c for c in comps if z3 in c)
        assert comp_z3.successor == {z3: z32, z32: z3, z6: z3, z65: z32}

    def test_square_degree1(self):
        comps = power_map_low_degree_preperiodic(SQUARE, 1)
        all_pts = {v for c in comps for v in c.vertices}
        assert all_pts == {RootOfUnityPoint.zero(), RootOfUnityPoint.inf(),
                           RootOfUnityPoint.root(1, 0), RootOfUnityPoint.root(2, 1)}
        comp_one = next(c for c in comps if RootOfUnityPoint.root(1, 0) in c)
        assert comp_one.successor[RootOfUnityPoint.root(2, 1)] == \
            RootOfUnityPoint.root(1, 0)

    def test_closure_under_the_exponent_map(self):
        for variant in (SQUARE, INVERSE_SQUARE):
            for deg in (1, 2, 4, 6):
                for comp in power_map_low_degree_preperiodic(variant, deg):
                    for v in comp.vertices:
                        assert comp.successor[v] in comp
                        assert v.degree() <= deg

    def test_scan_bound_misses_no_order(self):
        # the catalog scans orders n <= max(6, d^2); phi(n) >= sqrt(n/2) puts
        # every n > 2d^2 above degree d, so only (max(6, d^2), 2d^2] can hide one
        phi = {n: totient(n) for n in range(1, 2 * 24 * 24 + 1)}
        for d in range(1, 25):
            missed = [n for n in range(max(6, d * d) + 1, 2 * d * d + 1) if phi[n] <= d]
            assert not missed, (d, missed)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            power_map_low_degree_preperiodic("cube", 2)
        with pytest.raises(ValueError):
            power_map_low_degree_preperiodic(SQUARE, 0)
