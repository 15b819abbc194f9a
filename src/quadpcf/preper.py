"""Rational preperiodic structures and the symmetry-locus catalogs.

Bounded search for the rational preperiodic graph of a map, classification
of the twists of z^2 and 1/z^2 into their finitely many preperiodic
structures, and the root-of-unity catalogs of low-degree preperiodic
points for the two power maps via exponent dynamics.

Every such structure is a FunctionalGraph.  Each of its components holds
exactly one cycle, so one cached pass, which places every vertex on the
cycle it falls into at its number of steps to it, gives the cycles, the
types m_n, the components and the canonical form.

The eleven structure classes of the twists are one table, class id ->
(description, representative map), and one cached builder searches each
representative's graph once; classify_psi1_twist(b), classify_psi2_map(phi)
and invsq_catalog() all read it.  A root-of-unity point is the tuple
(kind, order, exp), which gives its equality, hash and order.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd, isqrt
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Tuple

from quadpcf.exact_arith import (
    ExtendedRational,
    Rat,
    RationalLike,
    enumerate_pairs,
    point_sort_key,
)
from quadpcf.projmap import NormalizedQuadMap


def totient(n: int) -> int:
    """Euler's phi, by counting; the orders here are small."""
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


class CatalogMatchError(RuntimeError):
    """A computed structure matches no catalog class; this would falsify
    the classification and is treated as a hard failure."""


class TypeTag(NamedTuple):
    """A point entering an m-cycle after exactly n steps has type (m, n)."""

    m: int
    n: int

    def __str__(self):
        return f"{self.m}_{self.n}"


# ----------------------------------------------------------------------
# functional graphs
# ----------------------------------------------------------------------

def vertex_sort_key(v):
    return v if isinstance(v, RootOfUnityPoint) else point_sort_key(v)


class FunctionalGraph:
    """A finite set with one successor per element, closed under the map.

    A critical portrait is such a graph that also carries its critical
    points: the edges leaving them have ramification 2 and every other
    edge 1, and its edge lines and DOT edges show the labels.  Two graphs
    are equal when their successors and their sets of critical points are.
    """

    def __init__(self, successor: Dict[Hashable, Hashable],
                 unresolved: Tuple = (), critical: Iterable = ()):
        for v, w in successor.items():
            if w not in successor:
                raise ValueError(f"graph not closed: {v} -> {w} leaves the vertex set")
        self.successor = dict(successor)
        self.unresolved = tuple(unresolved)
        self.critical = frozenset(critical)

    # -- basic views -------------------------------------------------------

    @property
    def vertices(self) -> Tuple:
        return tuple(sorted(self.successor, key=vertex_sort_key))

    def __len__(self):
        return len(self.successor)

    def __contains__(self, v):
        return v in self.successor

    def __eq__(self, other):
        if not isinstance(other, FunctionalGraph):
            return NotImplemented
        return self.successor == other.successor and self.critical == other.critical

    def ramification(self, v) -> int:
        return 2 if v in self.critical else 1

    def edges(self) -> List[Tuple]:
        """(source, target, ramification) triples, by source."""
        return [(p, q, self.ramification(p)) for p, q in
                sorted(self.successor.items(), key=lambda kv: vertex_sort_key(kv[0]))]

    def edge_lines(self) -> List[str]:
        if self.critical:
            return [f"{p} ->({r}) {q}" for p, q, r in self.edges()]
        return [f"{p} -> {q}" for p, q, _ in self.edges()]

    def to_dot(self, name: str) -> str:
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for p, q, r in self.edges():
            label = f' [label="{r}"]' if self.critical else ""
            lines.append(f'  "{p}" -> "{q}"{label};')
        lines.append("}")
        return "\n".join(lines)

    # -- structure ---------------------------------------------------------

    @cached_property
    def _structure(self) -> Tuple[List[Tuple], Dict[Hashable, Tuple[Tuple, int]]]:
        """(cycles, place) from one pass: each component holds one cycle, and
        place maps every vertex to the cycle it falls into and its number of
        steps to that cycle.  The pass walks from each vertex in vertices
        order until it meets a placed vertex or closes a new cycle, which
        starts at its least vertex."""
        cycles: List[Tuple] = []
        place: Dict[Hashable, Tuple[Tuple, int]] = {}
        for start in self.vertices:
            path = []
            pos = {}
            cur = start
            while cur not in place and cur not in pos:
                pos[cur] = len(path)
                path.append(cur)
                cur = self.successor[cur]
            if cur in pos:
                cyc = path[pos[cur]:]
                del path[pos[cur]:]
                k = min(range(len(cyc)), key=lambda i: vertex_sort_key(cyc[i]))
                cyc = tuple(cyc[k:] + cyc[:k])
                cycles.append(cyc)
                for v in cyc:
                    place[v] = (cyc, 0)
            cyc, depth = place[cur]
            for v in reversed(path):
                depth += 1
                place[v] = (cyc, depth)
        cycles.sort(key=lambda c: (len(c), [vertex_sort_key(v) for v in c]))
        return cycles, place

    def cycles(self) -> List[Tuple]:
        """All cycles, each as a successor-ordered tuple starting at its
        least vertex."""
        return self._structure[0]

    def type_of(self, point) -> TypeTag:
        cycle, depth = self._structure[1][point]
        return TypeTag(len(cycle), depth)

    def components(self) -> List["FunctionalGraph"]:
        """One graph per cycle, of the vertices falling into it, by size and
        canonical form; the sort is stable over successor order."""
        place = self._structure[1]
        groups: Dict[Tuple, Dict] = {}
        for v, w in self.successor.items():
            groups.setdefault(place[v][0], {})[v] = w
        comps = [FunctionalGraph(g) for g in groups.values()]
        comps.sort(key=lambda g: (len(g), g.canonical_form()))
        return comps

    def canonical_form(self):
        """Isomorphism invariant that respects ramification: per component,
        the cycle length together with the minimal rotation of the tuple of
        canonical rooted-tree encodings hanging off the cycle, where a
        vertex's encoding is its ramification and its children's sorted
        encodings.  The tree vertices are those at depth > 0."""
        place = self._structure[1]
        children: Dict[Hashable, List] = {v: [] for v in self.successor}
        for v, w in self.successor.items():
            if place[v][1]:
                children[w].append(v)

        def tree_enc(v):
            return self.ramification(v), tuple(sorted(tree_enc(ch) for ch in children[v]))

        comps = []
        for cycle in self.cycles():
            encs = [tree_enc(v) for v in cycle]
            rots = [tuple(encs[i:] + encs[:i]) for i in range(len(encs))]
            comps.append((len(cycle), min(rots)))
        return tuple(sorted(comps))


# ----------------------------------------------------------------------
# the exact walk
# ----------------------------------------------------------------------

REPEAT, CUTOFF, BUDGET = "repeat", "cutoff", "budget"


def orbit(step: Callable, start, known, budget: int, size: Callable,
          cutoff: int) -> Tuple[List, str]:
    """Walk the orbit of start under step; (path, end).

    The path runs from start to the last image computed.  Each image is
    tested in one order: it is a REPEAT when it is in known or on the path,
    then a CUTOFF when its size is past cutoff, and then the budget-th image
    ends the walk with BUDGET (budget >= 1).  A start in known is a REPEAT
    after 0 steps.  The path's list and set are built only after the first
    image passes its tests: most candidates of the preperiodic search end
    at the first image, with one step and a two-point path.
    """
    if start in known:
        return [start], REPEAT
    nxt = step(start)
    if nxt in known or nxt == start:
        return [start, nxt], REPEAT
    if size(nxt) > cutoff:
        return [start, nxt], CUTOFF
    path = [start, nxt]
    seen = {start, nxt}
    for _ in range(budget - 1):
        nxt = step(nxt)
        path.append(nxt)
        if nxt in known or nxt in seen:
            return path, REPEAT
        if size(nxt) > cutoff:
            return path, CUTOFF
        seen.add(nxt)
    return path, BUDGET


# ----------------------------------------------------------------------
# bounded rational preperiodic search
# ----------------------------------------------------------------------

DEFAULT_HEIGHT_BOUND = 16
DEFAULT_STEP_BUDGET = 32
DEFAULT_SIZE_CUTOFF = 10 ** 4


def _pair_size(pt: Tuple[int, int]) -> int:
    return max(abs(pt[0]), pt[1])


def rational_preperiodic_graph(phi: NormalizedQuadMap,
                               height_bound: int = DEFAULT_HEIGHT_BOUND,
                               step_budget: int = DEFAULT_STEP_BUDGET,
                               size_cutoff: int = DEFAULT_SIZE_CUTOFF) -> FunctionalGraph:
    """Graph induced on the rational preperiodic points found by bounded search.

    Every rational of height <= height_bound (plus infinity) is walked by
    orbit for up to step_budget steps: an exact repeat classifies the whole
    trajectory preperiodic (or shares the fate of the point it meets),
    escaping past size_cutoff classifies it divergent.  The returned graph
    is forward-closed; candidates the budget could not resolve are reported
    on the .unresolved attribute.

    The search runs on reduced integer pairs (x, y), infinity being (1, 0),
    through NormalizedQuadMap.step; the size of a pair is max(|x|, y).
    """
    if step_budget < 1:
        raise ValueError("step_budget must be positive")
    if phi.resultant() == 0:
        raise ValueError("degenerate map (resultant 0)")
    step = phi.step
    fate: Dict[Tuple[int, int], bool] = {}
    succ: Dict[Tuple[int, int], Tuple[int, int]] = {}
    unresolved: List[Tuple[int, int]] = []
    for start in [(1, 0), *enumerate_pairs(height_bound)]:
        path, end = orbit(step, start, fate, step_budget, _pair_size, size_cutoff)
        if end is BUDGET:
            unresolved.append(start)
            continue
        # a repeat meets the path itself, so the path is preperiodic, or
        # its last point has a fate, which the whole path shares
        verdict = end is REPEAT and fate.get(path[-1], True)
        if verdict:
            for a, b in zip(path, path[1:]):
                succ[a] = b
        for v in path:
            fate[v] = verdict
    point = ExtendedRational.from_pair
    return FunctionalGraph({point(*v): point(*w) for v, w in succ.items()},
                           unresolved=tuple(point(*v) for v in unresolved))


# ----------------------------------------------------------------------
# the symmetry-locus catalogs: twists of z^2 and 1/z^2
# ----------------------------------------------------------------------

class StructureClass(NamedTuple):
    """One catalog entry: a named preperiodic structure with its reference
    graph (computed from the class representative)."""

    id: str
    description: str
    representative: NormalizedQuadMap
    graph: FunctionalGraph


def _parameter(x: RationalLike, name: str, nonzero: bool = True) -> ExtendedRational:
    """x as a finite rational, nonzero unless nonzero=False."""
    x = Rat(x)
    if x.is_infinity():
        raise ValueError(f"{name} must be finite")
    if nonzero and x.is_zero():
        raise ValueError(f"{name} must be nonzero")
    return x


def sq_twist_map(b: RationalLike) -> NormalizedQuadMap:
    """The twist z/2 + b/z of the squaring map, as (z^2 + 2b) / (2z)."""
    b = _parameter(b, "b")
    return NormalizedQuadMap((b.den, 0, 2 * b.num), (0, 2 * b.den, 0))


def invsq_twist_from_t(t: RationalLike) -> NormalizedQuadMap:
    """The twist t/z^2 (these are exactly the twists with a rational 2-cycle)."""
    t = _parameter(t, "t")
    return NormalizedQuadMap((0, 0, t.num), (t.den, 0, 0))


def invsq_twist_from_dk(d: RationalLike, k: RationalLike) -> NormalizedQuadMap:
    """Normal-form twist (k z^2 - 2 d z + d k) / (z^2 - 2 k z + d), times
    the common denominator of d and k."""
    d = _parameter(d, "d")
    k = _parameter(k, "k", nonzero=False)
    if k.num * k.num * d.den == d.num * k.den * k.den:
        raise ValueError("k^2 must differ from d")
    return NormalizedQuadMap((k.num * d.den, -2 * d.num * k.den, d.num * k.num),
                             (k.den * d.den, -2 * k.num * d.den, d.num * k.den))


# class id -> (description, representative): the four twists of z^2, then
# the seven of 1/z^2, each in the catalog's order
_CLASSES: Dict[str, Tuple[str, NormalizedQuadMap]] = {
    "sq-generic": ("no finite rational preperiodic points beyond 0 -> inf",
                   sq_twist_map(1)),
    "sq-fixed": ("two finite rational fixed points", sq_twist_map(Rat(1, 2))),
    "sq-2cycle": ("a rational 2-cycle with one tail point each", sq_twist_map(Rat(-3, 2))),
    "sq-type12": ("two rational points falling onto the tail of infinity",
                  sq_twist_map(Rat(-1, 2))),
    "invsq-2cycle-fixed": ("rational 2-cycle plus a fixed point with its tail",
                           invsq_twist_from_t(1)),
    "invsq-2cycle": ("rational 2-cycle and nothing else", invsq_twist_from_t(2)),
    "invsq-empty": ("no rational preperiodic points", invsq_twist_from_dk(2, 1)),
    "invsq-fixed": ("one rational fixed point with its tail", invsq_twist_from_dk(2, 0)),
    "invsq-fixed-type12": ("fixed point, tail point, and two second-level tail points",
                           NormalizedQuadMap((-1, 2, 1), (1, 2, -1))),
    "invsq-three-fixed": ("three rational fixed points, each with one tail point",
                          NormalizedQuadMap((-1, 2, 0), (0, 2, -1))),
    "invsq-3cycle": ("rational 3-cycle with one tail point each",
                     NormalizedQuadMap((0, 2, -1), (1, 0, -1))),
}


@cache
def _structure_class(class_id: str) -> StructureClass:
    """The catalog class class_id, its graph searched from its representative."""
    desc, rep = _CLASSES[class_id]
    return StructureClass(class_id, desc, rep, rational_preperiodic_graph(rep))


def _is_square(n: int) -> bool:
    return n > 0 and isqrt(n) ** 2 == n


def classify_psi1_twist(b: RationalLike) -> StructureClass:
    """Catalog class of the twist z/2 + b/z, decided by square-class tests.

    2b a square puts b in the fixed-point class, -6b in the 2-cycle class,
    -2b in the tail class; otherwise the structure is the generic one.  For
    b = n / d in lowest terms, m * b is a rational square exactly when the
    integer m * n * d is a square, so no factorization is needed.  The
    three conditions are mutually exclusive (their pairwise ratios -3, -1,
    3 are non-squares), which is asserted at runtime.
    """
    b = _parameter(b, "b")
    nd = b.num * b.den
    hits = [cid for cid, mult in (
        ("sq-fixed", 2), ("sq-2cycle", -6), ("sq-type12", -2),
    ) if _is_square(mult * nd)]
    assert len(hits) <= 1, f"square classes overlap for b={b}: {hits}"
    return _structure_class(hits[0] if hits else "sq-generic")


def invsq_catalog() -> Tuple[StructureClass, ...]:
    """The seven classes of the twists of 1/z^2, in the catalog's order."""
    return tuple(_structure_class(cid) for cid in _CLASSES if cid.startswith("invsq-"))


_INVSQ_SIGMAS = (Rat(-6), Rat(12))


def classify_psi2_map(phi: NormalizedQuadMap) -> StructureClass:
    """Catalog class of a map conjugate to 1/z^2.

    The map's preperiodic graph is matched against the seven reference
    structures up to functional-graph isomorphism; failure to match any is
    a hard error since the classification proves the list complete.
    """
    if phi.sigma_invariants() != _INVSQ_SIGMAS:
        raise ValueError(
            f"not conjugate to 1/z^2 "
            f"(sigma invariants {phi.sigma_invariants()} != {_INVSQ_SIGMAS})")
    form = rational_preperiodic_graph(phi).canonical_form()
    for cls in invsq_catalog():
        if cls.graph.canonical_form() == form:
            return cls
    raise CatalogMatchError(
        f"preperiodic structure of {phi} matches no catalog class; "
        f"canonical form {form}")


# ----------------------------------------------------------------------
# power maps on roots of unity
# ----------------------------------------------------------------------

SQUARE = "square"
INVERSE_SQUARE = "inverse_square"
_ZERO, _INF, _ROOT = "zero", "inf", "root"


class RootOfUnityPoint(NamedTuple):
    """0, infinity, or the root of unity zeta_order^exp with gcd(exp, order)=1.

    Points compare, hash and sort as the tuples (kind, order, exp).  root()
    reduces exp / order, so the stored order is the exact multiplicative
    order and the algebraic degree is totient(order).
    """

    kind: str
    order: int = 0
    exp: int = 0

    @staticmethod
    def zero() -> "RootOfUnityPoint":
        return RootOfUnityPoint(_ZERO)

    @staticmethod
    def inf() -> "RootOfUnityPoint":
        return RootOfUnityPoint(_INF)

    @staticmethod
    def root(order: int, exp: int) -> "RootOfUnityPoint":
        if order < 1:
            raise ValueError("order must be positive")
        g = gcd(exp, order)
        return RootOfUnityPoint(_ROOT, order=order // g, exp=exp % order // g)

    def degree(self) -> int:
        return totient(self.order) if self.kind == _ROOT else 1

    def __repr__(self):
        if self.kind != _ROOT:
            return "0" if self.kind == _ZERO else "inf"
        if self.order <= 2:
            return "1" if self.order == 1 else "-1"
        return f"zeta{self.order}^{self.exp}"


def _power_step(pt: RootOfUnityPoint, variant: str) -> RootOfUnityPoint:
    if pt.kind != _ROOT:
        return pt if variant == SQUARE else RootOfUnityPoint(_ZERO if pt.kind == _INF else _INF)
    mult = 2 if variant == SQUARE else -2
    return RootOfUnityPoint.root(pt.order, mult * pt.exp)


def power_map_low_degree_preperiodic(variant: str, max_degree: int) -> List[FunctionalGraph]:
    """Components of the preperiodic set of degree <= max_degree for z^2 or 1/z^2.

    Finite nonzero preperiodic points of the power maps are roots of unity;
    the dynamics is the exponent map j -> 2j (or -2j) mod N.  The point set
    is all primitive N-th roots with totient(N) <= max_degree, plus 0 and
    infinity, and it is forward-closed since totient respects divisors.
    """
    if variant not in (SQUARE, INVERSE_SQUARE):
        raise ValueError(f"variant must be {SQUARE!r} or {INVERSE_SQUARE!r}")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    points: List[RootOfUnityPoint] = [RootOfUnityPoint.zero(), RootOfUnityPoint.inf()]
    scan_bound = max(6, max_degree * max_degree) + 1
    for order in range(1, scan_bound):
        if totient(order) <= max_degree:
            for j in range(order):
                if gcd(j, order) == 1:
                    points.append(RootOfUnityPoint.root(order, j))
    succ = {pt: _power_step(pt, variant) for pt in points}
    return FunctionalGraph(succ).components()
