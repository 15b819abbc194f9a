"""Exact certification of post-critical finiteness.

Iterates both critical orbits exactly until each revisits a previously
seen value, then assembles the critical portrait: the functional graph of
the union of the orbits, with ramification index 2 on the edges leaving
the critical points.  The critical points are rational or a conjugate pair
in one quadratic field Q(sqrt(D)), real or imaginary; the complex ones take
the same path as the real ones.  Every step is one of projmap's integer
steps, and a point's size and order are read off its integers.  Orbits
that exceed the iteration budget or the size cutoff, and irrational
critical points whose field cannot be found because the discriminant
defeats factoring, come back as UNDETERMINED with diagnostics, never as a
non-PCF verdict (refutation is the sieve's job).
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, NamedTuple, Optional, Tuple

from quadpcf.exact_arith import (
    ExtendedRational,
    FactorizationError,
    PointValue,
    point_sort_key,
)
from quadpcf.projmap import NormalizedQuadMap

DEFAULT_BUDGET = 64
DEFAULT_SIZE_CUTOFF = 10 ** 6


def point_size(pt: PointValue) -> int:
    """Crude arithmetic size: the height for rationals, 1 at infinity, and
    for (a + b*sqrt(D)) / c the larger height of a/c and b/c in lowest
    terms."""
    if isinstance(pt, ExtendedRational):
        if pt.is_infinity():
            return 1
        return max(abs(pt.num), pt.den)
    a, b, c, _ = pt
    return max(max(abs(a), c) // gcd(a, c), max(abs(b), c) // gcd(b, c))


class Portrait(NamedTuple):
    """Directed graph of the critical orbits with ramification labels.

    Every vertex has out-degree one; edges labeled 2 start exactly at the
    two critical points.  Two portraits are equal when their edges and
    their sets of critical points are.
    """

    successor: Dict[PointValue, PointValue]
    critical: Tuple[PointValue, ...]

    @property
    def vertices(self) -> Tuple[PointValue, ...]:
        return tuple(sorted(self.successor, key=point_sort_key))

    def ramification(self, pt: PointValue) -> int:
        return 2 if pt in set(self.critical) else 1

    def edges(self) -> List[Tuple[PointValue, PointValue, int]]:
        return [(p, q, self.ramification(p))
                for p, q in sorted(self.successor.items(),
                                   key=lambda kv: point_sort_key(kv[0]))]

    def text_lines(self) -> List[str]:
        return [f"{p} ->({r}) {q}" for p, q, r in self.edges()]

    def to_dot(self, name: str = "portrait") -> str:
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for p, q, r in self.edges():
            lines.append(f'  "{p}" -> "{q}" [label="{r}"];')
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, Portrait):
            return NotImplemented
        return (self.successor == other.successor
                and set(self.critical) == set(other.critical))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq


class PcfStatus(NamedTuple):
    verified: bool
    portrait: Optional[Portrait]
    iterations_used: int
    max_size_seen: int
    reason: str = ""

    # a tuple of five fields is always true; a status is true when verified
    def __bool__(self):
        return self.verified


def critical_orbit_portrait(phi: NormalizedQuadMap, budget: int = DEFAULT_BUDGET,
                            size_cutoff: int = DEFAULT_SIZE_CUTOFF) -> PcfStatus:
    """Iterate both critical orbits exactly; VERIFIED_PCF or UNDETERMINED.

    Conjugate critical points generate conjugate orbits, so all values stay
    inside a single Q(sqrt(D)).  A repeat against any previously seen exact
    value closes an orbit; both orbits closing certifies the map.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if phi.resultant() == 0:
        raise ValueError("degenerate map (resultant 0) cannot be verified")
    try:
        crit_points = phi.critical_point_data().points
    except FactorizationError as e:
        # irrational critical points live in Q(sqrt(D)), D the squarefree
        # part of the discriminant; without D there is nothing to iterate
        return PcfStatus(False, None, 0, 1,
                         reason=f"cannot factor the wronskian discriminant ({e})")
    successor: Dict[PointValue, PointValue] = {}
    iterations = 0
    max_size = 1
    for gamma in crit_points:
        cur = gamma
        steps = 0
        max_size = max(max_size, point_size(cur))
        while cur not in successor:
            if steps >= budget:
                return PcfStatus(False, None, iterations, max_size,
                                 reason=f"budget {budget} exhausted before a repeat")
            nxt = phi.apply(cur)
            steps += 1
            iterations += 1
            size = point_size(nxt)
            max_size = max(max_size, size)
            if size > size_cutoff:
                return PcfStatus(False, None, iterations, max_size,
                                 reason=f"orbit size {size} exceeded cutoff {size_cutoff}")
            successor[cur] = nxt
            cur = nxt
    portrait = Portrait(successor=successor, critical=tuple(crit_points))
    return PcfStatus(True, portrait, iterations, max_size)

