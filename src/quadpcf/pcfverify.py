"""Exact certification of post-critical finiteness.

Iterates both critical orbits with exact arithmetic until each revisits a
previously seen value, then assembles the critical portrait: the functional
graph of the union of the orbits, with ramification index 2 on the edges
leaving the critical points.  Orbits that exceed the iteration budget or
the size cutoff come back as UNDETERMINED with diagnostics, never as a
non-PCF verdict (refutation is the sieve's job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from quadpcf.exact_arith import ExtendedRational, PointValue, point_sort_key
from quadpcf.projmap import NormalizedQuadMap

DEFAULT_BUDGET = 64
DEFAULT_SIZE_CUTOFF = 10 ** 6


def point_size(pt: PointValue) -> int:
    """Crude arithmetic size: the height for rationals, componentwise max
    for quadratic elements, 1 at infinity."""
    if isinstance(pt, ExtendedRational):
        if pt.is_infinity():
            return 1
        return max(abs(pt.num), pt.den)
    return max(point_size(pt.a), point_size(pt.b))


@dataclass(frozen=True)
class Portrait:
    """Directed graph of the critical orbits with ramification labels.

    Every vertex has out-degree one; edges labeled 2 start exactly at the
    two critical points.
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


@dataclass(frozen=True)
class PcfStatus:
    verified: bool
    portrait: Optional[Portrait]
    iterations_used: int
    max_size_seen: int
    reason: str = ""

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
    crit_points, _rational = phi.critical_points()
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

