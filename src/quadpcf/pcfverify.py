"""Exact certification of post-critical finiteness.

Walks both critical orbits exactly, with preper.orbit, the one walk the
preperiodic search takes too, until each revisits a previously seen value,
then returns the critical portrait: the preper.FunctionalGraph of the
union of the orbits that carries the critical points, so the edges
leaving them have ramification index 2.  The critical points are rational
or a conjugate pair in one quadratic field Q(sqrt(D)), real or imaginary;
the complex ones take the same path as the real ones.  Every step is one
of projmap's integer steps, and a point's size and order are read off its
integers.  Each image is tested for a repeat before the size cutoff, so an
exact repeat always closes an orbit.  Orbits that exceed the iteration
budget or the size cutoff come back as UNDETERMINED with diagnostics, never
as a non-PCF verdict (refutation is the sieve's job).
"""

from __future__ import annotations

from math import gcd
from typing import Dict, NamedTuple, Optional

from quadpcf.exact_arith import ExtendedRational, PointValue, height
from quadpcf.preper import BUDGET, CUTOFF, FunctionalGraph, orbit
from quadpcf.projmap import NormalizedQuadMap

DEFAULT_BUDGET = 64
DEFAULT_SIZE_CUTOFF = 10 ** 6


def point_size(pt: PointValue) -> int:
    """Crude arithmetic size: exact_arith.height for rationals (1 at
    infinity), and for (a + b*sqrt(D)) / c the larger height of a/c and b/c
    in lowest terms."""
    if isinstance(pt, ExtendedRational):
        return height(pt)
    a, b, c, _ = pt
    return max(max(abs(a), c) // gcd(a, c), max(abs(b), c) // gcd(b, c))


class PcfStatus(NamedTuple):
    verified: bool
    portrait: Optional[FunctionalGraph]
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
    inside a single Q(sqrt(D)).  Each orbit is one preper.orbit walk: a
    repeat against any previously seen exact value closes it, and is tested
    before the size cutoff; both orbits closing certifies the map, and the
    portrait is the preper.FunctionalGraph of the orbits with the critical
    points.  A critical point already on the other orbit costs no step.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if phi.resultant() == 0:
        raise ValueError("degenerate map (resultant 0) cannot be verified")
    crit_points = phi.critical_point_data().points
    successor: Dict[PointValue, PointValue] = {}
    iterations = 0
    max_size = 1
    for gamma in crit_points:
        path, end = orbit(phi.apply, gamma, successor, budget, point_size, size_cutoff)
        iterations += len(path) - 1
        max_size = max(max_size, *map(point_size, path))
        if end is BUDGET:
            return PcfStatus(False, None, iterations, max_size,
                             reason=f"budget {budget} exhausted before a repeat")
        if end is CUTOFF:
            return PcfStatus(False, None, iterations, max_size,
                             reason=f"orbit size {point_size(path[-1])} exceeded "
                                    f"cutoff {size_cutoff}")
        successor.update(zip(path, path[1:]))
    portrait = FunctionalGraph(successor, critical=crit_points)
    return PcfStatus(True, portrait, iterations, max_size)
