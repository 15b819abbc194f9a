"""quadpcf: search, sieve, and certification of quadratic PCF maps over Q."""

from quadpcf.exact_arith import (
    INFINITY,
    ExtendedRational,
    NegativeDiscriminantError,
    QuadFieldElement,
    Rat,
    enumerate_rationals,
    height,
    quad_roots,
)
from quadpcf.projmap import (
    DegenerateMapError,
    NormalizedQuadMap,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "ExtendedRational",
    "NegativeDiscriminantError",
    "QuadFieldElement",
    "Rat",
    "enumerate_rationals",
    "height",
    "quad_roots",
    "DegenerateMapError",
    "NormalizedQuadMap",
    "__version__",
]
