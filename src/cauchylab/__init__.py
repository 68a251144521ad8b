"""Numerical laboratory for the maximal Cauchy integral on chord-arc curves."""

import os

# Before numpy loads OpenBLAS: its idle worker threads spin between the
# evaluator's small per-tile products and add no speed; the second core goes
# to the sweeps' second peer worker instead, and each product runs on the
# worker that calls it.  A value set by the user is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import curves, curvespec, geometry, harness, operators
from .errors import (
    BranchAmbiguityError,
    CauchyLabError,
    ConstructionError,
    DegenerateGeometryError,
    DomainError,
    NumericalGateError,
    ResolutionError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "curves",
    "curvespec",
    "geometry",
    "harness",
    "operators",
    "BranchAmbiguityError",
    "CauchyLabError",
    "ConstructionError",
    "DegenerateGeometryError",
    "DomainError",
    "NumericalGateError",
    "ResolutionError",
    "ValidationError",
    "__version__",
]
