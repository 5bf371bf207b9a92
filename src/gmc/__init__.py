"""Generalized matrix coefficients of unitary representations, numerically.

Distribution vectors are coefficient sequences with growth envelopes, test
functions are band-limited Fourier sums (circle) or finite sums of sheared
bumps (Heisenberg group), and the pairing of two distribution vectors
through a test function realizes a distribution on the group.
"""

from .config import DEFAULT_QUADRATURE, DEFAULT_TOLERANCES, QuadratureSpec, ToleranceTable
from .groups import GroupModel, factorize
from .uea import LieStructure, UEAElement, uea_antipode, uea_conj_transpose, uea_multiply, uea_transpose
from .vectors import (
    CoefficientVector,
    GrowthClass,
    GrowthEnvelope,
    IndexDomain,
    Tail,
    pair,
)

__all__ = [
    "CoefficientVector",
    "DEFAULT_QUADRATURE",
    "DEFAULT_TOLERANCES",
    "GroupModel",
    "GrowthClass",
    "GrowthEnvelope",
    "IndexDomain",
    "LieStructure",
    "QuadratureSpec",
    "Tail",
    "ToleranceTable",
    "UEAElement",
    "factorize",
    "pair",
    "uea_antipode",
    "uea_conj_transpose",
    "uea_multiply",
    "uea_transpose",
]

__version__ = "0.1.0"
