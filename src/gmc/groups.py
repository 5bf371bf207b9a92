"""Concrete-group bundles: group law, Lie data, Haar quadrature, modular data.

A GroupModel packages everything the model-generic layers need: the group
operations, the Lie structure feeding the enveloping algebra, a Haar
quadrature factory, the modular function, and hooks into the model's
smoothing, pairing and factorization routines. The group and algebra actions
are module functions of each model, called directly. The two shipped models
(torus, Heisenberg) are built in their own modules.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .errors import UnsupportedOperation
from .uea import LieStructure, UEAElement
from .vectors import CoefficientVector, GrowthClass


@dataclass(frozen=True)
class GroupModel:
    name: str
    dim: int
    structure: LieStructure
    identity: Any
    multiply: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]
    exp: Callable[[np.ndarray], Any]
    haar: Callable[..., tuple[np.ndarray, np.ndarray]]
    modular_function: Callable[[Any], float]
    # model hooks consumed by the generic layers (mollifier, functionals)
    smooth_by: Callable[..., CoefficientVector] = field(default=None, repr=False)
    gmc_eval: Callable[..., complex] = field(default=None, repr=False)
    pointwise_coefficient: Callable[..., Callable[[Any], complex]] = field(
        default=None, repr=False
    )
    factorization: Optional[Callable[[CoefficientVector], tuple[UEAElement, CoefficientVector]]] = field(
        default=None, repr=False
    )
    distance: Callable[[Any, Any], float] = field(default=None, repr=False)

    def element_distance(self, a, b) -> float:
        if self.distance is not None:
            return self.distance(a, b)
        return _element_distance(a, b)

    def random_elements(self, rng: np.random.Generator, count: int, scale: float = 1.0):
        return [self.exp(scale * rng.uniform(-1.0, 1.0, size=self.dim)) for _ in range(count)]


def factorize(phi: CoefficientVector, model: GroupModel) -> tuple[UEAElement, CoefficientVector]:
    """Write a distribution vector as (D, u) with u square-summable.

    Square-summable or rapid-decay input factors trivially through the
    identity element; polynomial growth defers to the model's strategy.
    """
    if phi.growth in (GrowthClass.RAPID_DECAY, GrowthClass.SQUARE_SUMMABLE):
        return UEAElement.one(model.structure), phi
    if model.factorization is None:
        raise UnsupportedOperation(f"model {model.name!r} provides no factorization strategy")
    return model.factorization(phi)


def associativity_defect(model: GroupModel, rng: np.random.Generator, trials: int = 32) -> float:
    """Max coordinate mismatch of (gh)k vs g(hk) over random triples."""
    worst = 0.0
    for _ in range(trials):
        g, h, k = model.random_elements(rng, 3)
        a = model.multiply(model.multiply(g, h), k)
        b = model.multiply(g, model.multiply(h, k))
        worst = max(worst, model.element_distance(a, b))
    return worst


def inverse_defect(model: GroupModel, rng: np.random.Generator, trials: int = 32) -> float:
    worst = 0.0
    for _ in range(trials):
        (g,) = model.random_elements(rng, 1)
        worst = max(
            worst,
            model.element_distance(model.multiply(g, model.inverse(g)), model.identity),
            model.element_distance(model.multiply(model.inverse(g), g), model.identity),
        )
    return worst


def _element_distance(a, b) -> float:
    av = np.atleast_1d(np.asarray(a, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    return float(np.max(np.abs(av - bv)))
