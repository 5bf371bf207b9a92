"""Concrete-group bundles: what the model-generic layers read of a model.

A GroupModel packages the Lie structure feeding the enveloping algebra, the
group inverse, and hooks into the model's smoothing, pairing, pointwise and
factorization routines. The model-generic layers (mollify, functionals,
factorize) read nothing else and pass the hooks no options: a model's own
settings, such as the Heisenberg truncation (heisenberg.with_quadrature), live
in its hooks. The group law and the group and algebra actions are module
functions of each model, called directly. The two shipped models (torus,
Heisenberg) are built in their own modules.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import UnsupportedOperation
from .uea import LieStructure, UEAElement
from .vectors import CoefficientVector, GrowthClass


@dataclass(frozen=True)
class GroupModel:
    name: str
    structure: LieStructure
    inverse: Callable[[Any], Any]
    # model hooks consumed by the generic layers (mollifier, functionals)
    smooth_by: Callable[[Any, CoefficientVector], CoefficientVector] = field(default=None, repr=False)
    gmc_eval: Callable[[CoefficientVector, CoefficientVector, Any], complex] = field(default=None, repr=False)
    pointwise_coefficient: Callable[..., Callable[[Any], complex]] = field(
        default=None, repr=False
    )
    factorization: Optional[Callable[[CoefficientVector], tuple[UEAElement, CoefficientVector]]] = field(
        default=None, repr=False
    )


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
