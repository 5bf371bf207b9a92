"""Concrete-group bundles: what the model-generic layers read of a model.

A GroupModel packages the Lie structure feeding the enveloping algebra, the
group inverse, hooks into the model's smoothing, pairing and pointwise
routines, and the model's Laplacian as data. The model-generic layers
(mollify, functionals, factorize) read nothing else and pass the hooks no
options: a model's own settings, such as the Heisenberg truncation
(heisenberg.with_quadrature), live in its hooks. The group law and the group
and algebra actions are module functions of each model, called directly. The
two shipped models (torus, Heisenberg) are built in their own modules; the
structure theorem's factorization phi = pi(D) u reads only their Laplacians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import PreconditionError, UnsupportedOperation
from .uea import LieStructure, UEAElement
from .vectors import CoefficientVector, GrowthClass, GrowthEnvelope, IndexDomain


@dataclass(frozen=True)
class Laplacian:
    """An algebra element acting on the k-th basis vector of the domain by eigenvalue(k)
    (index arrays to float arrays), with eigenvalue(k) >= (1+|k|)^order / constant."""

    element: UEAElement
    eigenvalue: Callable[[Any], Any]
    order: float
    constant: float
    domain: IndexDomain


@dataclass(frozen=True)
class GroupModel:
    name: str
    structure: LieStructure
    inverse: Callable[[Any], Any]
    # model hooks consumed by the generic layers (mollifier, functionals)
    smooth_by: Callable[[Any, CoefficientVector], CoefficientVector] = field(default=None, repr=False)
    gmc_eval: Callable[[CoefficientVector, CoefficientVector, Any], complex] = field(default=None, repr=False)
    pointwise_coefficient: Callable[..., Callable[[Any], complex]] = field(default=None, repr=False)
    laplacian: Optional[Laplacian] = field(default=None, repr=False)


def factorize(phi: CoefficientVector, model: GroupModel) -> tuple[UEAElement, CoefficientVector]:
    """Write a distribution vector as (D, u) with u square-summable.

    Square-summable or rapid-decay input factors trivially through the identity
    element. Polynomial growth of degree r takes D = L^m, for the model's Laplacian
    L of order s, and u_k = phi_k / lambda(k)^m, so pi(D) u = phi termwise; the
    least m with s m > r + 1/2 puts u's envelope (C c^m, r - s m) below -1/2.
    """
    if phi.growth in (GrowthClass.RAPID_DECAY, GrowthClass.SQUARE_SUMMABLE):
        return UEAElement.one(model.structure), phi
    lap = model.laplacian
    if lap is None:
        raise UnsupportedOperation(f"model {model.name!r} provides no Laplacian to factor through")
    if phi.domain is not lap.domain:
        raise PreconditionError(f"model {model.name!r} factors vectors indexed by the {lap.domain.value}")
    env = phi.envelope
    m = int(math.floor((env.degree + 0.5) / lap.order)) + 1
    try:
        envelope = GrowthEnvelope(env.constant * lap.constant**m, env.degree - lap.order * m, env.all_orders, env.ratio)
    except (OverflowError, ValueError):  # c^m or C c^m past the float range
        raise PreconditionError(f"factorizing degree {env.degree:g} takes a constant past the float range") from None
    return lap.element**m, phi.map(lambda c, k: c / lap.eigenvalue(k) ** m, envelope)
