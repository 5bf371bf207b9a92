"""Generalized matrix coefficients as evaluatable functionals on test functions.

A functional holds a vector pair and a model handle and evaluates test
functions through the model's smoothing route. Translations and Lie
derivatives act on the functional by dualizing onto the test function:

    left_translate(F, h)(f)  = F(L(h^{-1}) f)
    right_translate(F, h)(f) = F(R(h^{-1}) f)
    left_derive(F, D)(f)     = F(L(tD) f)
    right_derive(F, D)(f)    = F(R(A(D)) f)

with tD the transpose and A the antipode (equal on the unimodular models
shipped here), and h^{-1} the model's inverse (exact negation on the circle,
so a dualized translation rounds like the direct one). A functional keeps
these operations as data, latest first, and reads its provenance off them;
pointwise views exist only when the second vector is rapid-decay. The
property suites evaluate their dualized sides through this module, which is
the only place these rules are written down.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .errors import PreconditionError
from .groups import GroupModel
from .uea import UEAElement, uea_antipode, uea_transpose
from .vectors import CoefficientVector, GrowthClass


@dataclass(frozen=True)
class GMCFunctional:
    """F(f) = <pi(f) phi, psi>, after the dualized operations in ops.

    ops holds (tag, argument, test-function method, its argument) per
    translation or derivative, latest first; evaluate applies them in order.
    """

    phi: CoefficientVector
    psi: CoefficientVector
    model: GroupModel
    ops: tuple = ()

    def evaluate(self, f) -> complex:
        for _, _, method, arg in self.ops:
            f = getattr(f, method)(arg)
        return self.model.gmc_eval(self.phi, self.psi, f)

    __call__ = evaluate

    @property
    def provenance(self) -> str:
        return " o ".join([f"{tag}({arg})" for tag, arg, _, _ in self.ops] + ["direct"])


def gmc_functional(phi, psi, model: GroupModel) -> GMCFunctional:
    """The direct functional; a Heisenberg model from with_quadrature carries its truncation."""
    return GMCFunctional(phi, psi, model)


def left_translate(F: GMCFunctional, h) -> GMCFunctional:
    return replace(F, ops=(("left-translated", h, "left_translate", F.model.inverse(h)),) + F.ops)


def right_translate(F: GMCFunctional, h) -> GMCFunctional:
    return replace(F, ops=(("right-translated", h, "right_translate", F.model.inverse(h)),) + F.ops)


def left_derive(F: GMCFunctional, d: UEAElement) -> GMCFunctional:
    return replace(F, ops=(("left-derived", d, "left_derive", uea_transpose(d)),) + F.ops)


def right_derive(F: GMCFunctional, d: UEAElement) -> GMCFunctional:
    da = uea_antipode(d)
    return replace(F, ops=(("right-derived", d, "right_derive", da),) + F.ops)


def smooth_function_view(F: GMCFunctional) -> Callable:
    """Pointwise evaluator g -> <pi(g) phi, psi>.

    Needs a summable pair (at least one side rapid-decay); each model may
    impose a stricter requirement on its own pointwise route.
    """
    if (
        F.phi.growth is not GrowthClass.RAPID_DECAY
        and F.psi.growth is not GrowthClass.RAPID_DECAY
    ):
        raise PreconditionError("smooth view requires a rapid-decay vector on one side")
    if F.ops:
        raise PreconditionError("smooth view is defined for direct functionals only")
    return F.model.pointwise_coefficient(F.phi, F.psi)


def orthogonality_test(
    phi: CoefficientVector,
    psi: CoefficientVector,
    probes: Sequence,
    model: GroupModel,
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """True when every probe evaluation vanishes below tol; reports the max."""
    if not probes:
        raise PreconditionError("need at least one probe test function")
    F = gmc_functional(phi, psi, model)
    worst = max(abs(F(f)) for f in probes)
    return worst < tol, worst


def semi_invariance_residual(
    phi: CoefficientVector,
    subgroup_samples: Sequence,
    chi: Callable,
    psi: CoefficientVector,
    f,
    model: GroupModel,
) -> float:
    """max_h |F(R(h^{-1}) f) - chi(h) F(f)| over the sampled subgroup."""
    F = gmc_functional(phi, psi, model)
    base = F(f)
    worst = 0.0
    for h in subgroup_samples:
        shifted = right_translate(F, h)(f)
        worst = max(worst, abs(shifted - chi(h) * base))
    return worst
