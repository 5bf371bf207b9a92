"""Unit-mass bumps shrinking to the identity, and smoothing by them.

The profile is the standard compactly supported bump c exp(-1/(1-(x/r)^2)),
normalized by quadrature at construction time (the 1-d normalization integral
is computed, never hard-coded). Scaling j_n(x) = n^dim j(n x) shrinks the
support while preserving unit mass; the pushforward through exp turns the
scaled bump into a test function on the group (both shipped models have unit
Jacobian on the relevant region).

On the circle the pushforward's Fourier coefficients are fhat(m) = jhat(m/n).
One real FFT of the bump sampled on a period gives the whole band; the FFT
size doubles from 1024 until the upper half of the computed band is below the
coefficient floor, and the band is cut at the last coefficient above it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from . import heisenberg as hb
from . import torus as tr
from .errors import BudgetExceeded, PreconditionError, QuadratureAccuracyError
from .groups import GroupModel
from .hermite import legendre_on_interval
from .vectors import CoefficientVector


@lru_cache(maxsize=None)
def _bump_derivative_poly(order: int) -> Polynomial:
    """P_a with d^a/ds^a exp(-1/(1-s^2)) = P_a(s) (1-s^2)^(-2a) exp(-1/(1-s^2)).

    P_0 = 1 and P_{a+1} = (1-s^2)^2 P_a' + (4as(1-s^2) - 2s) P_a.
    """
    s = Polynomial([0.0, 1.0])
    P = Polynomial([1.0])
    for a in range(order):
        P = (1 - s**2) ** 2 * P.deriv() + (4 * a * s * (1 - s**2) - 2 * s) * P
    return P


def _bump_unit(u: np.ndarray, order: int = 0) -> np.ndarray:
    """order-th derivative of exp(-1/(1-u^2)) on |u| < 1, zero outside.

    Derivatives are evaluated in log form, P_a(u) exp(-1/(1-u^2) - 2a log(1-u^2)),
    so the (1-u^2)^(-2a) factor never overflows next to the vanishing exponential.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    gap = 1.0 - ui * ui
    if order == 0:
        out[inside] = np.exp(-1.0 / gap)
    else:
        log_scale = -1.0 / gap - 2.0 * order * np.log(gap)
        out[inside] = _bump_derivative_poly(order)(ui) * np.exp(log_scale)
    return out


def unit_bump_mass(nodes: int = 400) -> float:
    """Quadrature value of the 1-d normalization integral over [-1, 1]."""
    x, w = legendre_on_interval(-1.0, 1.0, nodes)
    return float(w @ _bump_unit(x))


@dataclass(frozen=True)
class BumpProfile:
    """1-d unit-mass bump of the given radius."""

    radius: float
    normalization: float
    quad_nodes: int

    @staticmethod
    def standard(radius: float = 0.25, quad_nodes: int = 400) -> "BumpProfile":
        if radius <= 0:
            raise PreconditionError("bump radius must be positive")
        coarse = unit_bump_mass(quad_nodes)
        fine = unit_bump_mass(quad_nodes + 100)
        if abs(coarse - fine) > 1e-12 * (1.0 + abs(fine)):
            raise QuadratureAccuracyError("bump normalization has not converged", coarse, fine)
        return BumpProfile(radius, 1.0 / (radius * coarse), quad_nodes)

    def __call__(self, x, order: int = 0) -> np.ndarray:
        """The bump, or its order-th derivative, at x."""
        scale = self.normalization * self.radius ** -order
        return scale * _bump_unit(np.asarray(x, dtype=float) / self.radius, order)

    def mass(self, nodes: int | None = None) -> float:
        x, w = legendre_on_interval(-self.radius, self.radius, nodes or self.quad_nodes)
        return float(w @ self(x))


@dataclass(frozen=True)
class ScaledBump:
    """j_n(x) = n^dim j(n x), the product over dim axes of the 1-d factor n j(n x)."""

    profile: BumpProfile
    n: int
    dim: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("scaling index n must be at least 1")

    @property
    def radius(self) -> float:
        return self.profile.radius / self.n

    def axis(self, x, order: int = 0) -> np.ndarray:
        """The 1-d factor n j(n x), or its order-th derivative n^(order+1) j^(order)(n x)."""
        return self.n ** (order + 1) * self.profile(self.n * np.asarray(x, dtype=float), order)

    def axis_transform(self, lam: float, nodes: int | None = None) -> float:
        """int n j(n x) exp(2 pi i lam x) dx, one Gauss-Legendre sum (real: j is even)."""
        x, w = legendre_on_interval(-self.radius, self.radius, nodes or self.profile.quad_nodes)
        return float(w @ (self.axis(x) * np.cos(2.0 * np.pi * lam * x)))

    def axis_mass(self, nodes: int | None = None) -> float:
        return self.axis_transform(0.0, nodes)


def make_jn(profile: BumpProfile, n: int, dim: int) -> ScaledBump:
    return ScaledBump(profile, n, dim)


# --------------------------------------------------------------------------
# pushforward through exp
# --------------------------------------------------------------------------


# Largest FFT the circle pushforward may take: 2^22 samples resolve a band of
# about a million frequencies (n = 1100 at radius 0.15) in about 230 MB.
_FFT_SAMPLE_CAP = 1 << 22


def _torus_pushforward(jn: ScaledBump, coeff_floor: float = 1e-14) -> tr.TorusTestFunction:
    """Fourier coefficients of the pushed-forward bump, truncated at the floor.

    The trapezoid rule on `size` equispaced points of one period, taken by one
    real FFT, gives fhat(m) up to the aliased terms fhat(m + l size). The size
    doubles until every entry from size/4 on is below the floor, so the kept
    band carries no aliasing above it.
    """
    if jn.dim != 1:
        raise PreconditionError("the circle pushforward takes a 1-d bump")
    if not jn.radius < 0.5:
        min_n = int(math.floor(2.0 * jn.profile.radius)) + 1
        raise PreconditionError(
            f"exp is not injective on the support; need n >= {min_n}"
        )
    size = 1024
    while True:
        samples = jn.axis((np.arange(size) - size // 2) / size)
        table = np.fft.rfft(np.fft.ifftshift(samples)).real / size
        aliased = float(np.max(np.abs(table[size // 4 :])))
        if aliased < coeff_floor:
            break
        if 2 * size > _FFT_SAMPLE_CAP:
            raise BudgetExceeded(
                f"circle pushforward needs more than {_FFT_SAMPLE_CAP} samples", aliased
            )
        size *= 2
    big = np.nonzero(np.abs(table) >= coeff_floor)[0]
    cut = int(big[-1]) if len(big) else 0
    coeffs = np.concatenate([table[cut:0:-1], table[: cut + 1]]).astype(np.complex128)
    return tr.TorusTestFunction(coeffs, real_valued=True)


def push_forward(jn: ScaledBump, model: GroupModel, nodes: int | None = None):
    """Model test function carrying the scaled bump through exp (unit Jacobian)."""
    if model.name == "torus":
        return _torus_pushforward(jn)
    if model.name == "heisenberg":
        if jn.dim != 3:
            raise PreconditionError("the Heisenberg pushforward takes a 3-d bump")
        return hb.HTestFunction.bump(jn, nodes or hb.DEFAULT_QUADRATURE.box_nodes)
    raise PreconditionError(f"no pushforward for model {model.name!r}")


def standard_mollifier(model: GroupModel, n: int, radius: float = 0.25, **kwargs):
    """J_n for the standard profile at the given radius."""
    profile = BumpProfile.standard(radius)
    return push_forward(make_jn(profile, n, model.dim), model, **kwargs)


# --------------------------------------------------------------------------
# smoothing and convergence diagnostics
# --------------------------------------------------------------------------


def mollify(
    eta: CoefficientVector,
    n: int,
    model: GroupModel,
    profile: BumpProfile | None = None,
    **smooth_kwargs,
) -> CoefficientVector:
    """pi(J_n) eta: a smooth vector approximating eta as n grows."""
    profile = profile or BumpProfile.standard()
    f = push_forward(make_jn(profile, n, model.dim), model)
    return model.smooth_by(f, eta, **smooth_kwargs)


def gmc_approx(
    eta: CoefficientVector,
    zeta: CoefficientVector,
    f,
    n_list: Sequence[int],
    model: GroupModel,
    profile: BumpProfile | None = None,
    **eval_kwargs,
) -> list[tuple[int, complex, float]]:
    """Rows (n, value, residual) for the smooth approximations against f.

    value is the coefficient of the mollified vector paired through f and
    residual its distance to the unmollified evaluation.
    """
    base = model.gmc_eval(eta, zeta, f, **eval_kwargs)
    rows = []
    for n in n_list:
        approx = model.gmc_eval(
            mollify(eta, n, model, profile=profile), zeta, f, **eval_kwargs
        )
        rows.append((n, approx, abs(approx - base)))
    return rows
