"""Unit-mass bumps shrinking to the identity, and smoothing by them.

The profile j is the standard compactly supported bump c exp(-1/(1-(x/r)^2)),
normalized by quadrature at construction time (the 1-d normalization integral
is computed, never hard-coded). One class holds j and its scalings
J_n(x) = n j(n x), which shrink the support while preserving unit mass; the
pushforward through exp turns the product of J_n over the model's axes into a
test function on the group (both shipped models have unit Jacobian on the
relevant region).

On the circle the pushforward's Fourier coefficients are fhat(m) = jhat(rho m),
with jhat the transform of the unit-radius bump and rho the scaled bump's
radius. So the band ends at m = floor(_BAND_EDGE / rho), where _BAND_EDGE is the
last lam at which |jhat(lam)| reaches 1e-14. One real FFT of the bump sampled on
a period, at the next even length past 4 times the band with no prime factor
above 5, gives the whole band; the bump is evaluated only on its support, and
the rest of the period is zero.

A circle approximation row <pi(f) pi(J_n) eta, zeta> needs none of that band past
f's: pi(f) pi(J_n) = pi(f * J_n), and f * J_n has f's band. Its coefficients come
from cosine sums when the band times the support is at most _COSINE_LAM, so the
FFT's sample cap does not refuse a narrow band; a wider band reads the FFT table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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

# Gauss-Legendre nodes of every bump quadrature: its Fourier transform, its mass, which is
# then 1 to the last bit, and the normalization of exp(-1/(1-x^2)) over [-1, 1], checked
# against _MASS_CHECK_NODES: against 0.443993816168079437823 that errs by 2.8e-15 here and
# 1.6e-15 at 160 nodes, while 400 and 500 nodes give 1.2e-14 and 1.1e-14 at 10-20 times the cost.
MASS_NODES = 128
_MASS_CHECK_NODES = 160


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


@dataclass(frozen=True)
class BumpProfile:
    """J_n(x) = n j(n x) for the 1-d unit-mass bump j of the given radius; n = 1 is j.

    On a group of dimension dim the mollifier is the product of J_n over its axes.
    """

    radius: float
    normalization: float
    n: int = 1
    # transform's sums at scalar frequencies, by (lam, nodes): each term of a Heisenberg
    # test function reads its bump's at lam = 1 on every rule, and the mass reads it at 0
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("scaling index n must be at least 1")

    @staticmethod
    def standard(radius: float = 0.25) -> "BumpProfile":
        if not 0 < radius < math.inf:
            raise PreconditionError(f"bump radius must be positive and finite, got {radius}")
        return BumpProfile(radius, 1.0 / (radius * _unit_mass()))

    def scaled(self, n: int) -> "BumpProfile":
        """J_n of this profile."""
        return replace(self, n=n)

    @property
    def support(self) -> float:
        """Radius of J_n's support."""
        return self.radius / self.n

    def __call__(self, x, order: int = 0) -> np.ndarray:
        """J_n, or its order-th derivative n^(order+1) j^(order)(n x), at x."""
        scale = self.normalization * self.radius ** -order
        u = self.n * np.asarray(x, dtype=float) / self.radius
        return self.n ** (order + 1) * (scale * _bump_unit(u, order))

    def transform(self, lam, nodes: int = MASS_NODES):
        """int J_n(x) exp(2 pi i lam x) dx, one Gauss-Legendre sum (real: J_n is even);
        a float for a scalar lam, computed once per (lam, nodes) on this profile, an
        array of the sums for an array of frequencies."""
        lam = np.asarray(lam, dtype=float)
        key = (float(lam), nodes) if lam.ndim == 0 else None
        if key in self._sums:  # a cached scalar's sum, before any rule is built
            return self._sums[key]
        x, w = legendre_on_interval(-self.support, self.support, nodes)
        if key is not None:
            self._sums[key] = float(w @ (self(x) * np.cos(2.0 * np.pi * lam * x)))
            return self._sums[key]
        return (self(x) * np.cos(2.0 * np.pi * np.multiply.outer(lam, x))) @ w

    def mass(self, nodes: int = MASS_NODES) -> float:
        return self.transform(0.0, nodes)


@lru_cache(maxsize=None)
def _unit_mass() -> float:
    """Mass of exp(-1/(1-x^2)) over [-1, 1] at MASS_NODES, checked against
    _MASS_CHECK_NODES; computed once per process."""
    unit = BumpProfile(1.0, 1.0)
    coarse, fine = unit.mass(), unit.mass(_MASS_CHECK_NODES)
    gap, tol = abs(coarse - fine), 1e-12 * (1.0 + abs(fine))
    if gap > tol:
        raise QuadratureAccuracyError("bump normalization has not converged", gap, tol, coarse, fine)
    return coarse


# --------------------------------------------------------------------------
# pushforward through exp
# --------------------------------------------------------------------------


# Largest FFT the circle pushforward may take: 2^22 samples resolve a band of
# about a million frequencies (n = 1100 at radius 0.15) in about 230 MB.
_FFT_SAMPLE_CAP = 1 << 22
# the last lam at which the unit-mass bump of radius 1 has |jhat(lam)| >= 1e-14: on the
# trapezoid rule of 2^23 samples at radius 1/4096, |jhat| falls through 1e-14 at 132.308
# and stays below it (its envelope decays like exp(-2 sqrt(pi lam)))
_BAND_EDGE = 132.31
# Largest lam = m rho at which _torus_smoothed takes J_n's coefficient at m from the
# MASS_NODES cosine sum: against mpmath, that sum of the unit bump errs by at most
# 6.4e-15 of its mass up to lam = 24, and by 3.7e-13 at lam = 32.
_COSINE_LAM = 24


def _smooth_length(target: float) -> int:
    """Smallest even 2^a 3^b 5^c at least target, target >= 2: the FFT's cost per
    sample stays near its power-of-two cost at lengths with no larger prime factor."""
    target = math.ceil(target)
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power of two, at least 2, that takes odd to the target
            best = min(best, odd << max(1, (-(-target // odd) - 1).bit_length()))
            odd *= 3
        odd5 *= 5
    return best


def _period_samples(jn: BumpProfile, size: int) -> np.ndarray:
    """jn at the offsets d / size of one period, d = 0..size-1 read modulo size: the
    bump is evaluated only at the d with |d| / size inside its support, and every
    other sample is the zero it takes there."""
    reach = min(math.ceil(jn.support * size), size // 2 - 1)
    near = jn(np.arange(-reach, reach + 1) / size)
    samples = np.zeros(size)
    samples[: reach + 1] = near[reach:]
    samples[size - reach :] = near[:reach]
    return samples


def _fft_table(jn: BumpProfile, size: int) -> np.ndarray:
    """The trapezoid rule on `size` equispaced points of one period, taken by one
    real FFT: fhat(m) for m = 0..size/2, up to the aliased terms fhat(m + l size)."""
    return np.fft.rfft(_period_samples(jn, size)).real / size


def _require_injective(jn: BumpProfile) -> None:
    """The circle's exp is injective only on supports of radius below 1/2."""
    if not jn.support < 0.5:
        min_n = int(math.floor(2.0 * jn.radius)) + 1
        raise PreconditionError(f"exp is not injective on the support; need n >= {min_n}")


def _pushforward_band(jn: BumpProfile) -> np.ndarray:
    """fhat(0..cut) of the pushed-forward bump, cut = floor(_BAND_EDGE / support): every
    coefficient past it is below 1e-14. One FFT at the first even 2^a 3^b 5^c length past
    4 (cut + 1) takes it; the aliased terms fhat(m + l size) of the band lie past 3 times
    the edge, where the trapezoid rule's error is far below the band's last coefficients.
    A size past _FFT_SAMPLE_CAP is refused before any sampling."""
    cut = math.floor(min(_BAND_EDGE / jn.support, _FFT_SAMPLE_CAP))  # past the cap: refused
    size = _smooth_length(4 * (cut + 1))
    if size > _FFT_SAMPLE_CAP:
        raise BudgetExceeded(f"circle pushforward needs more than {_FFT_SAMPLE_CAP} samples", math.inf)
    return _fft_table(jn, size)[: cut + 1]


def _torus_pushforward(jn: BumpProfile) -> tr.TorusTestFunction:
    """The pushed-forward bump over its whole band (_pushforward_band)."""
    _require_injective(jn)
    half = _pushforward_band(jn)
    return tr.TorusTestFunction(np.concatenate([half[:0:-1], half]))


def _torus_smoothed(f: tr.TorusTestFunction, jn: BumpProfile) -> tr.TorusTestFunction:
    """f * J_n on the circle: f's band with fhat(m) times J_n's coefficient at m, so
    pi(f) pi(J_n) = pi(f * J_n) reads J_n only on f's band |m| <= B. A band with
    B * support <= _COSINE_LAM takes those B + 1 coefficients from 128-node cosine
    sums; a wider one reads them off the FFT table, zero past its cut."""
    _require_injective(jn)
    B = f.bandwidth
    if B * jn.support <= _COSINE_LAM:
        half = jn.transform(np.arange(B + 1))
    else:
        table = _pushforward_band(jn)[: B + 1]
        half = np.concatenate([table, np.zeros(B + 1 - len(table))])
    return tr.TorusTestFunction(f.coeffs * np.concatenate([half[:0:-1], half]))


def push_forward(jn: BumpProfile, model: GroupModel):
    """Model test function carrying the scaled bump through exp (unit Jacobian)."""
    if model.name == "torus":
        return _torus_pushforward(jn)
    if model.name == "heisenberg":
        return hb.HTestFunction.bump(jn)
    raise PreconditionError(f"no pushforward for model {model.name!r}")


def standard_mollifier(model: GroupModel, n: int, radius: float = 0.25):
    """J_n for the standard profile at the given radius."""
    return push_forward(BumpProfile.standard(radius).scaled(n), model)


# --------------------------------------------------------------------------
# smoothing and convergence diagnostics
# --------------------------------------------------------------------------


def mollify(
    eta: CoefficientVector,
    n: int,
    model: GroupModel,
    profile: BumpProfile | None = None,
) -> CoefficientVector:
    """pi(J_n) eta: a smooth vector approximating eta as n grows, from the model's
    smooth_by (a Heisenberg model from with_quadrature carries its truncation)."""
    f = push_forward((profile or BumpProfile.standard()).scaled(n), model)
    return model.smooth_by(f, eta)


def gmc_approx(
    eta: CoefficientVector,
    zeta: CoefficientVector,
    f,
    n_list: Sequence[int],
    model: GroupModel,
    profile: BumpProfile | None = None,
) -> list[tuple[int, complex, float]]:
    """Rows (n, value, residual) for the smooth approximations against f.

    value is <pi(f) pi(J_n) eta, zeta> and residual its distance to the unmollified
    evaluation <pi(f) eta, zeta>. On the circle pi(f) pi(J_n) = pi(f * J_n), so the
    row pairs eta itself through f * J_n (_torus_smoothed), which reads J_n only on
    f's band. On the Heisenberg group every smoothing and pairing goes through the
    model's hooks, so the model from with_quadrature (or specs.get_model) sets the
    truncation of all of them.
    """
    base = model.gmc_eval(eta, zeta, f)
    profile = profile or BumpProfile.standard()
    rows = []
    for n in n_list:
        if model.name == "torus":
            approx = model.gmc_eval(eta, zeta, _torus_smoothed(f, profile.scaled(n)))
        else:
            approx = model.gmc_eval(mollify(eta, n, model, profile=profile), zeta, f)
        rows.append((n, approx, abs(approx - base)))
    return rows
