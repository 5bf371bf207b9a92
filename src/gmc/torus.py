"""Circle group acting on two-sided sequences by frequency-wise phases.

The n-th coefficient of a sequence picks up exp(2 pi i n t) under the group
action and a factor (2 pi i n)^m under the m-th power of the Lie generator.
Test functions are band-limited Fourier sums, so every identity in this model
is a finite spectral computation, exact up to float roundoff.

Conventions: fhat(n) = integral of f(t) exp(-2 pi i n t) dt, left translation
L(s)f(t) = f(t - s), right translation R(s)f(t) = f(t + s), and the dual
(contragredient) actions on sequences are act_group(-t, .) and
act_algebra(transpose(D), .).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, PreconditionError
from .groups import GroupModel, Laplacian
from .uea import LieStructure, UEAElement, uea_transpose
from .vectors import (
    CoefficientVector,
    GrowthClass,
    GrowthEnvelope,
    IndexDomain,
    _centred_fsums,
    _fsum,
    formula_vector,
    pair,
    vector_from_prefix,
)

TORUS_STRUCTURE = LieStructure(labels=("X",))

TWO_PI = 2.0 * math.pi
# largest limit B of a named band profile (2B + 1 coefficients, 128 MiB at the limit)
BAND_LIMIT = 1 << 22

# Sequences over Z; an alias to keep signatures readable.
TorusSequence = CoefficientVector


def _require_torus(a: CoefficientVector) -> None:
    if a.domain is not IndexDomain.INTEGERS:
        raise PreconditionError("torus sequences are indexed by the two-sided integers")


# --------------------------------------------------------------------------
# sequence constructors
# --------------------------------------------------------------------------


def unit(n: int) -> TorusSequence:
    return CoefficientVector(
        IndexDomain.INTEGERS, n, np.array([1.0 + 0j]), GrowthEnvelope(1.0, 0.0, all_orders=True)
    )


def _formula(extent: int, name: str, *params) -> TorusSequence:
    return formula_vector(IndexDomain.INTEGERS, -extent, extent + 1, name, *params)


def comb(extent: int = 64) -> TorusSequence:
    """The constant sequence of ones (the Dirac-comb distribution vector)."""
    return _formula(extent, "const", 1.0)


def poly(r: int, extent: int = 64) -> TorusSequence:
    """a_n = n^r (with a_0 = 1 for r = 0); polynomial growth of degree r."""
    if r < 0:
        raise PreconditionError(f"poly degree must be nonnegative, got {r}")
    return _formula(extent, "power", float(r))


def geometric(ratio: float, extent: int = 64) -> TorusSequence:
    """a_n = ratio^{|n|}, rapid decay for 0 < |ratio| < 1: envelope (1, 0) with ratio |ratio|."""
    return _formula(extent, "geometric", ratio)


def inverse_quadratic(power: int = 1, extent: int = 64) -> TorusSequence:
    """a_n = (1+n^2)^{-power}; square-summable for power >= 1, the constant 1 for power 0."""
    return _formula(extent, "inv_quadratic", power)


def alternating(extent: int = 64) -> TorusSequence:
    return _formula(extent, "alternating")


# --------------------------------------------------------------------------
# band-limited test functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusTestFunction:
    """f(t) = sum_{|n| <= B} coeffs[n] exp(2 pi i n t); coeffs index -B..B."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128, order="C")
        if len(arr) % 2 != 1:
            raise PreconditionError("coefficient array must have odd length 2B+1")
        if not np.isfinite(arr).all():
            raise PreconditionError("band coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def real_valued(self) -> bool:
        """fhat(-n) = conj(fhat(n)) over the band, to 1e-14 times max(1, largest |fhat|)."""
        atol = 1e-14 * max(1.0, float(np.max(np.abs(self.coeffs))))
        return bool(np.allclose(self.coeffs, np.conj(self.coeffs[::-1]), rtol=0.0, atol=atol))

    @property
    def bandwidth(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def fhat(self, n: int) -> complex:
        B = self.bandwidth
        if -B <= n <= B:
            return complex(self.coeffs[n + B])
        return 0j

    def __call__(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        ns = np.arange(-self.bandwidth, self.bandwidth + 1)
        vals = np.exp(2j * np.pi * np.outer(ts, ns)) @ self.coeffs
        return complex(vals[0]) if np.ndim(t) == 0 else vals

    def integral(self) -> complex:
        return self.fhat(0)

    # translations and Lie derivatives act diagonally on the band
    def _scaled(self, factors: np.ndarray) -> "TorusTestFunction":
        return TorusTestFunction(self.coeffs * factors)

    def left_translate(self, s: float) -> "TorusTestFunction":
        ns = np.arange(-self.bandwidth, self.bandwidth + 1)
        return self._scaled(np.exp(-2j * np.pi * ns * s))

    def right_translate(self, s: float) -> "TorusTestFunction":
        ns = np.arange(-self.bandwidth, self.bandwidth + 1)
        return self._scaled(np.exp(2j * np.pi * ns * s))

    def left_derive(self, d: UEAElement) -> "TorusTestFunction":
        ns = np.arange(-self.bandwidth, self.bandwidth + 1)
        return self._scaled(_spectral_factors(d, ns, sign=-1.0))

    def right_derive(self, d: UEAElement) -> "TorusTestFunction":
        ns = np.arange(-self.bandwidth, self.bandwidth + 1)
        return self._scaled(_spectral_factors(d, ns, sign=+1.0))

    def __add__(self, other: "TorusTestFunction") -> "TorusTestFunction":
        B = max(self.bandwidth, other.bandwidth)
        out = np.zeros(2 * B + 1, dtype=np.complex128)
        out[B - self.bandwidth : B + self.bandwidth + 1] += self.coeffs
        out[B - other.bandwidth : B + other.bandwidth + 1] += other.coeffs
        return TorusTestFunction(out)

    def __rmul__(self, scalar) -> "TorusTestFunction":
        return TorusTestFunction(scalar * self.coeffs)


def band(B: int, profile: str | Sequence[complex] = "ones") -> TorusTestFunction:
    """Named band-limited profiles, or an explicit coefficient list of length 2B+1."""
    if B < 0:
        raise PreconditionError(f"band limit must be nonnegative, got {B}")
    if isinstance(profile, str):
        if B > BAND_LIMIT:
            raise BudgetExceeded(f"band limit {B} is past {BAND_LIMIT}", math.inf)
        ns = np.arange(-B, B + 1)
        if profile == "ones":
            coeffs = np.ones(2 * B + 1, dtype=np.complex128)
        elif profile == "fejer":
            coeffs = (1.0 - np.abs(ns) / (B + 1.0)).astype(np.complex128)
        elif profile == "gauss":
            coeffs = np.exp(-((2.0 * ns / max(B, 1)) ** 2)).astype(np.complex128)
        else:
            raise PreconditionError(f"unknown band profile {profile!r}")
        return TorusTestFunction(coeffs)
    coeffs = np.asarray(list(profile), dtype=np.complex128)
    if len(coeffs) != 2 * B + 1:
        raise PreconditionError(
            f"explicit band profile needs {2 * B + 1} coefficients, got {len(coeffs)}"
        )
    return TorusTestFunction(coeffs)


@np.errstate(over="ignore", invalid="ignore")  # a factor past the float range is inf or nan, refused by its reader
def _spectral_factors(d: UEAElement, ns: np.ndarray, sign: float) -> np.ndarray:
    """Factors of L(D) (sign=-1) or R(D) (sign=+1) at frequencies ns: sum_m c_m (sign 2 pi i n)^m."""
    if d.structure.labels != TORUS_STRUCTURE.labels:
        raise PreconditionError("expected an element over the 1-generator torus basis")
    z = sign * 2j * np.pi * ns
    out = np.zeros(len(ns), dtype=np.complex128)
    for alpha, c in d.sorted_terms():
        out += c * z ** alpha[0]
    return out


# --------------------------------------------------------------------------
# representation operations
# --------------------------------------------------------------------------


def act_group(t: float, a: TorusSequence) -> TorusSequence:
    """(pi(T_t) a)_n = a_n exp(2 pi i n t); growth class and envelope unchanged."""
    _require_torus(a)
    return a.map(lambda c, k: c * np.exp(2j * np.pi * k * t))


def dual_act_group(t: float, b: TorusSequence) -> TorusSequence:
    """Contragredient action pi*(T_t) b = act_group(-t, b)."""
    return act_group(-t, b)


def act_algebra(d: UEAElement, a: TorusSequence) -> TorusSequence:
    """X^m multiplies the n-th coefficient by (2 pi i n)^m. A coefficient or the envelope
    constant past the float range raises PreconditionError."""
    _require_torus(a)
    env = a.envelope
    try:
        coeff_l1 = sum(abs(c) * TWO_PI ** alpha[0] for alpha, c in d.sorted_terms())
        envelope = GrowthEnvelope(env.constant * max(coeff_l1, 1e-300), env.degree + d.degree, env.all_orders, env.ratio)
    except (OverflowError, ValueError):  # (2 pi)^m or C c past the float range
        raise PreconditionError(f"the envelope constant of a degree {d.degree} action leaves the float range") from None

    @np.errstate(over="ignore", invalid="ignore")
    def scaled(c, k):
        out = c * _spectral_factors(d, k, sign=+1.0)
        if not np.isfinite(out).all():
            raise PreconditionError(f"a degree {d.degree} action's coefficients leave the float range")
        return out

    return a.map(scaled, envelope)


def dual_act_algebra(d: UEAElement, b: TorusSequence) -> TorusSequence:
    """pi*(D) b = act_algebra(transpose(D), b)."""
    return act_algebra(uea_transpose(d), b)


def smooth_by(f: TorusTestFunction, a: TorusSequence) -> TorusSequence:
    """(pi(f) a)_n = a_n fhat(-n); band-limited, hence rapid decay, output."""
    _require_torus(a)
    B = f.bandwidth
    ns = np.arange(-B, B + 1)
    vals = a.finite_coeffs(ns) * f.coeffs[::-1]
    return vector_from_prefix(IndexDomain.INTEGERS, -B, vals, GrowthClass.RAPID_DECAY)


def _band_terms(a: TorusSequence, f: TorusTestFunction, m: int, b: TorusSequence | None) -> list[np.ndarray]:
    """The factors a_n, fhat(-n), b_n over |n| <= min(m, B), with b_n = 1 when b is None:
    the products pair(smooth_by(f, a), b) forms, without the exact zeros it adds
    outside b's finite support, so the correctly rounded sums agree bit for bit."""
    _require_torus(a)
    B = f.bandwidth
    lo, hi = -min(m, B), min(m, B) + 1
    if b is not None:
        _require_torus(b)
        if b.finite_support:
            lo, hi = max(lo, b.start), min(hi, b.stop)
    hi = max(lo, hi)
    bs = np.ones(hi - lo, np.complex128) if b is None else b.dense(lo, hi - 1)
    return [a.dense(lo, hi - 1), f.coeffs[::-1][lo + B : hi + B], bs]


def gmc_eval(a: TorusSequence, b: TorusSequence, f: TorusTestFunction) -> complex:
    """<pi(f) a, b> = sum over the band of a_n fhat(-n) b_n (finite, exact)."""
    return _fsum(*_band_terms(a, f, f.bandwidth, b))


def series_partial_sum(a: TorusSequence, m: int, f: TorusTestFunction) -> complex:
    """Pairing of the order-m partial Fourier sum of a against f.

    For m >= bandwidth this is bit-identical to gmc_eval(a, comb(), f): the same
    terms are added in the same order.
    """
    if m < 0:
        raise PreconditionError("partial-sum order must be nonnegative")
    return _fsum(*_band_terms(a, f, m, None))


def series_partial_sums(a: TorusSequence, m_max: int, f: TorusTestFunction) -> list[complex]:
    """series_partial_sum(a, m, f) for m = 0 .. min(m_max, bandwidth), bit for bit, in one
    pass; it raises PreconditionError where any of those calls would."""
    if m_max < 0:
        raise PreconditionError("partial-sum order must be nonnegative")
    return _centred_fsums(*_band_terms(a, f, m_max, None))


def dominated_sequence_check(
    a: TorusSequence,
    b_list: Sequence[TorusSequence],
    b: TorusSequence,
    f: TorusTestFunction,
    envelope: GrowthEnvelope | None = None,
) -> list[float]:
    """Residuals |gmc_eval(a, b_m, f) - gmc_eval(a, b, f)| under a common envelope."""
    env = envelope if envelope is not None else b.envelope
    for m, bm in enumerate(b_list):
        ks = np.arange(bm.start, bm.stop)
        bad = np.nonzero(np.abs(bm.prefix) > env.bound(ks) * (1 + 1e-9))[0]
        if len(bad):
            raise PreconditionError(
                f"sequence #{m} violates the common envelope at index {int(ks[bad[0]])}"
            )
    base = gmc_eval(a, b, f)
    return [abs(gmc_eval(a, bm, f) - base) for bm in b_list]


def project_subrep(a: TorusSequence, keep: Callable[[np.ndarray], np.ndarray]) -> TorusSequence:
    """Zero all coefficients outside the index predicate; commutes with actions.

    keep maps an int64 index array to a boolean array of the same shape."""
    _require_torus(a)
    return a.map(lambda c, k: np.where(keep(k), c, 0j))


def pointwise_coefficient(a: TorusSequence, b: TorusSequence) -> Callable[[float], complex]:
    """The smooth function t -> sum_n a_n b_n exp(2 pi i n t).

    Any summable pair works on the circle (the series route); the adaptive
    pairing rejects two polynomial-growth vectors on its own.
    """
    if (
        a.growth is GrowthClass.POLYNOMIAL_GROWTH
        and b.growth is GrowthClass.POLYNOMIAL_GROWTH
    ):
        raise PreconditionError("pointwise view needs a summable pair")

    def view(t: float) -> complex:
        return pair(act_group(t, a), b)

    return view


# --------------------------------------------------------------------------
# the model bundle
# --------------------------------------------------------------------------


TORUS = GroupModel(
    name="torus",
    structure=TORUS_STRUCTURE,
    inverse=lambda t: -t,
    smooth_by=smooth_by,
    gmc_eval=gmc_eval,
    pointwise_coefficient=pointwise_coefficient,
    # 1 - X^2 / 4 pi^2 multiplies the n-th coefficient by 1 + n^2 >= (1+|n|)^2 / 2
    laplacian=Laplacian(
        UEAElement(TORUS_STRUCTURE, {(0,): 1.0, (2,): -1.0 / (4.0 * math.pi**2)}),
        lambda k: 1.0 + k.astype(float) ** 2, 2.0, 2.0, IndexDomain.INTEGERS,
    ),
)
