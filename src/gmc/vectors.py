"""Indexed coefficient families with growth classes, and their dual pairing.

A CoefficientVector stores a finite prefix of complex coefficients plus an
optional formula tail, together with a growth envelope |c_k| <= C (1+|k|)^r.
Rapid-decay vectors play the role of smooth vectors, polynomial-growth vectors
the role of distribution vectors, and square-summable vectors sit in between.

Tails are array-valued: a formula maps an int64 index array to a complex128
array, so reading a range of coefficients is one prefix slice plus one tail call.

The pairing is bilinear: pair(phi, v) = sum_k phi_k v_k, one product array
summed with math.fsum on its real and imaginary parts (correctly rounded, so
independent of the order) under an envelope-driven adaptive cutoff.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    EnvelopeViolation,
    PreconditionError,
    SpecParseError,
    UnpairedDistributions,
)

_ENVELOPE_SLACK = 1.0 + 1e-9


class IndexDomain(enum.Enum):
    INTEGERS = "integers"
    NATURALS = "naturals"


class GrowthClass(enum.Enum):
    RAPID_DECAY = "rapid_decay"
    SQUARE_SUMMABLE = "square_summable"
    POLYNOMIAL_GROWTH = "polynomial_growth"


@dataclass(frozen=True)
class GrowthEnvelope:
    """Bound |c_k| <= constant * (1+|k|)**degree.

    all_orders marks rapid decay: the bound is claimed for every steeper
    (more negative) exponent with some finite constant, which steepen()
    validates by sampling when needed.
    """

    constant: float
    degree: float
    all_orders: bool = False

    def __post_init__(self):
        if not (self.constant > 0 and math.isfinite(self.constant)):
            raise ValueError(f"envelope constant must be positive, got {self.constant}")
        if not math.isfinite(self.degree):
            raise ValueError(f"envelope degree must be finite, got {self.degree}")

    def bound(self, k: int) -> float:
        return self.constant * (1.0 + abs(k)) ** self.degree


# --- formula tails ---------------------------------------------------------
# Each factory returns fn(k) for an int64 index array k, giving a complex128 array.

TailFn = Callable[[np.ndarray], np.ndarray]


def _tail_const(value: float = 1.0) -> TailFn:
    return lambda k: np.full(k.shape, complex(value))


def _tail_geometric(ratio: float) -> TailFn:
    return lambda k: (ratio ** np.abs(k).astype(float)).astype(np.complex128)


def _tail_power(exponent: float) -> TailFn:
    def fn(k: np.ndarray) -> np.ndarray:
        kf = k.astype(float)
        base = kf if exponent == int(exponent) else np.abs(kf)
        with np.errstate(divide="ignore"):
            vals = base**exponent
        return np.where(k == 0, 1.0 if exponent == 0 else 0.0, vals).astype(np.complex128)

    return fn


def _tail_shifted_power(exponent: float) -> TailFn:
    return lambda k: ((1.0 + np.abs(k)) ** exponent).astype(np.complex128)


def _tail_inv_quadratic(power: int) -> TailFn:
    return lambda k: ((1.0 + k.astype(float) ** 2) ** (-power)).astype(np.complex128)


def _tail_hermite_zero() -> TailFn:
    from .hermite import hermite_at_zero_values

    return lambda k: hermite_at_zero_values(k).astype(np.complex128)


TAIL_FORMULAS: Mapping[str, Callable[..., TailFn]] = {
    "const": _tail_const,
    "geometric": _tail_geometric,
    "power": _tail_power,
    "shifted_power": _tail_shifted_power,
    "inv_quadratic": _tail_inv_quadratic,
    "hermite_zero": _tail_hermite_zero,
    "alternating": lambda: (lambda k: np.where(k % 2 == 0, 1.0, -1.0).astype(np.complex128)),
}


@dataclass(frozen=True)
class Tail:
    """Coefficients outside the stored prefix: exactly zero, or a formula."""

    name: str = "zero"
    params: tuple = ()
    fn: Optional[TailFn] = None

    @staticmethod
    def zero() -> "Tail":
        return Tail()

    @staticmethod
    def formula(name: str, *params) -> "Tail":
        if name not in TAIL_FORMULAS:
            raise SpecParseError(f"unknown tail formula {name!r}")
        return Tail(name, tuple(params), TAIL_FORMULAS[name](*params))

    @staticmethod
    def closure(fn: TailFn) -> "Tail":
        """Non-serializable tail produced by an operation; fn maps index arrays."""
        return Tail("derived", (), fn)

    @property
    def is_zero(self) -> bool:
        return self.fn is None


ZERO_TAIL = Tail.zero()


@dataclass(frozen=True)
class CoefficientVector:
    """Complex coefficient family over Z or N with a declared growth envelope.

    prefix holds coefficients for indices start .. start+len(prefix)-1; the
    tail supplies every other index. Immutable after construction; the
    envelope is validated over the stored prefix, never inferred.
    """

    domain: IndexDomain
    start: int
    prefix: np.ndarray
    envelope: GrowthEnvelope
    growth: GrowthClass
    tail: Tail = field(default=ZERO_TAIL)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.prefix, dtype=np.complex128)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "prefix", arr)
        if self.domain is IndexDomain.NATURALS and self.start < 0:
            raise PreconditionError("natural-number domain cannot start below 0")
        if not np.all(np.isfinite(arr)):
            k = self.start + int(np.argmin(np.isfinite(arr)))
            raise PreconditionError(f"coefficient at index {k} is not finite")
        ks = np.arange(self.start, self.start + len(arr))
        bounds = self.envelope.constant * (1.0 + np.abs(ks)) ** self.envelope.degree
        bad = np.nonzero(np.abs(arr) > bounds * _ENVELOPE_SLACK + 1e-300)[0]
        if len(bad):
            k = int(ks[bad[0]])
            raise EnvelopeViolation(
                f"coefficient at index {k} has |c|={abs(arr[bad[0]]):.6e}, "
                f"envelope allows {self.envelope.bound(k):.6e}"
            )

    # -- access -------------------------------------------------------------

    @property
    def stop(self) -> int:
        """One past the last stored index."""
        return self.start + len(self.prefix)

    def coeff(self, k: int) -> complex:
        return complex(self.coeffs(np.array([k]))[0])

    def coeffs(self, indices) -> np.ndarray:
        """Coefficients at an index array: stored ones from the prefix, the rest
        from one tail call."""
        ks = np.asarray(indices, dtype=np.int64)
        out = np.zeros(ks.shape, dtype=np.complex128)
        stored = (ks >= self.start) & (ks < self.stop)
        out[stored] = self.prefix[ks[stored] - self.start]
        if not self.tail.is_zero:
            rest = ~stored
            if self.domain is IndexDomain.NATURALS:
                rest &= ks >= 0
            if rest.any():
                out[rest] = self.tail.fn(ks[rest])
        return out

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients for indices lo..hi inclusive."""
        return self.coeffs(np.arange(lo, hi + 1))

    @property
    def finite_support(self) -> bool:
        return self.tail.is_zero

    def norm_sq_partial(self, extents: Iterable[int]) -> list[float]:
        """Partial sums of |c_k|^2 over expanding symmetric/natural ranges."""
        out = []
        for m in extents:
            idx = self._range(m)
            out.append(float(np.sum(np.abs(self.coeffs(idx)) ** 2)))
        return out

    def _range(self, m: int) -> np.ndarray:
        return np.arange(-m if self.domain is IndexDomain.INTEGERS else 0, m + 1)

    def l2_tail_bound(self, extent: int) -> float:
        """Envelope-certified bound on sum of |c_k|^2 beyond the extent.

        This is the analytic side of the square-summable Cauchy property:
        every pair of partial sums past the extent differs by at most this.
        """
        s = 2.0 * self.envelope.degree
        if self.finite_support and extent >= max(abs(self.start), abs(self.stop - 1)):
            return 0.0
        return _tail_integral_bound(
            self.envelope.constant**2, s, extent, self.domain is IndexDomain.INTEGERS
        )

    def cauchy_extent(self, tol: float, max_extent: int = 1 << 62) -> int:
        """Smallest probed extent whose certified L2 tail is below tol."""
        n = max(abs(self.start), abs(self.stop - 1), 8)
        while self.l2_tail_bound(n) > tol:
            n *= 2
            if n > max_extent:
                raise BudgetExceeded(
                    "envelope cannot certify an L2 tail below tolerance",
                    self.l2_tail_bound(n // 2),
                )
        return n

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        if self.tail.name == "derived":
            raise UnsupportedOperationTail()
        return {
            "index_domain": self.domain.value,
            "start": self.start,
            "coefficients": [[float(c.real), float(c.imag)] for c in self.prefix],
            "tail": {"name": self.tail.name, "params": list(self.tail.params)},
            "envelope": {
                "constant": self.envelope.constant,
                "degree": self.envelope.degree,
                "all_orders": self.envelope.all_orders,
            },
            "growth": self.growth.value,
        }

    @staticmethod
    def from_json(payload: Mapping) -> "CoefficientVector":
        """Inverse of to_json; a missing or malformed key raises SpecParseError."""
        try:
            tail_spec = payload.get("tail", {"name": "zero", "params": []})
            if tail_spec["name"] == "zero":
                tail = ZERO_TAIL
            else:
                tail = Tail.formula(tail_spec["name"], *tail_spec.get("params", []))
            env = payload["envelope"]
            return CoefficientVector(
                domain=IndexDomain(payload["index_domain"]),
                start=int(payload["start"]),
                prefix=np.array([complex(re, im) for re, im in payload["coefficients"]]),
                envelope=GrowthEnvelope(env["constant"], env["degree"], env.get("all_orders", False)),
                growth=GrowthClass(payload["growth"]),
                tail=tail,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SpecParseError(f"malformed vector payload: {exc!r}") from None


class UnsupportedOperationTail(PreconditionError):
    def __init__(self):
        super().__init__("derived tails carry arbitrary closures and cannot be serialized")


# --- construction helpers ---------------------------------------------------


def vector_from_prefix(
    domain: IndexDomain,
    start: int,
    values,
    growth: GrowthClass,
    degree: float | None = None,
    tail: Tail = ZERO_TAIL,
    all_orders: bool | None = None,
) -> CoefficientVector:
    """Build a vector with an envelope validated against the given prefix."""
    values = np.asarray(values, dtype=np.complex128)
    if degree is None:
        degree = {
            GrowthClass.RAPID_DECAY: -8.0,
            GrowthClass.SQUARE_SUMMABLE: -1.0,
            GrowthClass.POLYNOMIAL_GROWTH: 0.0,
        }[growth]
    ks = np.arange(start, start + len(values))
    scale = (1.0 + np.abs(ks)) ** degree
    base = float(np.max(np.abs(values) / scale)) if len(values) else 1.0
    # a non-finite base falls through to CoefficientVector, which rejects the prefix
    constant = max(base * (1 + 1e-12), 1e-300) if 0 < base < math.inf else 1.0
    if all_orders is None:
        all_orders = growth is GrowthClass.RAPID_DECAY
    return CoefficientVector(
        domain=domain,
        start=start,
        prefix=values,
        envelope=GrowthEnvelope(constant, degree, all_orders),
        growth=growth,
        tail=tail,
    )


def steepen_envelope(vec: CoefficientVector, target_degree: float, probe_extent: int = 4096) -> GrowthEnvelope:
    """Validate a steeper envelope for an all-orders (rapid-decay) vector.

    Samples the stored prefix plus tail probes; this realizes the testable
    form of rapid decay rather than a symbolic proof.
    """
    if not vec.envelope.all_orders:
        raise PreconditionError("only all-orders envelopes may be steepened")
    ks = np.arange(vec.start, vec.stop)
    if not vec.finite_support:
        lo = max(abs(vec.start), abs(vec.stop - 1), 1)
        probes = np.arange(lo, min(probe_extent, 8 * lo) + 1, max(1, lo // 8))
        if vec.domain is IndexDomain.INTEGERS:
            probes = np.concatenate([probes, -probes])
        ks = np.concatenate([ks, probes])
    ratios = np.abs(vec.coeffs(ks)) / (1.0 + np.abs(ks)) ** target_degree
    best = float(np.max(ratios, initial=1e-300))
    return GrowthEnvelope(best * (1 + 1e-9), target_degree, True)


# --- pairing ----------------------------------------------------------------


def _interleaved(domain: IndexDomain, m: int) -> np.ndarray:
    """Fixed index order: 0, 1, -1, 2, -2, ... truncated to extent m."""
    if domain is IndexDomain.NATURALS:
        return np.arange(0, m + 1)
    order = np.zeros(2 * m + 1, dtype=np.int64)
    order[1::2] = np.arange(1, m + 1)
    order[2::2] = -order[1::2]
    return order


def _kahan(values: Iterable[complex]) -> complex:
    """Correctly rounded sum: math.fsum of the real and of the imaginary parts.

    Exact rounding makes the result independent of the summation order.
    """
    z = values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=np.complex128)
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


def _tail_integral_bound(constant: float, s: float, extent: int, two_sided: bool) -> float:
    """Bound C * sum_{|k|>extent} (1+|k|)^s by the integral estimate."""
    if s >= -1.0:
        return math.inf
    one_side = constant * (1.0 + extent) ** (s + 1.0) / (-(s + 1.0))
    return 2.0 * one_side if two_sided else one_side


def pair(
    phi: CoefficientVector,
    v: CoefficientVector,
    abs_tol: float = 1e-12,
    max_terms: int = 1 << 21,
) -> complex:
    """Bilinear pairing sum_k phi_k v_k with adaptive envelope-certified cutoff.

    Exactly one side may carry polynomial growth; two polynomial-growth
    vectors are only paired through a smoothing operator, never directly.
    """
    if phi.domain is not v.domain:
        raise PreconditionError("index domains differ")
    if phi.growth is GrowthClass.POLYNOMIAL_GROWTH and v.growth is GrowthClass.POLYNOMIAL_GROWTH:
        raise UnpairedDistributions(
            "cannot pair two polynomial-growth vectors; smooth one side first"
        )
    two_sided = phi.domain is IndexDomain.INTEGERS

    if phi.finite_support or v.finite_support:
        # products vanish outside a finite support; the sum is exact
        if phi.finite_support and v.finite_support:
            extent = max(
                abs(phi.start), abs(phi.stop - 1), abs(v.start), abs(v.stop - 1), 0
            )
        elif phi.finite_support:
            extent = max(abs(phi.start), abs(phi.stop - 1), 0)
        else:
            extent = max(abs(v.start), abs(v.stop - 1), 0)
        order = _interleaved(phi.domain, extent)
        return _kahan(phi.coeffs(order) * v.coeffs(order))

    env_phi, env_v = phi.envelope, v.envelope
    s = env_phi.degree + env_v.degree
    constant = env_phi.constant * env_v.constant
    if s >= -1.0:
        # try to certify a steeper rapid-decay envelope by sampling
        if env_v.all_orders:
            env_v = steepen_envelope(v, -(env_phi.degree + 2.5))
        elif env_phi.all_orders:
            env_phi = steepen_envelope(phi, -(env_v.degree + 2.5))
        s = env_phi.degree + env_v.degree
        constant = env_phi.constant * env_v.constant
        if s >= -1.0:
            raise BudgetExceeded(
                "declared envelopes do not certify a convergent pairing", math.inf
            )

    extent = max(abs(phi.start), abs(phi.stop - 1), abs(v.start), abs(v.stop - 1), 8)
    while _tail_integral_bound(constant, s, extent, two_sided) > abs_tol:
        extent *= 2
        terms = 2 * extent + 1 if two_sided else extent + 1
        if terms > max_terms:
            raise BudgetExceeded(
                f"pairing needs more than {max_terms} terms for abs_tol={abs_tol}",
                _tail_integral_bound(constant, s, extent // 2, two_sided),
            )
    order = _interleaved(phi.domain, extent)
    return _kahan(phi.coeffs(order) * v.coeffs(order))


# --- rapid-decay diagnostics -------------------------------------------------


def fitted_decay_exponent(vec: CoefficientVector, floor: float = 1e-13) -> float:
    """Least-squares slope of log|c_k| against log(1+|k|) over the stored prefix.

    Entries below the noise floor are excluded; returns -inf when fewer than
    three usable points remain: an effectively finitely supported vector
    decays faster than any power.
    """
    ks = np.abs(np.arange(vec.start, vec.stop))
    mags = np.abs(vec.prefix)
    usable = (mags > floor) & (ks >= 1)
    if np.count_nonzero(usable) < 3:
        return -math.inf
    slope = np.polyfit(np.log1p(ks[usable]), np.log(mags[usable]), 1)[0]
    return float(slope)
