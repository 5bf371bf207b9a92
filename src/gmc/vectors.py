"""Indexed coefficient families with growth classes, and their dual pairing.

A CoefficientVector stores a finite prefix of complex coefficients plus an
optional formula tail, together with a growth envelope |c_k| <= C (1+|k|)^r.
The envelope alone decides the growth class: rapid-decay vectors (all orders)
play the role of smooth vectors, square-summable vectors (r < -1/2) sit in
between, and polynomial-growth vectors are the distribution vectors.

Tails are array-valued: a formula maps an int64 index array to a complex128
array, so reading a range of coefficients is one prefix slice plus one tail call.
A formula_vector's prefix is its tail formula on the stored indices, and every
coefficient-wise operator acts on prefix and tail alike through CoefficientVector.map.

The pairing is bilinear: pair(phi, v) = sum_k phi_k v_k, one product array
summed with math.fsum on its real and imaginary parts (correctly rounded, so
independent of the order) under an envelope-driven adaptive cutoff.
"""
from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
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
# largest extent cauchy_extent probes before giving up
_CAUCHY_EXTENT_CAP = 1 << 62
# largest extent abs_tail_extent may reach
_TAIL_EXTENT_CAP = 1 << 22
# steepen_envelope samples a tail no further out than this index
_STEEPEN_PROBE_EXTENT = 4096
# most terms an infinite pairing may sum
_PAIR_MAX_TERMS = 1 << 21
# largest |index| a vector may store: int64 keeps room for index arithmetic past it
_INDEX_BOUND = 1 << 62


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
    (more negative) exponent with some finite constant, which steepen_envelope
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

    @property
    def growth(self) -> GrowthClass:
        """The class the bound certifies: all orders is rapid decay, and a degree
        below -1/2 makes sum (1+|k|)^(2 degree) finite, hence square-summable."""
        if self.all_orders:
            return GrowthClass.RAPID_DECAY
        return GrowthClass.SQUARE_SUMMABLE if self.degree < -0.5 else GrowthClass.POLYNOMIAL_GROWTH


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
        with np.errstate(divide="ignore", over="ignore"):
            vals = base**exponent
        return np.where(k == 0, 1.0 if exponent == 0 else 0.0, vals).astype(np.complex128)

    return fn


def _tail_shifted_power(exponent: float) -> TailFn:
    return np.errstate(over="ignore")(lambda k: ((1.0 + np.abs(k)) ** exponent).astype(np.complex128))


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
    envelope is validated over the stored prefix, never inferred, and its
    class is the vector's.
    """

    domain: IndexDomain
    start: int
    prefix: np.ndarray
    envelope: GrowthEnvelope
    tail: Tail = field(default=ZERO_TAIL)

    def __post_init__(self):
        arr = np.array(self.prefix, dtype=np.complex128, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "prefix", arr)
        if self.domain is IndexDomain.NATURALS and self.start < 0:
            raise PreconditionError("natural-number domain cannot start below 0")
        mags = np.abs(arr)
        # |c| overflows to inf for some finite c, so an infinite |c| is checked on the entries
        if not np.isfinite(mags).all() and not np.isfinite(arr).all():
            k = self.start + int(np.argmin(np.isfinite(arr)))
            raise PreconditionError(f"coefficient at index {k} is not finite")
        if max(abs(self.start), abs(self.stop - 1)) > _INDEX_BOUND:
            raise PreconditionError(f"stored indices {self.start}..{self.stop - 1} reach past 2^62")
        ks = np.arange(self.start, self.stop)
        bounds = self.envelope.constant * (1.0 + np.abs(ks)) ** self.envelope.degree
        bad = np.nonzero(mags > bounds * _ENVELOPE_SLACK + 1e-300)[0]
        if len(bad):
            k = int(ks[bad[0]])
            raise EnvelopeViolation(
                f"coefficient at index {k} has |c|={mags[bad[0]]:.6e}, "
                f"envelope allows {self.envelope.bound(k):.6e}"
            )

    # -- access -------------------------------------------------------------

    @property
    def growth(self) -> GrowthClass:
        return self.envelope.growth

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

    def finite_coeffs(self, indices) -> np.ndarray:
        """coeffs, raising PreconditionError, which names the tail formula and the
        envelope's degree, where a tail value leaves the float range."""
        vals = self.coeffs(indices)
        finite = np.isfinite(vals)
        if not finite.all():
            k = int(np.asarray(indices)[np.argmin(finite)])
            raise PreconditionError(_leaves_float_range(self.tail.name, self.envelope.degree, k))
        return vals

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients for indices lo..hi inclusive, as a fresh array: a copy of
        the prefix slice when the run lies inside the prefix."""
        if self.start <= lo <= hi + 1 <= self.stop:
            return self.prefix[lo - self.start : hi + 1 - self.start].copy()
        return self.coeffs(np.arange(lo, hi + 1))

    def map(self, fn: Callable, envelope: GrowthEnvelope | None = None) -> "CoefficientVector":
        """The vector with coefficients fn(c_k, k), for an fn acting elementwise on
        value and index arrays: on the prefix, and through one closure on the tail.
        The envelope is kept unless given."""
        tail = self.tail
        if not tail.is_zero:
            tail = Tail.closure(lambda k, _b=tail.fn: fn(_b(k), k))
        prefix = fn(self.prefix, np.arange(self.start, self.stop))
        return CoefficientVector(self.domain, self.start, prefix, envelope or self.envelope, tail)

    @property
    def finite_support(self) -> bool:
        return self.tail.is_zero

    def norm_sq_partial(self, extents: Iterable[int]) -> list[float]:
        """Partial sums of |c_k|^2 over expanding symmetric/natural ranges."""
        out = []
        for m in extents:
            idx = np.arange(-m if self.domain is IndexDomain.INTEGERS else 0, m + 1)
            out.append(float(np.sum(np.abs(self.coeffs(idx)) ** 2)))
        return out

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

    def cauchy_extent(self, tol: float) -> int:
        """Smallest probed extent whose certified L2 tail is below tol."""
        start = max(abs(self.start), abs(self.stop - 1), 8)
        message = "envelope cannot certify an L2 tail below tolerance"
        return _certified_extent(self.l2_tail_bound, start, tol, _CAUCHY_EXTENT_CAP, message)

    def abs_tail_extent(self, tol: float) -> int:
        """Smallest doubling of max(stop, 8) past which the envelope bounds the sum
        of |c_k| over k >= it by tol; a degree of -1 or more is steepened to -3 first."""
        env = self.envelope
        if env.degree >= -1.0:
            env = steepen_envelope(self, -3.0)
        bound = lambda n: _tail_integral_bound(env.constant, env.degree, n, False)
        return _certified_extent(bound, max(self.stop, 8), tol, _TAIL_EXTENT_CAP, "tail extent exceeds budget")

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
        """Inverse of to_json; a missing or malformed key raises SpecParseError,
        and so does a "growth" entry that is not the envelope's class."""
        try:
            tail_spec = payload.get("tail", {"name": "zero", "params": []})
            if tail_spec["name"] == "zero":
                tail = ZERO_TAIL
            else:
                tail = Tail.formula(tail_spec["name"], *tail_spec.get("params", []))
            env = payload["envelope"]
            envelope = GrowthEnvelope(env["constant"], env["degree"], env.get("all_orders", False))
            stated = GrowthClass(payload.get("growth", envelope.growth.value))
            vec = CoefficientVector(
                domain=IndexDomain(payload["index_domain"]),
                start=int(payload["start"]),
                prefix=np.array([complex(re, im) for re, im in payload["coefficients"]]),
                envelope=envelope,
                tail=tail,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SpecParseError(f"malformed vector payload: {exc!r}") from None
        if stated is not vec.growth:
            raise SpecParseError(
                f"vector payload states growth {stated.value!r}, its envelope gives {vec.growth.value!r}"
            )
        return vec


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
) -> CoefficientVector:
    """Build a finitely supported vector with an envelope validated against its values.

    growth picks the default degree and the all-orders flag; a degree that puts
    the envelope in another class raises PreconditionError."""
    values = np.asarray(values, dtype=np.complex128)
    if degree is None:
        degree = {
            GrowthClass.RAPID_DECAY: -8.0,
            GrowthClass.SQUARE_SUMMABLE: -1.0,
            GrowthClass.POLYNOMIAL_GROWTH: 0.0,
        }[growth]
    ks = np.arange(start, start + len(values))
    scale = (1.0 + np.abs(ks)) ** degree
    with np.errstate(over="ignore"):
        base = float(np.max(np.abs(values) / scale)) if len(values) else 1.0
    if base == math.inf and np.isfinite(values).all():
        raise PreconditionError(f"the degree {degree:g} envelope constant of the coefficients leaves the float range")
    # a non-finite base falls through to CoefficientVector, which rejects the prefix
    constant = max(base * (1 + 1e-12), 1e-300) if 0 < base < math.inf else 1.0
    envelope = GrowthEnvelope(constant, degree, growth is GrowthClass.RAPID_DECAY)
    if envelope.growth is not growth:
        raise PreconditionError(f"degree {degree} gives a {envelope.growth.value} envelope, not {growth.value}")
    return CoefficientVector(domain, start, values, envelope)


def formula_vector(
    domain: IndexDomain, start: int, stop: int, envelope: GrowthEnvelope, name: str, *params
) -> CoefficientVector:
    """The vector whose every coefficient is the named tail formula: the prefix,
    indices start..stop-1, is the formula there, so prefix and tail cannot disagree."""
    tail = Tail.formula(name, *params)
    values = tail.fn(np.arange(start, stop))
    if not np.isfinite(values).all():
        k = start + int(np.argmin(np.isfinite(values)))
        raise PreconditionError(_leaves_float_range(name, envelope.degree, k))
    return CoefficientVector(domain, start, values, envelope, tail)


def _leaves_float_range(name: str, degree: float, k: int) -> str:
    return f"{name} formula of degree {degree:g} leaves the float range at index {k}"


def steepen_envelope(vec: CoefficientVector, target_degree: float) -> GrowthEnvelope:
    """Validate a steeper envelope for an all-orders (rapid-decay) vector.

    Samples the stored prefix plus tail probes; this realizes the testable
    form of rapid decay rather than a symbolic proof.
    """
    if not vec.envelope.all_orders:
        raise PreconditionError("only all-orders envelopes may be steepened")
    ks = np.arange(vec.start, vec.stop)
    if not vec.finite_support:
        lo = max(abs(vec.start), abs(vec.stop - 1), 1)
        probes = np.arange(lo, min(_STEEPEN_PROBE_EXTENT, 8 * lo) + 1, max(1, lo // 8))
        if vec.domain is IndexDomain.INTEGERS:
            probes = np.concatenate([probes, -probes])
        ks = np.concatenate([ks, probes])
    ratios = np.abs(vec.coeffs(ks)) / (1.0 + np.abs(ks)) ** target_degree
    best = float(np.max(ratios, initial=1e-300))
    return GrowthEnvelope(best * (1 + 1e-9), target_degree, True)


# --- certified truncation ----------------------------------------------------


def _certified_extent(bound: Callable[[int], float], start: int, tol: float, cap: int, message: str) -> int:
    """The first of start, 2 start, 4 start, ... whose tail bound is at most tol.
    A start past cap, or doubling past it, raises BudgetExceeded, with the bound at the
    last extent probed within cap (inf when there is none)."""
    if start > cap:
        raise BudgetExceeded(message, math.inf)
    n = start
    while (b := bound(n)) > tol:
        if 2 * n > cap:
            raise BudgetExceeded(message, b)
        n *= 2
    return n


# --- pairing ----------------------------------------------------------------


def _fsum(*factors: np.ndarray) -> complex:
    """Correctly rounded sum of the elementwise product of the factors, taken
    left to right: math.fsum of its real and of its imaginary parts.

    Exact rounding makes the result independent of the summation order. A
    product or a sum past the float range raises PreconditionError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = functools.reduce(operator.mul, factors)
    try:  # a non-finite term gives a non-finite sum, or ValueError from fsum on inf - inf
        total = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
        if cmath.isfinite(total):
            return total
    except (OverflowError, ValueError):
        pass
    raise PreconditionError("the sum leaves the float range")


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
        # products vanish outside the overlap of the finite supports; the sum is exact
        lo = max(w.start for w in (phi, v) if w.finite_support)
        hi = min(w.stop for w in (phi, v) if w.finite_support) - 1
        return _fsum(phi.dense(lo, hi), v.dense(lo, hi))

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

    start = max(abs(phi.start), abs(phi.stop - 1), abs(v.start), abs(v.stop - 1), 8)
    bound = lambda n: _tail_integral_bound(constant, s, n, two_sided)
    # the largest extent whose 2 extent + 1 (or extent + 1) terms stay within the budget
    cap = (_PAIR_MAX_TERMS - 1) // 2 if two_sided else _PAIR_MAX_TERMS - 1
    message = f"pairing needs more than {_PAIR_MAX_TERMS} terms for abs_tol={abs_tol}"
    extent = _certified_extent(bound, start, abs_tol, cap, message)
    lo = -extent if two_sided else 0
    return _fsum(phi.dense(lo, extent), v.dense(lo, extent))


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
