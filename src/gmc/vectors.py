"""Indexed coefficient families with growth classes, and their dual pairing.

A CoefficientVector stores a finite prefix of complex coefficients plus an
optional formula tail, together with a growth envelope |c_k| <= C (1+|k|)^r rho^|k|.
The envelope alone decides the growth class: rapid-decay vectors (all orders)
play the role of smooth vectors, square-summable vectors (r < -1/2) sit in
between, and polynomial-growth vectors are the distribution vectors.

Tails are array-valued: a formula maps an int64 index array to a complex128
array, so reading a range of coefficients is one prefix slice plus one tail call.
Each formula states its envelope. A formula_vector is its tail formula on the stored
indices too, under that envelope, and every coefficient-wise operator acts on
prefix and tail alike through CoefficientVector.map.

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
    """Bound |c_k| <= constant * (1+|k|)**degree * ratio**|k|, with 0 < ratio <= 1.

    all_orders marks rapid decay: the bound is claimed for every steeper
    (more negative) exponent with some finite constant, which steepen_envelope
    gives in closed form; an infinite vector claims it only with ratio < 1.
    """

    constant: float
    degree: float
    all_orders: bool = False
    ratio: float = 1.0

    def __post_init__(self):
        if not (self.constant > 0 and math.isfinite(self.constant)):
            raise ValueError(f"envelope constant must be positive, got {self.constant}")
        if not math.isfinite(self.degree):
            raise ValueError(f"envelope degree must be finite, got {self.degree}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"envelope ratio must lie in (0, 1], got {self.ratio}")

    @np.errstate(over="ignore")  # a bound past the float range is inf, which bounds every value
    def bound(self, k):
        # below ratio 1 in log form, so that ratio**|k| underflows only where the bound does
        if self.ratio == 1.0:
            return self.constant * (1.0 + abs(k)) ** self.degree
        return np.exp(math.log(self.constant) + self.degree * np.log1p(abs(k)) + abs(k) * math.log(self.ratio))

    @property
    def growth(self) -> GrowthClass:
        """The class the bound certifies: all orders is rapid decay, and a degree
        below -1/2 makes sum (1+|k|)^(2 degree) finite, hence square-summable."""
        if self.all_orders:
            return GrowthClass.RAPID_DECAY
        return GrowthClass.SQUARE_SUMMABLE if self.degree < -0.5 else GrowthClass.POLYNOMIAL_GROWTH


# --- formula tails ---------------------------------------------------------
# Each factory returns (fn, envelope): fn maps an int64 index array to a complex128 array under envelope.

TailFn = Callable[[np.ndarray], np.ndarray]


def _formula_constant(name: str, degree: float, log2: float, slack: float = 1.0) -> float:
    """The envelope constant 2^log2 times slack, or a PreconditionError naming the
    formula and its degree where it leaves the float range."""
    constant = 2.0**log2 * slack if log2 < 1024 else math.inf
    if not math.isfinite(constant):
        raise PreconditionError(f"the envelope constant of the {name} formula of degree {degree:g} leaves the float range")
    return constant


def _tail_const(value: float = 1.0) -> tuple[TailFn, GrowthEnvelope]:
    return (lambda k: np.full(k.shape, complex(value))), GrowthEnvelope(max(abs(value), 1e-300), 0.0)


def _tail_geometric(ratio: float) -> tuple[TailFn, GrowthEnvelope]:
    if not 0 < abs(ratio) < 1:
        raise PreconditionError("geometric ratio must satisfy 0 < |ratio| < 1")
    # from this exponent on |ratio|^e is below 2^-1076 and pow returns a zero, slowly,
    # so the zeros are written instead, with the sign pow gives a negative ratio
    reach = 1076.0 * math.log(2.0) / -math.log(abs(ratio)) + 1.0
    negative = not isinstance(ratio, complex) and ratio < 0

    def fn(k: np.ndarray) -> np.ndarray:
        e = np.abs(k).astype(float)
        live = e < reach
        out = np.zeros(e.shape, dtype=np.complex128)
        out[live] = ratio ** e[live]
        if negative:
            out[~live & (e % 2 == 1)] = -0.0
        return out

    return fn, GrowthEnvelope(1.0, 0.0, all_orders=True, ratio=abs(ratio))


def _tail_power(exponent: float) -> tuple[TailFn, GrowthEnvelope]:
    def fn(k: np.ndarray) -> np.ndarray:
        kf = k.astype(float)
        base = kf if exponent == int(exponent) else np.abs(kf)
        with np.errstate(divide="ignore", over="ignore"):
            vals = base**exponent
        return np.where(k == 0, 1.0 if exponent == 0 else 0.0, vals).astype(np.complex128)

    # |k|^e <= (1+|k|)^e for e >= 0, and <= 2^-e (1+|k|)^e for e < 0 and k != 0
    return fn, GrowthEnvelope(_formula_constant("power", exponent, max(-exponent, 0.0)), exponent)


def _tail_shifted_power(exponent: float) -> tuple[TailFn, GrowthEnvelope]:
    fn = np.errstate(over="ignore")(lambda k: ((1.0 + np.abs(k)) ** exponent).astype(np.complex128))
    return fn, GrowthEnvelope(1.0 + 1e-12, exponent)


def _tail_inv_quadratic(power: int) -> tuple[TailFn, GrowthEnvelope]:
    fn = np.errstate(over="ignore")(lambda k: ((1.0 + k.astype(float) ** 2) ** (-power)).astype(np.complex128))
    # (1+|k|)^2 / 2 <= 1+k^2 <= (1+|k|)^2, so (1+k^2)^{-p} <= 2^max(p, 0) (1+|k|)^{-2p}
    constant = _formula_constant("inv_quadratic", -2.0 * power, max(power, 0), 1 + 1e-12)
    return fn, GrowthEnvelope(constant, -2.0 * power)


def _tail_hermite_zero() -> tuple[TailFn, GrowthEnvelope]:
    from .hermite import hermite_at_zero_values

    return (lambda k: hermite_at_zero_values(k).astype(np.complex128)), GrowthEnvelope(1.2, 0.0)


TAIL_FORMULAS: Mapping[str, Callable[..., tuple[TailFn, GrowthEnvelope]]] = {
    "const": _tail_const,
    "geometric": _tail_geometric,
    "power": _tail_power,
    "shifted_power": _tail_shifted_power,
    "inv_quadratic": _tail_inv_quadratic,
    "hermite_zero": _tail_hermite_zero,
    "alternating": lambda: (lambda k: np.where(k % 2 == 0, 1.0, -1.0).astype(np.complex128), GrowthEnvelope(1.0, 0.0)),
}


@dataclass(frozen=True)
class Tail:
    """Coefficients outside the stored prefix: exactly zero, or a formula and its envelope."""

    name: str = "zero"
    params: tuple = ()
    fn: Optional[TailFn] = None
    envelope: Optional[GrowthEnvelope] = None

    @staticmethod
    def zero() -> "Tail":
        return Tail()

    @staticmethod
    def formula(name: str, *params) -> "Tail":
        if name not in TAIL_FORMULAS:
            raise SpecParseError(f"unknown tail formula {name!r}")
        if any(isinstance(p, (int, float, complex)) and not cmath.isfinite(p) for p in params):
            raise PreconditionError(f"the {name} formula needs finite parameters, got {params}")
        return Tail(name, tuple(params), *TAIL_FORMULAS[name](*params))

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
    class is the vector's; with a tail, all orders need a ratio below 1.
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
        if self.envelope.all_orders and self.envelope.ratio == 1.0 and not self.tail.is_zero:
            raise PreconditionError("an infinite vector claims all orders only with an envelope ratio below 1")
        ks = np.arange(self.start, self.stop)
        bad = np.nonzero(mags > self.envelope.bound(ks) * _ENVELOPE_SLACK + 1e-300)[0]
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
        the prefix slice when the run lies inside the prefix. A tail value past the
        float range raises as in finite_coeffs."""
        if self.start <= lo <= hi + 1 <= self.stop:
            return self.prefix[lo - self.start : hi + 1 - self.start].copy()
        return self.finite_coeffs(np.arange(lo, hi + 1))

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
        if self.finite_support and extent >= max(abs(self.start), abs(self.stop - 1)):
            return 0.0
        # an all-orders vector is steepened past the extent to degree -1, as pair steepens it
        env = steepen_envelope(self, -1.0, extent + 1) if self.envelope.all_orders else self.envelope
        return _tail_integral_bound(env.constant**2, 2.0 * env.degree, extent, self.domain is IndexDomain.INTEGERS)

    def cauchy_extent(self, tol: float) -> int:
        """Smallest probed extent whose certified L2 tail is below tol."""
        start = max(abs(self.start), abs(self.stop - 1), 8)
        message = "envelope cannot certify an L2 tail below tolerance"
        return _certified_extent(self.l2_tail_bound, start, tol, _CAUCHY_EXTENT_CAP, message)

    def abs_tail_extent(self, tol: float) -> int:
        """Smallest doubling n of max(stop, 8) past which the envelope bounds the sum
        of |c_k| over k > n by tol, by pair's rule (_product_tail_bound against 1)."""
        bound = _product_tail_bound(self, GrowthEnvelope(1.0, 0.0), False)
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
                "ratio": self.envelope.ratio,
            },
            "growth": self.growth.value,
        }

    @staticmethod
    def from_json(payload: Mapping) -> "CoefficientVector":
        """Inverse of to_json; a missing or malformed key raises SpecParseError, and so
        do a "growth" that is not the envelope's class and an envelope below the tail's."""
        try:
            tail_spec = payload.get("tail", {"name": "zero", "params": []})
            if tail_spec["name"] == "zero":
                tail = ZERO_TAIL
            else:
                tail = Tail.formula(tail_spec["name"], *tail_spec.get("params", []))
            envelope = GrowthEnvelope(**payload["envelope"])
            stated = GrowthClass(payload.get("growth", envelope.growth.value))
            vec = CoefficientVector(
                domain=IndexDomain(payload["index_domain"]),
                start=int(payload["start"]),
                prefix=np.array([complex(re, im) for re, im in payload["coefficients"]]),
                envelope=envelope,
                tail=tail,
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError, PreconditionError) as exc:
            raise SpecParseError(f"malformed vector payload: {exc!r}") from None
        if stated is not vec.growth:
            raise SpecParseError(
                f"vector payload states growth {stated.value!r}, its envelope gives {vec.growth.value!r}"
            )
        own = tail.envelope  # the formula's, bounded by the stated one: log sup_k own/envelope <= 0
        if own is not None and math.log(own.constant) - math.log(envelope.constant) + _log_peak(
            own.degree - envelope.degree, own.ratio / envelope.ratio, 0
        ) > math.log(_ENVELOPE_SLACK):
            raise SpecParseError(f"vector payload's envelope does not bound its {tail.name} tail's, {own}")
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


def formula_vector(domain: IndexDomain, start: int, stop: int, name: str, *params) -> CoefficientVector:
    """The vector whose every coefficient is the named tail formula, under its envelope:
    the prefix, indices start..stop-1, is the formula there, so prefix and tail cannot disagree."""
    tail = Tail.formula(name, *params)
    values = tail.fn(np.arange(start, stop))
    if not np.isfinite(values).all():
        k = start + int(np.argmin(np.isfinite(values)))
        raise PreconditionError(_leaves_float_range(name, tail.envelope.degree, k))
    return CoefficientVector(domain, start, values, tail.envelope, tail)


def _leaves_float_range(name: str, degree: float, k: int) -> str:
    return f"{name} formula of degree {degree:g} leaves the float range at index {k}"


def _log_peak(degree: float, ratio: float, start: int) -> float:
    """max over integers k >= start of log((1+k)^degree ratio^k), inf where unbounded. It is
    concave in k, with its top at 1 + k = degree / -log(ratio), when degree > 0, else nonincreasing."""
    log_ratio = math.log(ratio)
    if log_ratio > 0.0 or (log_ratio == 0.0 and degree > 0.0):
        return math.inf
    top = max(start, min(degree / -log_ratio - 1.0, _INDEX_BOUND)) if degree > 0.0 else start
    return max(degree * math.log1p(k) + k * log_ratio for k in (math.floor(top), math.ceil(top)))


def steepen_envelope(vec: CoefficientVector, degree: float, start: int = 0) -> GrowthEnvelope:
    """An envelope of the given degree for an all-orders vector at |k| >= start, in closed form:
    a finite vector's largest stored |c_k| / (1+|k|)^degree there, an infinite one's
    C max_{|k|>=start} (1+|k|)^(r - degree) rho^|k| for its envelope (C, r, rho).
    A constant past the float range raises BudgetExceeded."""
    if not vec.envelope.all_orders:
        raise PreconditionError("only all-orders envelopes may be steepened")
    if vec.finite_support:
        ks = np.abs(np.arange(vec.start, vec.stop))
        with np.errstate(divide="ignore"):  # a zero coefficient has log -inf and bounds nothing
            logs = np.log(np.abs(vec.prefix)) - degree * np.log1p(ks)
        log_constant = float(np.max(logs[ks >= start], initial=-math.inf))
    else:
        env = vec.envelope
        log_constant = math.log(env.constant) + _log_peak(env.degree - degree, env.ratio, start)
    if not log_constant <= 709.0:  # exp stays finite through the slack
        raise BudgetExceeded(f"the degree {degree:g} envelope constant leaves the float range", math.inf)
    return GrowthEnvelope(max(math.exp(log_constant), 1e-300) * (1 + 1e-9), degree, True)


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


# every finite float is an integer multiple of 2^-1074
_UNIT = 1 << 1074


def _units(x: float) -> int:
    """x / 2^-1074, exactly."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _centred_fsums(*factors: np.ndarray) -> list[complex]:
    """_fsum over the middle 1, 3, 5, ... terms of the elementwise product of the
    factors (an odd number of terms), in one pass.

    The running sums are kept exactly, as integers in units of 2^-1074, and each is
    rounded once by int / int true division, which is correctly rounded: the bits
    of _fsum on each prefix, and the same PreconditionError past the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = functools.reduce(operator.mul, factors)
    if not np.isfinite(z).all():
        raise PreconditionError("the sum leaves the float range")
    re, im = z.real.tolist(), z.imag.tolist()
    c = len(z) // 2
    sr, si, sums = _units(re[c]), _units(im[c]), []
    try:
        for k in range(c + 1):
            if k:  # each term is converted as it is added, so no list of big integers is held
                sr += _units(re[c - k]) + _units(re[c + k])
                si += _units(im[c - k]) + _units(im[c + k])
            sums.append(complex(sr / _UNIT, si / _UNIT))
    except OverflowError:
        raise PreconditionError("the sum leaves the float range") from None
    return sums


def _tail_integral_bound(constant: float, s: float, extent: int, two_sided: bool) -> float:
    """Bound C * sum_{|k|>extent} (1+|k|)^s by the integral estimate."""
    if s >= -1.0:
        return math.inf
    one_side = constant * (1.0 + extent) ** (s + 1.0) / (-(s + 1.0))
    return 2.0 * one_side if two_sided else one_side


def _product_tail_bound(a: CoefficientVector, env: GrowthEnvelope, two_sided: bool) -> Callable[[int], float]:
    """n -> a bound on sum_{|k|>n} |a_k| C (1+|k|)^r, for env = (C, r): by the sum of the degrees or,
    when a has all orders, with a steepened past n to degree -(r + 2), so the terms fall as (1+|k|)^-2."""
    e = a.envelope
    if not e.all_orders:
        return lambda n: _tail_integral_bound(e.constant * env.constant, e.degree + env.degree, n, two_sided)
    steep = lambda n: steepen_envelope(a, -(env.degree + 2.0), n + 1).constant
    return lambda n: _tail_integral_bound(env.constant * steep(n), -2.0, n, two_sided)


def pair(
    phi: CoefficientVector,
    v: CoefficientVector,
    abs_tol: float = 1e-12,
) -> complex:
    """Bilinear pairing sum_k phi_k v_k with adaptive envelope-certified cutoff.

    Exactly one side may carry polynomial growth; two polynomial-growth
    vectors are only paired through a smoothing operator, never directly.
    With a finitely supported side the sum is exact; otherwise the extent doubles
    until _product_tail_bound, led by an all-orders side, certifies abs_tol.
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

    a, b = (v, phi) if v.envelope.all_orders else (phi, v)
    if not a.envelope.all_orders and a.envelope.degree + b.envelope.degree >= -1.0:
        raise BudgetExceeded("declared envelopes do not certify a convergent pairing", math.inf)
    bound = _product_tail_bound(a, b.envelope, two_sided)

    start = max(abs(phi.start), abs(phi.stop - 1), abs(v.start), abs(v.stop - 1), 8)
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
