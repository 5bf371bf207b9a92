"""Mini-language parsing for CLI vector, test-function, and run specs."""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import heisenberg as hb
from . import mollify as mo
from . import torus as tr
from .config import DEFAULT_QUADRATURE, DEFAULT_TOLERANCES, QuadratureSpec, ToleranceTable
from .errors import BudgetExceeded, SpecParseError
from .groups import GroupModel
from .vectors import CoefficientVector

# points of the largest (p, q) grid a spec may ask for (16 Mi; 256 MiB per float64 array)
GRID_POINTS = 1 << 24


def get_model(group: str, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> GroupModel:
    """The named model; the Heisenberg one smooths and pairs at quad."""
    if group == "torus":
        return tr.TORUS
    if group == "heisenberg":
        return hb.with_quadrature(quad)
    raise SpecParseError(f"unknown group {group!r}")


def _numeric(token: str, spec: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SpecParseError(f"bad numeric token {token!r} in spec {spec!r}")
    return value


def _integer(token: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SpecParseError(f"bad integer token {token!r} in spec {spec!r}") from None


TORUS_FORMULAS = {
    "invsq": lambda: tr.inverse_quadratic(1),
    "invsq2": lambda: tr.inverse_quadratic(2),
    "alternating": lambda: tr.alternating(),
}


def parse_vector(group: str, spec: str) -> CoefficientVector:
    head, _, rest = spec.partition(":")
    if head == "json":
        try:
            payload = json.loads(Path(rest).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecParseError(f"cannot load vector file {rest!r}: {exc}") from None
        return CoefficientVector.from_json(payload)
    if group == "torus":
        if head == "unit":
            return tr.unit(_integer(rest, spec))
        if head == "comb":
            return tr.comb()
        if head == "poly":
            return tr.poly(_integer(rest, spec))
        if head == "geometric":
            return tr.geometric(_numeric(rest, spec))
        if head == "formula":
            if rest not in TORUS_FORMULAS:
                raise SpecParseError(f"unknown formula name {rest!r} in spec {spec!r}")
            return TORUS_FORMULAS[rest]()
        raise SpecParseError(f"unknown torus vector token {head!r} in spec {spec!r}")
    if group == "heisenberg":
        if head == "e":
            return hb.unit_vector(_integer(rest, spec))
        if head == "delta":
            return hb.dirac_delta()
        if head == "gauss":
            sigma = _numeric(rest, spec) if rest else 0.75
            return hb.gaussian_vector(sigma)
        if head == "poly-growth":
            return hb.poly_growth_vector(_numeric(rest, spec))
        raise SpecParseError(f"unknown heisenberg vector token {head!r} in spec {spec!r}")
    raise SpecParseError(f"unknown group {group!r}")


def _parse_band(spec: str) -> tr.TorusTestFunction:
    parts = spec.split(":")
    if len(parts) != 3:
        raise SpecParseError(f"band spec needs band:B:<profile>, got {spec!r}")
    B = _integer(parts[1], spec)
    profile = parts[2]
    if profile in ("ones", "fejer", "gauss"):
        return tr.band(B, profile)
    coeffs = []
    for token in profile.split(","):
        try:
            value = complex(token)
        except ValueError:
            value = complex(math.nan)
        if not cmath.isfinite(value):
            raise SpecParseError(f"bad coefficient token {token!r} in spec {spec!r}")
        coeffs.append(value)
    if len(coeffs) != 2 * B + 1:
        raise SpecParseError(
            f"band:{B} needs {2 * B + 1} coefficients, got {len(coeffs)} in {spec!r}"
        )
    return tr.TorusTestFunction(np.array(coeffs, dtype=np.complex128))


def _center(token: str, spec: str) -> tuple:
    token = token.strip()
    if not (token.startswith("(") and token.endswith(")")):
        raise SpecParseError(f"bad center token {token!r} in spec {spec!r}")
    bits = token[1:-1].split(",")
    if len(bits) != 3:
        raise SpecParseError(f"center needs three coordinates in {spec!r}")
    return tuple(_numeric(b, spec) for b in bits)


def _fields(spec: str, kind: str, readers: dict) -> dict:
    """The key=value parts after spec's head, each read by readers[key] = (reader,
    default); keys not given keep their defaults."""
    out = {key: default for key, (_, default) in readers.items()}
    for part in spec.split(":")[1:]:
        key, _, value = part.partition("=")
        if key not in readers:
            raise SpecParseError(f"unknown {kind} key {key!r} in spec {spec!r}")
        out[key] = readers[key][0](value, spec)
    return out


def _parse_bump3(spec: str) -> hb.HTestFunction:
    readers = {"center": (_center, (0.0, 0.0, 0.0)), "radius": (_numeric, 0.25), "mass": (_numeric, 1.0)}
    fields = _fields(spec, "bump3", readers)
    if fields["radius"] <= 0:
        raise SpecParseError(f"bump radius must be positive in spec {spec!r}")
    f = mo.standard_mollifier(hb.HEISENBERG, n=1, radius=fields["radius"])
    if fields["mass"] != 1.0:
        f = fields["mass"] * f
    c = hb.HeisenbergElement(*fields["center"])
    if c != hb.IDENTITY:
        f = f.left_translate(c)
    return f


def parse_test_function(group: str, spec: str):
    head = spec.split(":", 1)[0]
    if group == "torus":
        if head == "band":
            return _parse_band(spec)
        raise SpecParseError(f"unknown torus test-function token {head!r} in spec {spec!r}")
    if group == "heisenberg":
        if head == "bump3":
            return _parse_bump3(spec)
        raise SpecParseError(
            f"unknown heisenberg test-function token {head!r} in spec {spec!r}"
        )
    raise SpecParseError(f"unknown group {group!r}")


def parse_mollifier(spec: str) -> tuple[int, float]:
    """"mollifier:n=<k>:radius=<rho>", or a bare index k at radius 0.25 -> (n, radius)."""
    if spec.split(":")[0] == "mollifier":
        fields = _fields(spec, "mollifier", {"n": (_integer, None), "radius": (_numeric, 0.25)})
    else:
        fields = {"n": _integer(spec, spec), "radius": 0.25}
    if fields["n"] is None or fields["n"] < 1:
        raise SpecParseError(f"mollifier spec needs n >= 1: {spec!r}")
    return fields["n"], fields["radius"]


def parse_grid(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """"p0:p1:np,q0:q1:nq" -> (p values, q values).

    A grid of more than GRID_POINTS points raises BudgetExceeded before any axis is built.
    """
    parts = spec.split(",")
    if len(parts) != 2:
        raise SpecParseError(f"grid spec needs two axes, got {spec!r}")
    axes = []
    for part in parts:
        bits = part.split(":")
        if len(bits) != 3:
            raise SpecParseError(f"bad grid axis {part!r} in spec {spec!r}")
        lo, hi = _numeric(bits[0], spec), _numeric(bits[1], spec)
        count = _integer(bits[2], spec)
        if count < 1:
            raise SpecParseError(f"grid axis needs at least one point in {spec!r}")
        axes.append((lo, hi, count))
    points = axes[0][2] * axes[1][2]
    if points > GRID_POINTS:
        raise BudgetExceeded(f"grid of {points} points is past the limit of {GRID_POINTS}", math.inf)
    return np.linspace(*axes[0]), np.linspace(*axes[1])


def parse_n_list(spec: str) -> list[int]:
    out = []
    for token in spec.split(","):
        n = _integer(token, spec)
        if n < 1:
            raise SpecParseError(f"mollifier index must be >= 1, got {token!r}")
        out.append(n)
    return out


# --------------------------------------------------------------------------
# run configuration
# --------------------------------------------------------------------------

_RUNCONFIG_KEYS = {"seed", "output", "tolerances", "quadrature"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class RunConfig:
    seed: int = 20260808
    output: str | None = None
    tolerances: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (_is_int(self.seed) and self.seed >= 0):
            raise SpecParseError("seed must be a nonnegative integer")
        if not isinstance(self.output, (str, type(None))):
            raise SpecParseError("output must be a path")
        tables = (("tolerance", DEFAULT_TOLERANCES, self.tolerances),
                  ("quadrature", DEFAULT_QUADRATURE, self.quadrature))
        for table, defaults, given in tables:
            if not isinstance(given, dict):
                raise SpecParseError(f"{table} settings must be an object")
            for key, value in given.items():
                if key not in defaults.__dataclass_fields__:
                    raise SpecParseError(f"unknown {table} key {key!r}")
                if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value < math.inf):
                    raise SpecParseError(f"{table} {key!r} must be positive and finite")
                if _is_int(getattr(defaults, key)) and not _is_int(value):
                    raise SpecParseError(f"{table} {key!r} must be an integer")

    @staticmethod
    def from_json(path: str) -> "RunConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecParseError(f"cannot load config {path!r}: {exc}") from None
        if not isinstance(payload, dict):
            raise SpecParseError(f"config {path!r} must hold an object")
        unknown = set(payload) - _RUNCONFIG_KEYS
        if unknown:
            raise SpecParseError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**payload)

    def tolerance_table(self) -> ToleranceTable:
        return ToleranceTable(**self.tolerances)

    def quadrature_spec(self) -> QuadratureSpec:
        return QuadratureSpec(**self.quadrature)
