"""Seeded request lists for the four benchmark workloads.

A run is a number of blocks. Every block holds the same op classes in the
same numbers, so every run has the request mix the workload declares. The
parameters of each op class form a centred Latin hypercube over the run
(Design), and parameters that set a request's cost together come from one
stratified coordinate (Draw.joint). Every seed thus draws the same cost
combinations in a different order and pairing, which keeps the run's total
cost steady while the requests themselves differ.

Requests never carry gmc objects; they are argv lists for the CLI or plain
parameter tuples that the library ops in run.py turn into gmc calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Request:
    op: str  # op class, e.g. "cli.mollify-torus"
    argv: tuple = ()  # for CLI ops
    params: dict = field(default_factory=dict)  # for library ops, and what the oracle needs


class Design:
    """Centred Latin hypercube columns for the m requests of one op class in a run.

    Column values are the stratum midpoints (i + 1/2) / m in a seeded order,
    so a run's set of values in each dimension is the same for every seed;
    the seed decides how they pair up across dimensions and requests.
    """

    def __init__(self, seed: int, stream: int, m: int):
        self.rng = np.random.default_rng([seed, stream])
        self.m = m
        self.columns: list[np.ndarray] = []

    def value(self, index: int, dim: int) -> float:
        while len(self.columns) <= dim:
            self.columns.append((self.rng.permutation(self.m) + 0.5) / self.m)
        return float(self.columns[dim][index])


class Draw:
    """Successive dimensions of one request's point in a Design."""

    def __init__(self, design: Design, index: int):
        self.design = design
        self.index = index
        self.dim = 0

    def u(self) -> float:
        value = self.design.value(self.index, self.dim)
        self.dim += 1
        return value

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u()

    def integer(self, lo: int, hi: int) -> int:
        """Integer in lo..hi inclusive."""
        return lo + min(int(self.u() * (hi - lo + 1)), hi - lo)

    def choice(self, options):
        return options[self.integer(0, len(options) - 1)]

    def joint(self, count: int) -> list[float]:
        """count coordinates in [0, 1) fixed by one stratified coordinate.

        For parameters that set a request's cost together: every seed gets
        the same combinations, so the run's total cost stays put, and the
        seed only decides which request gets which combination.
        """
        u = self.u()
        return [u] + [(u * _GOLDEN * f) % 1.0 for f in (8, 13, 21, 34, 55, 89, 144)[: count - 1]]


def _fmt(x: float) -> str:
    return format(x, ".6g")


# --------------------------------------------------------------------------
# circle-mollify
# --------------------------------------------------------------------------

_GOLDEN = (1.0 + 5.0**0.5) / 2.0
_CIRCLE_VECTORS = ("comb", "poly", "geometric", "formula")
_FORMULAS = ("invsq", "invsq2", "alternating")
_PROFILES = ("fejer", "gauss", "ones")


def _circle_vector(d) -> str:
    kind = d.choice(_CIRCLE_VECTORS)
    r = d.integer(0, 2)
    q = d.uniform(0.2, 0.8)
    name = d.choice(_FORMULAS)
    if kind == "poly":
        return f"poly:{r}"
    if kind == "geometric":
        return f"geometric:{_fmt(q)}"
    if kind == "formula":
        return f"formula:{name}"
    return "comb"


def _band(d) -> str:
    return f"band:{d.integer(4, 16)}:{d.choice(_PROFILES)}"


def mollify_torus(d) -> Request:
    u, v = d.joint(2)
    n = round(4 * 16**u)  # log-uniform over 4..64
    radius = round(0.15 + 0.15 * v, 4)
    eta, zeta, band = _circle_vector(d), _circle_vector(d), _band(d)
    argv = ("mollify", "--group", "torus", eta, zeta, band, "--n", str(n), "--radius", repr(radius))
    return Request("cli.mollify-torus", argv, {"eta": eta, "zeta": zeta, "band": band, "n": [n], "radius": radius})


def torus_series(d) -> Request:
    coeffs, band = _circle_vector(d), _band(d)
    B = int(band.split(":")[1])
    m_max = d.integer(B // 2, B + 4)
    argv = ("torus-series", coeffs, band, "--m-max", str(m_max))
    return Request("cli.torus-series", argv, {"coeffs": coeffs, "band": band, "m_max": m_max})


def torus_pointwise(d) -> Request:
    a = f"geometric:{_fmt(d.uniform(0.2, 0.7))}"
    b = d.choice(("comb", f"poly:{d.integer(0, 2)}", "formula:alternating", "formula:invsq"))
    ts = [round(d.uniform(0.0, 1.0), 6) for _ in range(3)]
    return Request("lib.torus-pointwise", (), {"a": a, "b": b, "t": ts})


# --------------------------------------------------------------------------
# heisenberg-smooth
# --------------------------------------------------------------------------

_RADII = (0.4, 0.5, 0.6, 0.7, 0.8)


def _hvector(d, kinds) -> str:
    kind = d.choice(kinds)
    k = d.integer(0, 8)
    sigma = d.uniform(0.75, 1.33)
    r = d.uniform(0.0, 1.5)
    if kind == "e":
        return f"e:{k}"
    if kind == "gauss":
        return f"gauss:{_fmt(sigma)}"
    if kind == "poly-growth":
        return f"poly-growth:{_fmt(r)}"
    return "delta"


def _element(d, scale: float) -> tuple:
    return tuple(round(d.uniform(-scale, scale), 6) for _ in range(3))


def functional(degree: int):
    """Builder of <pi(T f) phi, psi> requests with a derivative chain of this degree."""

    def build(d) -> Request:
        # bump size, translation side, derivative letters and sides set the
        # cost (and whether the finite differences converge) together
        u_n, u_radius, u_move, u_a, u_b, u_side, u_split = d.joint(7)
        n = 1 + min(int(u_n * 4), 3)
        radius = _RADII[min(int(u_radius * len(_RADII)), len(_RADII) - 1)]
        phi = _hvector(d, ("e", "delta", "gauss", "poly-growth"))
        psi = _hvector(d, ("e", "gauss"))
        ops = []
        # at most one translation, on either side; degree-2 chains go
        # untranslated, since the shear would multiply their node count again
        move = min(int(u_move * 3), 2) if degree < 2 else 0
        g = _element(d, 0.3)
        if move == 1:
            ops.append(("Lt", g))
        elif move == 2:
            ops.append(("Rt", g))
        letters = "".join("PQZ"[min(int(u * 3), 2)] for u in (u_a, u_b))[:degree]
        side = "Ld" if u_side < 0.5 else "Rd"
        split = u_split < 0.5
        if degree == 2 and split:
            # one derivative on each side
            ops.insert(d.integer(0, len(ops)), ("Ld", letters[0]))
            ops.append(("Rd", letters[1]))
        elif degree:
            ops.insert(d.integer(0, len(ops)), (side, letters))
        return Request(
            f"lib.functional-deg{degree}",
            (),
            {"phi": phi, "psi": psi, "n": n, "radius": radius, "ops": tuple(ops)},
        )

    return build


def mollify_heisenberg(d) -> Request:
    n1, n2, pair = d.integer(1, 4), d.integer(1, 4), d.u() < 0.5
    ns = sorted({n1, n2}) if pair else [n1]
    bump_radius = d.choice(_RADII)
    eta = _hvector(d, ("e", "delta", "poly-growth"))
    zeta = f"e:{d.integer(0, 8)}"
    center = _element(d, 0.3)
    mass = round(d.uniform(0.5, 2.0), 4)
    bump = "bump3:center=({},{},{}):radius={}:mass={}".format(*center, bump_radius, mass)
    argv = ("mollify", "--group", "heisenberg", eta, zeta, bump, "--n", ",".join(map(str, ns)))
    return Request(
        "cli.mollify-heisenberg",
        argv,
        {"eta": eta, "zeta": zeta, "center": center, "bump_radius": bump_radius,
         "mass": mass, "n": ns, "radius": 0.25},
    )


# --------------------------------------------------------------------------
# wigner-table
# --------------------------------------------------------------------------


def wigner(lo: int, hi: int):
    """Builder of `gmc wigner` requests whose Hermite index k lies in lo..hi."""

    def build(d) -> Request:
        # index, partner kinds, growth, grid size and reach set the cost together
        u_k, u_phi, u_psi, u_np, u_nq, u_ext, u_r = d.joint(7)
        k = lo + min(int(u_k * (hi - lo + 1)), hi - lo)
        np_, nq = 5 + min(int(u_np * 5), 4), 5 + min(int(u_nq * 5), 4)
        ext_p = ext_q = 0.5 + 1.5 * u_ext
        r = 1.5 * u_r
        j = min(max(k + d.integer(-8, 8), 0), 600)
        sigma_phi, sigma_psi = d.uniform(0.75, 1.33), d.uniform(0.75, 1.33)
        psi = f"e:{k}" if u_psi < 0.75 else f"gauss:{_fmt(sigma_psi)}"
        phis = (f"e:{j}", f"gauss:{_fmt(sigma_phi)}", "delta", f"poly-growth:{_fmt(r)}")
        phi = phis[min(int(u_phi * 4), 3)]
        grid = f"{_fmt(-ext_p)}:{_fmt(ext_p)}:{np_},{_fmt(-ext_q)}:{_fmt(ext_q)}:{nq}"
        return Request("cli.wigner", ("wigner", phi, psi, f"--grid={grid}"), {"phi": phi, "psi": psi, "grid": grid})

    return build


# --------------------------------------------------------------------------
# verify-suites
# --------------------------------------------------------------------------

SUITES = (
    "uea",
    "torus-covariance",
    "heisenberg-covariance",
    "mollifier",
    "smoothing",
    "structure",
)


def verify(suite: str):
    def build(d) -> Request:
        argv = ("verify", suite, "--seed", str(d.integer(0, 2**31 - 1)))
        return Request("cli.verify", argv, {"suite": suite})

    return build


# --------------------------------------------------------------------------
# the workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple  # (count per block, builder taking a Draw)
    nominal_block_s: float  # block time the run length is planned with (see README)
    setup: Request  # smallest canonical request, timed in a fresh interpreter

    def requests(self, seed: int, blocks: int) -> list[Request]:
        """The run's requests, block by block, each block in class order."""
        designs = [Design(seed, c, count * blocks) for c, (count, _) in enumerate(self.classes)]
        out = []
        for block in range(blocks):
            for design, (count, build) in zip(designs, self.classes):
                out.extend(build(Draw(design, block * count + i)) for i in range(count))
        return out


WORKLOADS = {
    "circle-mollify": Workload(
        "circle-mollify",
        ((3, mollify_torus), (1, torus_series), (1, torus_pointwise)),
        4.0,
        Request(
            "cli.torus-series",
            ("torus-series", "comb", "band:8:fejer", "--m-max", "12"),
            {"coeffs": "comb", "band": "band:8:fejer", "m_max": 12},
        ),
    ),
    "heisenberg-smooth": Workload(
        "heisenberg-smooth",
        ((3, functional(0)), (2, functional(1)), (1, functional(2)), (1, mollify_heisenberg)),
        3.5,
        Request(
            "cli.mollify-heisenberg",
            ("mollify", "--group", "heisenberg", "delta", "e:0", "bump3:center=(0,0,0):radius=0.4:mass=1", "--n", "2"),
            {"eta": "delta", "zeta": "e:0", "center": (0.0, 0.0, 0.0), "bump_radius": 0.4,
             "mass": 1.0, "n": [2], "radius": 0.25},
        ),
    ),
    "wigner-table": Workload(
        "wigner-table",
        ((4, wigner(0, 50)), (2, wigner(50, 250)), (1, wigner(250, 600))),
        1.7,
        Request(
            "cli.wigner",
            ("wigner", "e:0", "e:0", "--grid=-1:1:5,-1:1:5"),
            {"phi": "e:0", "psi": "e:0", "grid": "-1:1:5,-1:1:5"},
        ),
    ),
    "verify-suites": Workload(
        "verify-suites",
        tuple((1, verify(suite)) for suite in SUITES),
        17.0,
        Request("cli.verify", ("verify", "uea"), {"suite": "uea"}),
    ),
}
