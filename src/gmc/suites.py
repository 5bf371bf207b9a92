"""Named verification suites driving the per-module property sets.

Each suite returns PropertyResult rows; a row passes when its measured value
is within the bound (kind "max") or reaches it (kind "min"). The CLI's
verify subcommand prints one line per row and exits nonzero when any fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import functionals as fn
from . import heisenberg as hb
from . import mollify as mo
from . import torus as tr
from .config import DEFAULT_QUADRATURE, DEFAULT_TOLERANCES, QuadratureSpec, ToleranceTable
from .errors import SpecParseError
from .groups import factorize
from .uea import UEAElement, uea_antipode, uea_multiply, uea_transpose
from .vectors import (
    GrowthClass,
    IndexDomain,
    fitted_decay_exponent,
    pair,
    vector_from_prefix,
)

HP = UEAElement.generator(hb.HEISENBERG_STRUCTURE, "P")
HQ = UEAElement.generator(hb.HEISENBERG_STRUCTURE, "Q")
HZ = UEAElement.generator(hb.HEISENBERG_STRUCTURE, "Z")
TX = UEAElement.generator(tr.TORUS_STRUCTURE, "X")

# random cases of the torus covariance suite
TORUS_CASES = 200


@dataclass(frozen=True)
class PropertyResult:
    name: str
    value: float
    bound: float
    kind: str = "max"  # "max": value <= bound passes; "min": value >= bound passes

    @property
    def passed(self) -> bool:
        if self.kind == "max":
            return self.value <= self.bound
        return self.value >= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        rel = "<=" if self.kind == "max" else ">="
        return f"{status} {self.name}: value={self.value:.6e} {rel} bound={self.bound:.6e}"


def _element_gap(a: UEAElement, b: UEAElement) -> float:
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.coefficient(k) - b.coefficient(k)) for k in keys), default=0.0)


def _worst_rise(values: list[float]) -> float:
    """Largest increase between consecutive values; 0.0 when they never increase."""
    return max([0.0] + [later - earlier for earlier, later in zip(values, values[1:])])


def _random_uea(structure, rng, degree=2, span=4) -> UEAElement:
    terms = {}
    for _ in range(span):
        alpha = tuple(int(rng.integers(0, degree + 1)) for _ in structure.labels)
        if sum(alpha) <= degree:
            terms[alpha] = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
    return UEAElement(structure, terms)


# --------------------------------------------------------------------------


def suite_uea(seed: int, tolerances: ToleranceTable) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    confluence = 0.0
    involution = 0.0
    antihom = 0.0
    antipode = 0.0
    for _ in range(30):
        a, b, c = (_random_uea(hb.HEISENBERG_STRUCTURE, rng) for _ in range(3))
        confluence = max(
            confluence, _element_gap(uea_multiply(uea_multiply(a, b), c), uea_multiply(a, uea_multiply(b, c)))
        )
        involution = max(involution, _element_gap(uea_transpose(uea_transpose(a)), a))
        antihom = max(
            antihom,
            _element_gap(
                uea_transpose(uea_multiply(a, b)),
                uea_multiply(uea_transpose(b), uea_transpose(a)),
            ),
        )
        antipode = max(antipode, _element_gap(uea_antipode(a), uea_transpose(a)))
    torus_sq = _element_gap(TX * TX, UEAElement.monomial(tr.TORUS_STRUCTURE, (2,)))
    qp = _element_gap(
        HQ * HP, UEAElement(hb.HEISENBERG_STRUCTURE, {(1, 1, 0): 1.0, (0, 0, 1): -1.0})
    )
    # [P, Q] = Z through the representation
    vals = rng.normal(size=12) + 1j * rng.normal(size=12)
    phi = vector_from_prefix(IndexDomain.NATURALS, 0, vals, GrowthClass.RAPID_DECAY)
    comm = hb.act_algebra(HP * HQ - HQ * HP, phi)
    zphi = hb.act_algebra(HZ, phi)
    weyl = max(abs(comm.coeff(k) - zphi.coeff(k)) for k in range(16))
    return [
        PropertyResult("normal-ordering-confluence", confluence, 0.0),
        PropertyResult("transpose-involution", involution, 0.0),
        PropertyResult("transpose-antiautomorphism", antihom, 0.0),
        PropertyResult("antipode-equals-transpose", antipode, 0.0),
        PropertyResult("torus-relation-table", torus_sq, 0.0),
        PropertyResult("heisenberg-qp-normal-form", qp, 0.0),
        PropertyResult("weyl-relation-representation", weyl, 1e-12),
    ]


def suite_torus_covariance(seed: int, tolerances: ToleranceTable) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    worst = [0.0, 0.0, 0.0, 0.0]
    for _ in range(TORUS_CASES):
        B = int(rng.integers(1, 17))
        extent = B + int(rng.integers(0, 6))
        size = 2 * extent + 1
        a, b = (
            vector_from_prefix(
                IndexDomain.INTEGERS,
                -extent,
                rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size),
                GrowthClass.POLYNOMIAL_GROWTH,
                degree=0.0,
            )
            for _ in range(2)
        )
        f = tr.TorusTestFunction(
            rng.uniform(-1, 1, 2 * B + 1) + 1j * rng.uniform(-1, 1, 2 * B + 1)
        )
        terms = {}
        for m in range(4):
            w = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            terms[(m,)] = w / (1.0 + (2 * math.pi * B) ** m)
        D = UEAElement(tr.TORUS_STRUCTURE, terms)
        s = float(rng.uniform(0, 1))
        F = fn.gmc_functional(a, b, tr.TORUS)
        gaps = (
            tr.gmc_eval(tr.act_group(s, a), b, f) - fn.right_translate(F, s)(f),
            tr.gmc_eval(a, tr.dual_act_group(s, b), f) - fn.left_translate(F, s)(f),
            tr.gmc_eval(a, tr.dual_act_algebra(D, b), f) - fn.left_derive(F, D)(f),
            tr.gmc_eval(tr.act_algebra(D, a), b, f) - fn.right_derive(F, D)(f),
        )
        worst = [max(w, abs(g)) for w, g in zip(worst, gaps)]
    tol = tolerances.torus_exact
    names = [
        "right-translation-covariance",
        "left-translation-covariance",
        "left-derivative-covariance",
        "right-derivative-covariance",
    ]
    return [PropertyResult(n, w, tol) for n, w in zip(names, worst)]


def suite_heisenberg_covariance(
    seed: int,
    tolerances: ToleranceTable,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    tol = tolerances.heisenberg_fd
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    phi, psi = hb.unit_vector(0), hb.unit_vector(1)
    N = quad.truncation
    F = fn.gmc_functional(phi, psi, hb.with_quadrature(quad))

    worst_rt, worst_lt = 0.0, 0.0
    for _ in range(3):
        h = hb.HeisenbergElement(*rng.uniform(-0.6, 0.6, 3))
        lhs = hb.gmc_eval(hb.act_group(h, phi, N=N + 16), psi, f, quad=quad)
        worst_rt = max(worst_rt, abs(lhs - fn.right_translate(F, h)(f)))
        lhs2 = hb.gmc_eval(phi, hb.dual_act_group(h, psi, N=N + 16), f, quad=quad)
        worst_lt = max(worst_lt, abs(lhs2 - fn.left_translate(F, h)(f)))

    worst_rd, worst_ld = 0.0, 0.0
    for D in (HP, HQ, HZ):
        lhs = hb.gmc_eval(hb.act_algebra(D, phi), psi, f, quad=quad)
        worst_rd = max(worst_rd, abs(lhs - fn.right_derive(F, D)(f)))
        lhs2 = hb.gmc_eval(phi, hb.dual_act_algebra(D, psi), f, quad=quad)
        worst_ld = max(worst_ld, abs(lhs2 - fn.left_derive(F, D)(f)))

    # functoriality of composed right translations
    h1 = hb.HeisenbergElement(0.2, -0.3, 0.1)
    h2 = hb.HeisenbergElement(-0.1, 0.25, -0.2)
    functorial = abs(
        fn.right_translate(fn.right_translate(F, h2), h1)(f)
        - fn.right_translate(F, hb.group_mul(h1, h2))(f)
    )
    return [
        PropertyResult("right-translation-covariance", worst_rt, tol),
        PropertyResult("left-translation-covariance", worst_lt, tol),
        PropertyResult("right-derivative-covariance", worst_rd, tol),
        PropertyResult("left-derivative-covariance", worst_ld, tol),
        PropertyResult("right-translation-functoriality", functorial, tol),
    ]


def suite_smoothing(
    seed: int,
    tolerances: ToleranceTable,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[PropertyResult]:
    tol = tolerances.heisenberg_fd
    N = quad.truncation
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    results = []
    for name, phi in (("ground-state", hb.unit_vector(0)), ("delta", hb.dirac_delta())):
        worst_left, worst_right = 0.0, 0.0
        # P, Q and Z all have degree 1, so one smoothing serves all three
        inner = hb.smooth_by(f, phi, replace(quad, truncation=N + 3))
        for D in (HP, HQ, HZ):
            lhs = hb.act_algebra(D, inner)
            rhs = hb.smooth_by(f.left_derive(D), phi, quad)
            worst_left = max(
                worst_left,
                float(np.linalg.norm(lhs.dense(0, N - 1) - rhs.dense(0, N - 1))),
            )
            lhs2 = hb.smooth_by(f, hb.act_algebra(D, phi), quad)
            rhs2 = hb.smooth_by(f.right_derive(uea_antipode(D)), phi, quad)
            worst_right = max(
                worst_right,
                float(np.linalg.norm(lhs2.dense(0, N - 1) - rhs2.dense(0, N - 1))),
            )
        results.append(PropertyResult(f"left-derivative-route-{name}", worst_left, tol))
        results.append(PropertyResult(f"right-derivative-route-{name}", worst_right, tol))
    # the smoothed output carries a certified rapid-decay signature at two truncations
    for N_cert in (N, N + 16):
        quad_cert = replace(quad, truncation=N_cert)
        out = hb.smooth_by(f, hb.unit_vector(0), quad_cert)
        results.append(
            PropertyResult(
                f"rapid-decay-certificate-ground-state-N{N_cert}",
                fitted_decay_exponent(out, floor=1e-12),
                -4.0,
            )
        )
        out_d = hb.smooth_by(f, hb.dirac_delta(), quad_cert)
        results.append(
            PropertyResult(
                f"rapid-decay-certificate-delta-N{N_cert}",
                fitted_decay_exponent(out_d, floor=1e-12),
                -1.0,
            )
        )
    return results


def suite_mollifier(
    seed: int,
    tolerances: ToleranceTable,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[PropertyResult]:
    results = []
    # unit mass on both models
    worst_mass = 0.0
    prof_t = mo.BumpProfile.standard(0.25)
    prof_h = mo.BumpProfile.standard(0.5)
    for n in (1, 2, 4, 8):
        f_t = mo.push_forward(prof_t.scaled(n), tr.TORUS)
        worst_mass = max(worst_mass, abs(f_t.fhat(0) - 1.0))
        f_h = mo.push_forward(prof_h.scaled(n), hb.HEISENBERG)
        worst_mass = max(worst_mass, abs(f_h.integral(96) - 1.0))
    results.append(PropertyResult("mollifier-unit-mass", worst_mass, tolerances.mass_tol))

    # torus pairing residual: monotone decrease, small at n = 64
    eta, v = tr.comb(), tr.geometric(0.005)
    base = pair(eta, v)
    resid = [
        abs(pair(mo.mollify(eta, n, tr.TORUS, profile=prof_t), v) - base)
        for n in (1, 2, 4, 8, 16, 32, 64)
    ]
    results.append(PropertyResult("torus-pairing-monotone", _worst_rise(resid), 0.0))
    results.append(PropertyResult("torus-pairing-residual-n64", resid[-1], 1e-6))

    # distributional approximation residuals decrease on both models
    f = tr.band(8, "fejer")
    rows = mo.gmc_approx(tr.comb(), tr.comb(), f, [2, 4, 8, 16], tr.TORUS, profile=prof_t)
    results.append(
        PropertyResult("torus-gmc-approx-decreasing", _worst_rise([row[2] for row in rows]), 0.0)
    )
    f_h = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    rows_h = mo.gmc_approx(
        hb.dirac_delta(),
        hb.unit_vector(0),
        f_h,
        [2, 4, 8, 16],
        hb.with_quadrature(quad),
        profile=prof_h,
    )
    results.append(
        PropertyResult(
            "heisenberg-gmc-approx-decreasing", _worst_rise([row[2] for row in rows_h]), 0.0
        )
    )
    # smoothing certificate at two truncations
    for N_cert in (quad.truncation, quad.truncation + 16):
        quad_cert = replace(quad, truncation=N_cert)
        out = mo.mollify(hb.dirac_delta(), 1, hb.with_quadrature(quad_cert), profile=mo.BumpProfile.standard(0.8))
        results.append(
            PropertyResult(
                f"mollify-decay-certificate-N{N_cert}",
                fitted_decay_exponent(out, floor=1e-12),
                -1.0,
            )
        )
    return results


def suite_structure(
    seed: int,
    tolerances: ToleranceTable,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    results = []

    # torus semi-invariance: each basis vector under the full circle
    f = tr.TorusTestFunction(
        rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)
    )
    worst = max(
        fn.semi_invariance_residual(
            tr.unit(k), (0.13, 0.41, 0.77), lambda s, k=k: np.exp(2j * np.pi * k * s),
            tr.comb(), f, tr.TORUS,
        )
        for k in (0, 2, 5)
    )
    results.append(
        PropertyResult("torus-semi-invariance", worst, tolerances.torus_exact)
    )

    # Heisenberg: delta is invariant under the position subgroup
    f_h = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    positions = [hb.HeisenbergElement(0, qv, 0) for qv in (0.3, -0.5)]
    worst_h = fn.semi_invariance_residual(
        hb.dirac_delta(), positions, lambda h: 1.0, hb.unit_vector(0), f_h, hb.with_quadrature(quad)
    )
    results.append(
        PropertyResult("heisenberg-delta-semi-invariance", worst_h, tolerances.heisenberg_fd)
    )

    # orthogonality: disjoint torus supports evaluate to exactly zero
    worst_orth = max(
        fn.orthogonality_test(tr.unit(j), tr.unit(k), [f], tr.TORUS)[1]
        for j, k in ((1, 2), (-3, 0))
    )
    results.append(PropertyResult("torus-disjoint-orthogonality", worst_orth, 0.0))

    # projections commute with the actions, exactly
    a = vector_from_prefix(
        IndexDomain.INTEGERS,
        -8,
        rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17),
        GrowthClass.POLYNOMIAL_GROWTH,
        degree=0.0,
    )
    keep = lambda n: n % 2 == 0
    lhs = tr.project_subrep(tr.act_algebra(TX, a), keep)
    rhs = tr.act_algebra(TX, tr.project_subrep(a, keep))
    proj = max(abs(lhs.coeff(n) - rhs.coeff(n)) for n in range(-8, 9))
    results.append(PropertyResult("torus-projection-commutation", proj, 0.0))

    # injectivity witness search: a probe family separates every basis vector
    base_bump = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.6)
    centers = [(0, 0), (0.8, 0), (0, 0.8), (0.8, 0.8), (-0.8, 0.8)]
    probes = [
        base_bump.left_translate(hb.HeisenbergElement(pp, qq, 0.0)) for pp, qq in centers
    ]
    smoothed = [hb.smooth_by(fp, hb.unit_vector(0), quad=quad) for fp in probes]
    weakest = min(
        max(abs(pair(sm, hb.unit_vector(k))) for sm in smoothed) for k in range(9)
    )
    results.append(PropertyResult("injectivity-witness-search", weakest, 1e-6, kind="min"))

    # structure theorem witness through factorization, both models
    worst_t = 0.0
    for r in (0, 1, 2):
        a = tr.poly(r)
        D, u = factorize(a, tr.TORUS)
        ft = tr.band(6, "fejer")
        lhs_v = tr.gmc_eval(a, tr.comb(), ft)
        rhs_v = fn.right_derive(fn.gmc_functional(u, tr.comb(), tr.TORUS), D)(ft)
        worst_t = max(worst_t, abs(lhs_v - rhs_v) / (1 + abs(lhs_v)))
    results.append(
        PropertyResult("torus-structure-witness", worst_t, tolerances.torus_exact)
    )
    phi = hb.poly_growth_vector(0.0)
    D, u = factorize(phi, hb.HEISENBERG)
    lhs_v = hb.gmc_eval(phi, hb.unit_vector(0), f_h, quad=quad)
    F = fn.gmc_functional(u, hb.unit_vector(0), hb.with_quadrature(quad))
    rhs_v = fn.right_derive(F, D)(f_h)
    results.append(
        PropertyResult(
            "heisenberg-structure-witness", abs(lhs_v - rhs_v), tolerances.heisenberg_fd
        )
    )
    return results


SUITES = {
    "uea": suite_uea,
    "torus-covariance": suite_torus_covariance,
    "heisenberg-covariance": suite_heisenberg_covariance,
    "mollifier": suite_mollifier,
    "smoothing": suite_smoothing,
    "structure": suite_structure,
}


def run_suite(
    name: str,
    seed: int,
    tolerances: ToleranceTable = DEFAULT_TOLERANCES,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[PropertyResult]:
    if name not in SUITES:
        raise SpecParseError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    if name in ("uea", "torus-covariance"):
        return suite(seed, tolerances)
    return suite(seed, tolerances, quad)
