"""GMC functionals: covariance operators, views, orthogonality, semi-invariance."""
import math

import numpy as np
import pytest

from gmc import heisenberg as hb
from gmc import mollify as mo
from gmc import torus as tr
from gmc.config import QuadratureSpec
from gmc.errors import PreconditionError
from gmc.functionals import (
    gmc_functional,
    left_derive,
    left_translate,
    orthogonality_test,
    right_derive,
    right_translate,
    semi_invariance_residual,
    smooth_function_view,
)
from gmc.hermite import legendre_on_interval
from gmc.uea import UEAElement, uea_antipode, uea_transpose
from gmc.vectors import GrowthClass, IndexDomain, vector_from_prefix

TX = UEAElement.generator(tr.TORUS_STRUCTURE, "X")
HP = UEAElement.generator(hb.HEISENBERG_STRUCTURE, "P")
HZ = UEAElement.generator(hb.HEISENBERG_STRUCTURE, "Z")


def _circle_rule(nodes):
    """Equispaced Haar rule of unit mass: exact for band-limited integrands below order nodes."""
    return np.arange(nodes) / nodes, np.full(nodes, 1.0 / nodes)


def _box_rule(box, nodes):
    """Tensor Gauss-Legendre rule over a (p, q, t) box; Haar measure is Lebesgue here."""
    axes = [legendre_on_interval(a, b, nodes) for a, b in box]
    pts = np.stack(np.meshgrid(*(x for x, _ in axes), indexing="ij"), axis=-1).reshape(-1, 3)
    return pts, np.einsum("a,b,c->abc", *(w for _, w in axes)).ravel()


def _torus_probes(rng, count=3, B=6):
    out = []
    for _ in range(count):
        vals = rng.uniform(-1, 1, 2 * B + 1) + 1j * rng.uniform(-1, 1, 2 * B + 1)
        out.append(tr.TorusTestFunction(vals))
    return out


# --- translations -----------------------------------------------------------------


def test_left_translate_identity_is_noop(rng):
    F = gmc_functional(tr.comb(), tr.geometric(0.5), tr.TORUS)
    G = left_translate(F, 0.0)
    for f in _torus_probes(rng):
        assert abs(F(f) - G(f)) < 1e-15


def test_left_translate_matches_dual_vector_route(rng):
    a, b = tr.comb(), tr.geometric(0.5)
    F = gmc_functional(a, b, tr.TORUS)
    s = 0.3179
    G = left_translate(F, s)
    H = gmc_functional(a, tr.dual_act_group(s, b), tr.TORUS)
    for f in _torus_probes(rng):
        assert abs(G(f) - H(f)) < 1e-13


def test_right_translate_matches_vector_route(rng):
    a, b = tr.poly(1), tr.geometric(0.5)
    F = gmc_functional(a, b, tr.TORUS)
    s = 0.41
    G = right_translate(F, s)
    H = gmc_functional(tr.act_group(s, a), b, tr.TORUS)
    for f in _torus_probes(rng):
        assert abs(G(f) - H(f)) <= 1e-13 * (1 + abs(G(f)))


def test_torus_translations_dualize_by_exact_negation(rng):
    # the torus inverse is -s, not (-s) % 1, whose rounding of 1 - s moves every phase
    for _ in range(20):
        a, b = (
            vector_from_prefix(
                IndexDomain.INTEGERS, -8, rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17),
                GrowthClass.POLYNOMIAL_GROWTH, degree=0.0,
            )
            for _ in range(2)
        )
        f = _torus_probes(rng, count=1)[0]
        s = float(rng.uniform(0, 1))
        F = gmc_functional(a, b, tr.TORUS)
        assert left_translate(F, s)(f) == tr.gmc_eval(a, b, f.left_translate(-s))
        assert right_translate(F, s)(f) == tr.gmc_eval(a, b, f.right_translate(-s))


def test_translation_round_trip(rng):
    F = gmc_functional(tr.comb(), tr.comb(), tr.TORUS)
    G = left_translate(left_translate(F, 0.25), -0.25)
    H = right_translate(right_translate(F, 0.125), -0.125)
    for f in _torus_probes(rng):
        assert abs(F(f) - G(f)) < 1e-13
        assert abs(F(f) - H(f)) < 1e-13


def test_right_translation_functoriality(rng):
    F = gmc_functional(tr.comb(), tr.geometric(0.4), tr.TORUS)
    s, t = 0.21, 0.34
    lhs = right_translate(right_translate(F, s), t)
    rhs = right_translate(F, (s + t) % 1.0)
    for f in _torus_probes(rng):
        assert abs(lhs(f) - rhs(f)) < 1e-13


def test_provenance_tags_compose():
    F = gmc_functional(tr.comb(), tr.comb(), tr.TORUS)
    G = right_derive(left_translate(F, 0.5), TX)
    assert G.provenance == f"right-derived({TX}) o left-translated(0.5) o direct"
    assert [op[:3] for op in G.ops] == [
        ("right-derived", TX, "right_derive"),
        ("left-translated", 0.5, "left_translate"),
    ]


# --- derivatives ------------------------------------------------------------------


def test_derive_with_identity_element(rng):
    F = gmc_functional(tr.comb(), tr.geometric(0.3), tr.TORUS)
    one = UEAElement.one(tr.TORUS_STRUCTURE)
    for f in _torus_probes(rng):
        assert abs(left_derive(F, one)(f) - F(f)) < 1e-15
        assert abs(right_derive(F, one)(f) - F(f)) < 1e-15


def test_torus_derive_matches_vector_routes(rng):
    a, b = tr.poly(1), tr.geometric(0.5)
    F = gmc_functional(a, b, tr.TORUS)
    scale = 1 + 2 * math.pi * 6
    for f in _torus_probes(rng):
        lhs = left_derive(F, TX)(f)
        rhs = gmc_functional(a, tr.dual_act_algebra(TX, b), tr.TORUS)(f)
        assert abs(lhs - rhs) <= 1e-13 * scale
        lhs2 = right_derive(F, TX)(f)
        rhs2 = gmc_functional(tr.act_algebra(TX, a), b, tr.TORUS)(f)
        assert abs(lhs2 - rhs2) <= 1e-13 * scale


def test_heisenberg_central_derivative_routes():
    # both routes must produce -2 pi i F(f) for the central generator
    phi, psi = hb.unit_vector(0), hb.unit_vector(0)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    F = gmc_functional(phi, psi, hb.HEISENBERG)
    base = F(f)
    lhs = left_derive(F, HZ)(f)
    rhs = gmc_functional(phi, hb.dual_act_algebra(HZ, psi), hb.HEISENBERG)(f)
    assert abs(lhs - rhs) < 5e-5
    assert abs(lhs - (-2j * math.pi) * base) < 5e-5


def test_heisenberg_right_derive_residual():
    phi, psi = hb.unit_vector(0), hb.unit_vector(1)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    F = gmc_functional(phi, psi, hb.HEISENBERG)
    lhs = right_derive(F, HP)(f)
    rhs = gmc_functional(hb.act_algebra(HP, phi), psi, hb.HEISENBERG)(f)
    assert abs(lhs - rhs) < 5e-5


# --- linearity and views ------------------------------------------------------------


def test_functional_linearity_in_test_function(rng):
    F = gmc_functional(tr.comb(), tr.geometric(0.6), tr.TORUS)
    f, g = _torus_probes(rng, count=2)
    alpha, beta = 1.7 - 0.3j, -0.9 + 2.1j
    combo = alpha * f + beta * g
    assert abs(F(combo) - alpha * F(f) - beta * F(g)) < 1e-10


def test_heisenberg_functional_linearity():
    # two different bumps sharing one support box, so all three evaluations
    # use the same quadrature rule and linearity holds to roundoff
    F = gmc_functional(hb.unit_vector(0), hb.unit_vector(0), hb.HEISENBERG)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.6)
    g = mo.standard_mollifier(hb.HEISENBERG, n=1, radius=0.3)
    alpha, beta = 0.5 + 1j, 2.0
    assert abs(F(alpha * f + beta * g) - alpha * F(f) - beta * F(g)) < 1e-10


def test_smooth_view_single_frequency():
    F = gmc_functional(tr.unit(1), tr.comb(), tr.TORUS)
    view = smooth_function_view(F)
    for t in (0.0, 0.2, 0.77):
        assert abs(view(t) - np.exp(2j * np.pi * t)) < 1e-13


def test_smooth_view_requires_a_summable_pair():
    F = gmc_functional(tr.unit(1), tr.comb(), tr.TORUS)
    G = gmc_functional(tr.poly(1), tr.comb(), tr.TORUS)
    smooth_function_view(F)
    with pytest.raises(PreconditionError):
        smooth_function_view(G)
    with pytest.raises(PreconditionError):
        smooth_function_view(left_translate(F, 0.5))
    # the Heisenberg pointwise route keeps the stricter one-sided requirement
    with pytest.raises(PreconditionError):
        hb.fourier_wigner(hb.unit_vector(0), hb.dirac_delta(), 0.1, 0.0)


def test_torus_view_quadrature_consistency(rng):
    a, b = tr.poly(1), tr.geometric(0.5)
    F = gmc_functional(a, b, tr.TORUS)
    view = smooth_function_view(F)
    f = _torus_probes(rng, count=1, B=5)[0]
    pts, w = _circle_rule(64)
    assert abs(np.sum(w) - 1.0) < 1e-15
    quad = sum(wi * view(t) * f(t) for t, wi in zip(pts, w))
    assert abs(quad - F(f)) < 1e-10


def test_heisenberg_view_identity_value():
    F = gmc_functional(hb.unit_vector(0), hb.unit_vector(0), hb.HEISENBERG)
    view = smooth_function_view(F)
    assert abs(view(hb.IDENTITY) - 1.0) < 1e-12


def test_heisenberg_view_quadrature_consistency():
    phi, psi = hb.unit_vector(0), hb.unit_vector(0)
    F = gmc_functional(phi, psi, hb.HEISENBERG)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.6)
    view = smooth_function_view(F)
    pts, w = _box_rule(f.support, 16)
    assert abs(np.sum(w) - np.prod(np.diff(f.support))) < 1e-13
    vals = view(pts)  # one Fourier-Wigner call for all 4096 points
    fvals = f.evaluator(pts[:, 0], pts[:, 1], pts[:, 2])
    quad = np.sum(w * vals * fvals)
    assert abs(quad - F(f)) < 1e-4


# --- orthogonality --------------------------------------------------------------------


def test_orthogonality_disjoint_torus_supports(rng):
    ok, worst = orthogonality_test(tr.unit(1), tr.unit(2), _torus_probes(rng), tr.TORUS)
    assert ok and worst == 0.0


def test_orthogonality_fails_for_overlapping(rng):
    ok, worst = orthogonality_test(tr.comb(), tr.comb(), [tr.band(4, "fejer")], tr.TORUS)
    assert not ok and worst > 0.1


def test_orthogonality_heisenberg_ground_state():
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.6)
    ok, worst = orthogonality_test(
        hb.unit_vector(0), hb.unit_vector(0), [f], hb.HEISENBERG
    )
    assert not ok and worst > 1e-3


def test_orthogonality_requires_probes():
    with pytest.raises(PreconditionError):
        orthogonality_test(tr.unit(0), tr.unit(1), [], tr.TORUS)


# --- semi-invariance --------------------------------------------------------------------


def test_semi_invariance_trivial_subgroup(rng):
    f = _torus_probes(rng, count=1)[0]
    r = semi_invariance_residual(
        tr.unit(2), [0.0], lambda h: 1.0, tr.comb(), f, tr.TORUS
    )
    assert r < 1e-15


def test_semi_invariance_torus_character(rng):
    # each basis vector is semi-invariant under the whole circle with its own character
    k = 3
    f = _torus_probes(rng, count=1)[0]
    samples = [0.1, 0.37, 0.77]
    chi = lambda h: np.exp(2j * np.pi * k * h)
    r = semi_invariance_residual(tr.unit(k), samples, chi, tr.comb(), f, tr.TORUS)
    assert r < 1e-13


def test_semi_invariance_delta_under_position_subgroup():
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    samples = [hb.HeisenbergElement(0, q, 0) for q in (0.3, -0.6)]
    r = semi_invariance_residual(
        hb.dirac_delta(), samples, lambda h: 1.0, hb.unit_vector(0), f, hb.HEISENBERG
    )
    assert r < 5e-5


# --- the model's quadrature ------------------------------------------------------------

_QUAD64 = QuadratureSpec(truncation=64)


def test_functional_evaluates_at_the_model_truncation():
    # direct and after each dualized operation, the functional of the model from
    # with_quadrature has the bits of gmc_eval at that quad on the dualized test function
    phi, psi = hb.poly_growth_vector(0.0), hb.unit_vector(1)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    h = hb.HeisenbergElement(0.2, -0.3, 0.1)
    F = gmc_functional(phi, psi, hb.with_quadrature(_QUAD64))
    cases = [
        (F, f),
        (left_translate(F, h), f.left_translate(hb.group_inv(h))),
        (right_translate(F, h), f.right_translate(hb.group_inv(h))),
        (left_derive(F, HP), f.left_derive(uea_transpose(HP))),
        (right_derive(F, HP), f.right_derive(uea_antipode(HP))),
    ]
    for G, g in cases:
        assert G.evaluate(f) == hb.gmc_eval(phi, psi, g, quad=_QUAD64)
    assert F(f) != gmc_functional(phi, psi, hb.HEISENBERG)(f)


def test_semi_invariance_residual_at_the_model_truncation():
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    samples = [hb.HeisenbergElement(0, q, 0) for q in (0.3, -0.6)]
    phi, psi = hb.dirac_delta(), hb.unit_vector(0)
    got = semi_invariance_residual(phi, samples, lambda h: 1.0, psi, f, hb.with_quadrature(_QUAD64))
    base = hb.gmc_eval(phi, psi, f, quad=_QUAD64)
    moved = [hb.gmc_eval(phi, psi, f.right_translate(hb.group_inv(h)), quad=_QUAD64) for h in samples]
    assert got == max(abs(v - base) for v in moved)
