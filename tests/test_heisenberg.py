"""Schrodinger representation: matrix elements, group/algebra actions, smoothing."""
import itertools
import math

import numpy as np
import pytest

from gmc import heisenberg as hb
from gmc import mollify as mo
from gmc.config import QuadratureSpec
from gmc.errors import GmcError, PreconditionError, QuadratureAccuracyError
from gmc.hermite import hermite_functions, hermite_series_value, legendre_on_interval
from gmc.uea import UEAElement
from gmc.vectors import (
    GrowthClass,
    IndexDomain,
    fitted_decay_exponent,
    pair,
    vector_from_prefix,
)

HS = hb.HEISENBERG_STRUCTURE
P = UEAElement.generator(HS, "P")
Q = UEAElement.generator(HS, "Q")
Z = UEAElement.generator(HS, "Z")


def _x_space_matrix_element(g, j, k, grid=200001, half_width=10.0):
    """Trapezoid oracle for <pi(g) h_j, h_k> straight from the defining integral."""
    g = hb.as_element(g)
    x = np.linspace(-half_width, half_width, grid)
    hj = hermite_functions(x + g.p, j)[j]
    hk = hermite_functions(x, k)[k]
    phase = np.exp(2j * np.pi * (g.t + g.q * x + g.p * g.q / 2.0))
    return np.trapezoid(phase * hj * hk, x)


# --- matrix elements -------------------------------------------------------------


def test_matrix_element_central_phase():
    got = hb.matrix_element((0, 0, 0.25), 2, 2)
    assert abs(got - 1j) < 1e-12


def test_matrix_element_orthonormality_at_identity():
    assert abs(hb.matrix_element(hb.IDENTITY, 0, 1)) < 1e-14
    assert abs(hb.matrix_element(hb.IDENTITY, 3, 3) - 1) < 1e-14


def test_matrix_element_gaussian_overlap():
    # int h_0(x+p) h_0(x) dx = e^{-pi p^2/2}
    for p in (0.5, 1.0):
        got = hb.matrix_element((p, 0, 0), 0, 0)
        assert abs(got - math.exp(-math.pi * p * p / 2)) < 1e-12


def test_matrix_element_against_x_space_oracle():
    for g in ((0.8, -0.4, 0.1), (0.2, 1.0, -0.3)):
        for j, k in ((0, 0), (1, 2), (3, 1)):
            got = hb.matrix_element(g, j, k)
            oracle = _x_space_matrix_element(g, j, k)
            assert abs(got - oracle) < 1e-8


def test_matrix_element_accuracy_error_path():
    # an absurdly tight tolerance trips the two-resolution comparison
    with pytest.raises(QuadratureAccuracyError):
        hb.matrix_element((2.5, -1.5, 0.0), 30, 31, x_nodes=36, check_tol=1e-18)


def _assert_finite_or_typed_error(compute):
    try:
        value = compute()
    except GmcError:
        return
    assert np.all(np.isfinite(value))


def test_matrix_element_non_finite_is_a_typed_error():
    _assert_finite_or_typed_error(lambda: hb.matrix_element((0.5, 0.5, 0), 1300, 1300))


def test_matrix_column_near_unitary():
    g = (0.7, 0.3, 0.0)
    col = np.array([hb.matrix_element(g, 0, k) for k in range(48)])
    assert abs(np.sum(np.abs(col) ** 2) - 1.0) < 1e-10


# --- group action ------------------------------------------------------------------


def test_act_group_central_element_scalar():
    phi = hb.gaussian_vector(0.8)
    out = hb.act_group((0, 0, 0.3), phi, N=56)
    expected = np.exp(2j * np.pi * 0.3)
    for k in range(0, 12):
        assert abs(out.coeff(k) - expected * phi.coeff(k)) < 1e-12


def test_act_group_identity():
    phi = hb.unit_vector(2)
    out = hb.act_group(hb.IDENTITY, phi)
    assert abs(out.coeff(2) - 1) < 1e-13
    assert abs(out.coeff(5)) < 1e-13


def test_act_group_homomorphism(rng):
    worst = 0.0
    e0 = hb.unit_vector(0)
    for _ in range(6):
        g = hb.HeisenbergElement(*rng.uniform(-1, 1, 3))
        h = hb.HeisenbergElement(*rng.uniform(-1, 1, 3))
        lhs = hb.act_group(g, hb.act_group(h, e0))
        rhs = hb.act_group(hb.group_mul(g, h), e0)
        worst = max(
            worst, max(abs(lhs.coeff(k) - rhs.coeff(k)) for k in range(40))
        )
    assert worst < 1e-8


def test_act_group_unitarity_defect(rng):
    e0 = hb.unit_vector(0)
    for _ in range(4):
        g = hb.HeisenbergElement(*rng.uniform(-1, 1, 3))
        out = hb.act_group(g, e0)
        norm = np.linalg.norm(out.dense(0, 39))
        assert abs(norm - 1.0) < 1e-6


def test_act_group_rejects_distribution_vectors():
    with pytest.raises(PreconditionError):
        hb.act_group((0.1, 0, 0), hb.dirac_delta())


def test_act_group_rejects_insufficient_truncation():
    phi = hb.unit_vector(30)
    with pytest.raises(PreconditionError):
        hb.act_group((0.1, 0, 0), phi, N=10)


def test_dual_act_group_is_contragredient(rng):
    # <pi*(g) psi, e_k> must equal <psi, pi(g^{ -1}) e_k>
    g = hb.HeisenbergElement(0.4, -0.2, 0.15)
    psi = hb.gaussian_vector(0.9)
    dual = hb.dual_act_group(g, psi, N=20)
    for k in (0, 3, 7):
        direct = pair(psi, hb.act_group(hb.group_inv(g), hb.unit_vector(k), N=48))
        assert abs(dual.coeff(k) - direct) < 1e-10


# --- algebra action -----------------------------------------------------------------


def test_algebra_central_scalar():
    phi = hb.gaussian_vector()
    out = hb.act_algebra(Z, phi)
    for k in range(10):
        assert abs(out.coeff(k) - 2j * np.pi * phi.coeff(k)) < 1e-14


def test_algebra_ladder_on_ground_state():
    out = hb.act_algebra(P, hb.unit_vector(0))
    assert abs(out.coeff(1) + math.sqrt(math.pi)) < 1e-14
    assert abs(out.coeff(0)) < 1e-14
    # independent oracle: numerical derivative of h_0 expanded against h_1
    x = np.linspace(-6, 6, 400001)
    h0 = hermite_functions(x, 0)[0]
    h1 = hermite_functions(x, 1)[1]
    coeff = np.trapezoid(np.gradient(h0, x) * h1, x)
    assert abs(out.coeff(1) - coeff) < 1e-6


def test_weyl_relation_residual(rng):
    vals = rng.normal(size=10) + 1j * rng.normal(size=10)
    phi = vector_from_prefix(IndexDomain.NATURALS, 0, vals, GrowthClass.RAPID_DECAY)
    lhs = hb.act_algebra(P * Q - Q * P, phi)
    rhs = hb.act_algebra(Z, phi)
    assert max(abs(lhs.coeff(k) - rhs.coeff(k)) for k in range(14)) < 1e-12


def test_dual_algebra_duality_identity(rng):
    # <pi*(D) psi, v> = <psi, pi(tD) v> on random elements and vectors
    from gmc.uea import uea_transpose

    for _ in range(5):
        terms = {}
        for _ in range(3):
            alpha = tuple(int(rng.integers(0, 3)) for _ in range(3))
            terms[alpha] = complex(rng.normal(), rng.normal())
        D = UEAElement(HS, terms)
        psi = vector_from_prefix(
            IndexDomain.NATURALS, 0, rng.normal(size=9) + 1j * rng.normal(size=9),
            GrowthClass.RAPID_DECAY,
        )
        v = vector_from_prefix(
            IndexDomain.NATURALS, 0, rng.normal(size=9) + 1j * rng.normal(size=9),
            GrowthClass.RAPID_DECAY,
        )
        lhs = pair(hb.dual_act_algebra(D, psi), v)
        rhs = pair(psi, hb.act_algebra(uea_transpose(D), v))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_algebra_acts_on_formula_tails():
    delta = hb.dirac_delta(prefix_len=8)
    out = hb.act_algebra(Q, delta)
    # tail index beyond the stored prefix, computed through the closure
    k = 21
    expected = 1j * math.sqrt(math.pi) * (
        math.sqrt(k) * delta.coeff(k - 1) + math.sqrt(k + 1) * delta.coeff(k + 1)
    )
    assert abs(out.coeff(k) - expected) < 1e-13


# --- smoothing -----------------------------------------------------------------------


def test_smooth_by_zero_function():
    f = 0 * mo.standard_mollifier(hb.HEISENBERG, n=1, radius=0.2)
    out = hb.smooth_by(f, hb.unit_vector(0))
    assert np.max(np.abs(out.prefix)) == 0


def test_smooth_by_tight_bump_approximates_identity():
    e0 = hb.unit_vector(0)
    prev = None
    for n in (2, 4, 8):
        f = mo.standard_mollifier(hb.HEISENBERG, n=n, radius=0.5)
        out = hb.smooth_by(f, e0)
        diff = out.dense(0, 39).copy()
        diff[0] -= 1.0
        err = np.linalg.norm(diff)
        if n >= 4:
            assert err < 0.1
        if prev is not None:
            assert err < prev
        prev = err


def test_smoothing_left_derivative_route():
    # pi(D) pi(f) phi vs pi(L(D) f) phi with the exact Lie derivative of f
    e0 = hb.unit_vector(0)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    for D, bound in ((P, 1e-9), (Q, 1e-9), (P * Q, 1e-8)):
        lhs = hb.act_algebra(D, hb.smooth_by(f, e0, N=44))
        rhs = hb.smooth_by(f.left_derive(D), e0, N=40)
        assert np.linalg.norm(lhs.dense(0, 39) - rhs.dense(0, 39)) < bound


def test_group_translation_smoothing_routes(rng):
    # pi(h) pi(f) phi = pi(L(h) f) phi and pi(f) pi(h) phi = pi(R(h^-1) f) phi
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    phi = hb.unit_vector(0)
    for _ in range(3):
        h = hb.HeisenbergElement(*rng.uniform(-0.5, 0.5, 3))
        lhs = hb.act_group(h, hb.smooth_by(f, phi, N=56), N=40)
        rhs = hb.smooth_by(f.left_translate(h), phi, N=40)
        assert np.linalg.norm(lhs.dense(0, 39) - rhs.dense(0, 39)) < 1e-13
        lhs2 = hb.smooth_by(f, hb.act_group(h, phi, N=56), N=40)
        rhs2 = hb.smooth_by(f.right_translate(hb.group_inv(h)), phi, N=40)
        assert np.linalg.norm(lhs2.dense(0, 39) - rhs2.dense(0, 39)) < 1e-13


def test_pointwise_derivative_matches_algebra_route():
    # d/ds <pi(exp s P) phi, psi> at 0 equals <pi(P) phi, psi>
    phi, psi = hb.gaussian_vector(0.9), hb.unit_vector(1)
    algebra = pair(hb.act_algebra(P, phi), psi)
    h = 1e-4
    fd = (
        hb.fourier_wigner(phi, psi, h, 0.0) - hb.fourier_wigner(phi, psi, -h, 0.0)
    ) / (2 * h)
    assert abs(fd - algebra) < 1e-6


def test_smooth_by_output_is_certified_rapid_decay():
    # requested decay order depends on how concentrated the input is: the
    # smoothed ground state decays to the quadrature floor within a few
    # coefficients, the smoothed delta shows its decay more slowly
    f = mo.standard_mollifier(hb.HEISENBERG, n=1, radius=0.8)
    for N in (40, 56):
        out = hb.smooth_by(f, hb.unit_vector(0), N=N)
        assert out.growth is GrowthClass.RAPID_DECAY
        assert fitted_decay_exponent(out, floor=1e-12) < -4.0
        out_d = hb.smooth_by(f, hb.dirac_delta(), N=N)
        assert fitted_decay_exponent(out_d, floor=1e-12) < -1.0


def test_smooth_by_accuracy_error_on_tight_tolerance():
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    with pytest.raises(QuadratureAccuracyError):
        hb.smooth_by(f, hb.dirac_delta(), quad=QuadratureSpec(check_tol=1e-16))


def test_smooth_by_non_finite_is_a_typed_error():
    # at N = 700 the Gauss-Hermite x-rule overflows the Hermite recurrence; an
    # 8-node (p, q) rule keeps the run small, the x-rule is the same
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8, nodes=8)
    _assert_finite_or_typed_error(lambda: hb.smooth_by(f, hb.dirac_delta(), N=700).prefix)


# --- generalized matrix coefficients --------------------------------------------------


def test_gmc_zero_function_vanishes():
    f = 0 * mo.standard_mollifier(hb.HEISENBERG, n=1, radius=0.2)
    assert hb.gmc_eval(hb.unit_vector(0), hb.unit_vector(0), f) == 0


def test_gmc_near_orthogonality_for_tight_bumps():
    f = mo.standard_mollifier(hb.HEISENBERG, n=8, radius=0.5)
    got = hb.gmc_eval(hb.unit_vector(0), hb.unit_vector(5), f)
    assert abs(got) < 1e-3


def test_gmc_delta_mollifier_limit():
    e0 = hb.unit_vector(0)
    delta = hb.dirac_delta()
    errs = []
    for n in (2, 4, 8):
        f = mo.standard_mollifier(hb.HEISENBERG, n=n, radius=0.5)
        errs.append(abs(hb.gmc_eval(delta, e0, f) - 2**0.25))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02


# --- pointwise coefficients (Fourier-Wigner) ------------------------------------------


def test_fourier_wigner_at_origin():
    assert abs(hb.fourier_wigner(hb.unit_vector(0), hb.unit_vector(0), 0, 0) - 1) < 1e-13


def test_fourier_wigner_gaussian_modulus_grid():
    e0 = hb.unit_vector(0)
    for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for q in (-1.0, 0.0, 1.0):
            got = abs(hb.fourier_wigner(e0, e0, p, q))
            assert abs(got - math.exp(-math.pi * (p * p + q * q) / 2)) < 1e-10


def test_fourier_wigner_against_x_space_oracle(rng):
    phi = hb.gaussian_vector(0.8)
    psi = hb.unit_vector(1)
    p, q = 0.6, -0.4
    got = hb.fourier_wigner(phi, psi, p, q)
    # oracle: expand phi pointwise and integrate in x space
    x = np.linspace(-10, 10, 200001)
    phi_x = hermite_series_value(phi.dense(0, phi.stop - 1), x + p)
    h1 = hermite_functions(x, 1)[1]
    phase = np.exp(2j * np.pi * (q * x + p * q / 2.0))
    oracle = np.trapezoid(phase * phi_x * h1, x)
    assert abs(got - oracle) < 1e-8


def test_fourier_wigner_delta_line_constant_in_q():
    delta = hb.dirac_delta()
    e0 = hb.unit_vector(0)
    vals = [hb.fourier_wigner(delta, e0, 0.0, q) for q in (0.0, 0.4, 1.1)]
    for v in vals:
        assert abs(v - vals[0]) < 1e-6
    # x-space oracle: <pi(0,q,0) delta, h_0> = h_0(0)
    assert abs(vals[0] - 2**0.25) < 1e-8


def test_fourier_wigner_requires_rapid_decay_partner():
    with pytest.raises(PreconditionError):
        hb.fourier_wigner(hb.unit_vector(0), hb.dirac_delta(), 0.1, 0.2)


def test_fourier_wigner_budget_error_reports_bound():
    from gmc.errors import BudgetExceeded

    phi = hb.poly_growth_vector(2.0, prefix_len=8)
    with pytest.raises(BudgetExceeded) as info:
        hb.fourier_wigner(phi, hb.unit_vector(0), 3.0, 3.0, max_cols=64)
    assert info.value.achieved_bound > 0


def test_fourier_wigner_non_finite_is_a_typed_error():
    e700 = hb.unit_vector(700)
    _assert_finite_or_typed_error(lambda: hb.fourier_wigner(e700, e700, 0.5, 0.5))


def test_pointwise_view_includes_central_phase():
    view = hb.pointwise_coefficient(hb.unit_vector(0), hb.unit_vector(0))
    g = hb.HeisenbergElement(0.0, 0.0, 0.25)
    assert abs(view(g) - 1j) < 1e-12


# --- standard vectors ------------------------------------------------------------------


def test_dirac_delta_coefficients():
    delta = hb.dirac_delta()
    assert delta.coeff(1) == 0
    assert abs(delta.coeff(0) - 2**0.25) < 1e-15
    assert delta.growth is GrowthClass.POLYNOMIAL_GROWTH
    assert delta.envelope.constant == pytest.approx(1.2)


def test_delta_pairing_is_evaluation_at_zero(rng):
    # pair(delta, v) = v(0) for a finitely supported smooth vector
    vals = rng.normal(size=12)
    v = vector_from_prefix(IndexDomain.NATURALS, 0, vals, GrowthClass.RAPID_DECAY)
    got = pair(hb.dirac_delta(), v)
    pointwise = hermite_series_value(vals, 0.0)
    assert abs(got - pointwise) < 1e-12


def test_gaussian_vector_is_normalized_and_even():
    g = hb.gaussian_vector(0.8)
    norm = math.sqrt(sum(abs(g.coeff(k)) ** 2 for k in range(g.stop)))
    assert abs(norm - 1.0) < 1e-10
    assert all(abs(g.coeff(k)) < 1e-12 for k in range(1, 20, 2))
    # pointwise check against the defining Gaussian
    x = 0.4
    target = 2**0.25 / math.sqrt(0.8) * math.exp(-math.pi * (x / 0.8) ** 2)
    got = hermite_series_value(g.dense(0, g.stop - 1), x)
    assert abs(got - target) < 1e-10


def test_poly_growth_vector_envelope():
    v = hb.poly_growth_vector(1.5)
    assert v.envelope.degree == 1.5
    assert abs(v.coeff(80) - (81.0**1.5)) < 1e-9


# --- test functions as sheared bump terms ------------------------------------------------

_LETTERS = {"P": P, "Q": Q, "Z": Z}
_WORDS = [()] + [(a,) for a in "PQZ"] + list(itertools.product("PQZ", repeat=2))


def _word(letters):
    d = UEAElement.one(HS)
    for c in letters:
        d = d * _LETTERS[c]
    return d


def _derived(f, letters, side):
    d = _word(letters)
    return f.left_derive(d) if side == "L" else f.right_derive(d)


@pytest.mark.parametrize("side", ["L", "R"])
def test_central_transform_matches_t_quadrature(rng, side):
    # F_1(p, q) against a 400-node Gauss-Legendre sum of the point values over
    # the t-support at (p, q), located through the group law alone
    for n, radius in ((2, 0.8), (4, 0.6)):
        r = radius / n
        base = mo.standard_mollifier(hb.HEISENBERG, n=n, radius=radius)
        for letters in _WORDS:
            h1, h2 = (hb.HeisenbergElement(*rng.uniform(-0.6, 0.6, 3)) for _ in range(2))
            f = _derived(base.left_translate(h1).right_translate(h2), letters, side)
            box = f.support
            pn = np.linspace(*box[0], 7)[1:-1]
            qn = np.linspace(*box[1], 7)[1:-1]
            got = f.central_transform(pn, qn, 1.0)
            ref = np.zeros_like(got)
            for i, p in enumerate(pn):
                for j, q in enumerate(qn):
                    # f(g) depends on g through h1^{-1} g h2, whose t is t - centre
                    centre = -hb.group_mul(hb.group_mul(hb.group_inv(h1), (p, q, 0.0)), h2).t
                    tn, tw = legendre_on_interval(centre - r, centre + r, 400)
                    ref[i, j] = np.sum(tw * f.evaluator(p, q, tn) * np.exp(2j * np.pi * tn))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (letters, n)


@pytest.mark.parametrize("side", ["L", "R"])
def test_point_derivatives_match_difference_quotients(rng, side):
    # X acting on D f, for words X D of degree <= 2, against the central
    # difference of D f along g exp(sX) (right) or exp(-sX) g (left) at
    # s = 1e-4 with one Richardson level; a plain central difference at this s
    # is off by about 1e-4 relative for second derivatives of the n = 4 bump
    s = 1e-4
    for n, radius in ((2, 0.8), (4, 0.6)):
        base = mo.standard_mollifier(hb.HEISENBERG, n=n, radius=radius)
        for letters in _WORDS[1:]:
            h1, h2 = (hb.HeisenbergElement(*rng.uniform(-0.6, 0.6, 3)) for _ in range(2))
            f = base.left_translate(h1).right_translate(h2)
            inner = _derived(f, letters[1:], side)
            exact = _derived(f, letters, side)
            axis = "PQZ".index(letters[0])
            box = exact.support
            points = np.column_stack([rng.uniform(*box[i], 24) for i in range(3)])

            def moved(g, step):
                e = [0.0, 0.0, 0.0]
                e[axis] = step
                if side == "R":
                    return inner(hb.group_mul(g, e))
                return inner(hb.group_mul(hb.group_inv(e), g))

            def central(g, step):
                return (moved(g, step) - moved(g, -step)) / (2.0 * step)

            want = np.array([exact(g) for g in points])
            fd = np.array([(4.0 * central(g, s / 2) - central(g, s)) / 3.0 for g in points])
            assert np.max(np.abs(fd - want)) <= 1e-6 * np.max(np.abs(want)), (letters, n)


def test_translations_move_point_values_exactly(rng):
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8).right_derive(P * Q)
    for _ in range(4):
        h = hb.HeisenbergElement(*rng.uniform(-0.6, 0.6, 3))
        g = hb.HeisenbergElement(*rng.uniform(-0.3, 0.3, 3))
        assert abs(f.left_translate(h)(g) - f(hb.group_mul(hb.group_inv(h), g))) < 1e-12
        assert abs(f.right_translate(h)(g) - f(hb.group_mul(g, h))) < 1e-12
