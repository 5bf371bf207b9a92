"""Circle-group representation: spectral actions and the Fourier-series results."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmc import heisenberg as hb
from gmc import torus as tr
from gmc.errors import BudgetExceeded, PreconditionError
from gmc.groups import factorize
from gmc.uea import UEAElement, uea_antipode, uea_transpose
from gmc.vectors import GrowthClass, IndexDomain, pair, vector_from_prefix

TS = tr.TORUS_STRUCTURE
X = UEAElement.generator(TS, "X")


def _random_sequence(rng, extent, degree=0.0):
    vals = rng.uniform(-1, 1, 2 * extent + 1) + 1j * rng.uniform(-1, 1, 2 * extent + 1)
    return vector_from_prefix(
        IndexDomain.INTEGERS, -extent, vals, GrowthClass.POLYNOMIAL_GROWTH, degree=degree
    )


def _random_band(rng, B):
    vals = rng.uniform(-1, 1, 2 * B + 1) + 1j * rng.uniform(-1, 1, 2 * B + 1)
    return tr.TorusTestFunction(vals)


# --- group action -------------------------------------------------------------


def test_act_group_unit_frequency_three_quarter_turn():
    # e^{2 pi i 3 / 4} = -i at t = 1/4
    out = tr.act_group(0.25, tr.unit(3))
    assert abs(out.coeff(3) - (-1j)) < 1e-15


def test_act_group_identity():
    a = tr.geometric(0.5)
    out = tr.act_group(0.0, a)
    assert np.allclose(out.prefix, a.prefix)


def test_act_group_half_turn_alternates_and_composes():
    a = tr.comb(extent=16)
    direct = tr.act_group(0.5, a)
    twice = tr.act_group(0.25, tr.act_group(0.25, a))
    for n in range(-16, 17):
        assert abs(direct.coeff(n) - (-1.0) ** n) < 1e-14
        assert abs(direct.coeff(n) - twice.coeff(n)) < 1e-14
    # tail formula follows the phase too
    assert abs(direct.coeff(40) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0, 1, allow_nan=False),
    t=st.floats(0, 1, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_act_group_is_a_group_action(s, t, seed):
    g = np.random.default_rng(seed)
    a = _random_sequence(g, 8)
    lhs = tr.act_group(s, tr.act_group(t, a))
    rhs = tr.act_group((s + t) % 1.0, a)
    for n in range(-8, 9):
        assert abs(lhs.coeff(n) - rhs.coeff(n)) < 1e-13


# --- algebra action ------------------------------------------------------------


def test_act_algebra_single_frequency():
    out = tr.act_algebra(X, tr.unit(1))
    assert abs(out.coeff(1) - 2j * math.pi) < 1e-15


def test_act_algebra_identity_element():
    a = tr.geometric(0.5)
    out = tr.act_algebra(UEAElement.one(TS), a)
    assert np.allclose(out.prefix, a.prefix)


def test_act_algebra_factorization_witness():
    # (1 - X^2/4pi^2) applied to 1/(1+n^2) gives the constant sequence
    D = UEAElement(TS, {(0,): 1.0, (2,): -1.0 / (4 * math.pi**2)})
    u = tr.inverse_quadratic(1)
    out = tr.act_algebra(D, u)
    for n in range(-40, 41):
        assert abs(out.coeff(n) - 1.0) < 1e-12


def test_act_algebra_raises_envelope_degree():
    a = tr.comb()
    out = tr.act_algebra(X, a)
    assert out.envelope.degree == pytest.approx(1.0)
    assert out.growth is GrowthClass.POLYNOMIAL_GROWTH


# --- smoothing ------------------------------------------------------------------


def test_smooth_by_band_product():
    f = tr.band(2, "ones")
    out = tr.smooth_by(f, tr.comb())
    for n in range(-2, 3):
        assert out.coeff(n) == 1.0
    assert out.coeff(3) == 0
    assert out.growth is GrowthClass.RAPID_DECAY


def test_smooth_by_band_miss_gives_zero():
    out = tr.smooth_by(tr.band(2, "ones"), tr.unit(5))
    assert all(out.coeff(n) == 0 for n in range(-4, 5))


def test_group_translation_smoothing_routes(rng):
    # pi(s) pi(f) a = pi(L(s) f) a and pi(f) pi(s) a = pi(R(-s) f) a, spectrally
    f = _random_band(rng, 6)
    a = _random_sequence(rng, 9)
    s = 0.37
    lhs = tr.act_group(s, tr.smooth_by(f, a))
    rhs = tr.smooth_by(f.left_translate(s), a)
    lhs2 = tr.smooth_by(f, tr.act_group(s, a))
    rhs2 = tr.smooth_by(f.right_translate(-s), a)
    for n in range(-6, 7):
        assert abs(lhs.coeff(n) - rhs.coeff(n)) < 1e-14
        assert abs(lhs2.coeff(n) - rhs2.coeff(n)) < 1e-14


def test_pointwise_derivative_matches_algebra_route(rng):
    # d/dt <pi(t) a, b> at 0 equals <pi(X) a, b>
    from gmc.vectors import pair

    a, b = tr.poly(1), tr.geometric(0.4)
    algebra = pair(tr.act_algebra(X, a), b)
    h = 1e-6
    fd = (pair(tr.act_group(h, a), b) - pair(tr.act_group(-h, a), b)) / (2 * h)
    assert abs(fd - algebra) < 1e-4 * (1 + abs(algebra))


def test_smoothing_commutes_with_algebra_action(rng):
    # pi(X) pi(f) a = pi(L(X) f) a, spectrally exact
    B = 8
    f = _random_band(rng, B)
    a = _random_sequence(rng, 12)
    lhs = tr.act_algebra(X, tr.smooth_by(f, a))
    rhs = tr.smooth_by(f.left_derive(X), a)
    scale = 2 * math.pi * B
    for n in range(-B, B + 1):
        assert abs(lhs.coeff(n) - rhs.coeff(n)) <= 1e-14 * (1 + scale)


# --- generalized coefficients through test functions ------------------------------


def test_gmc_unit_at_zero_gives_mean():
    f = tr.band(3, "fejer")
    got = tr.gmc_eval(tr.unit(0), tr.comb(), f)
    assert abs(got - f.fhat(0)) < 1e-15


def test_gmc_dirac_comb_evaluates_at_zero(rng):
    for B in (2, 5, 16):
        f = _random_band(rng, B)
        got = tr.gmc_eval(tr.comb(), tr.comb(), f)
        assert abs(got - f(0.0)) < 1e-13


def test_gmc_disjoint_supports_vanish():
    f = tr.band(6, "gauss")
    assert tr.gmc_eval(tr.unit(1), tr.unit(2), f) == 0


def test_series_partial_sums_stabilize_exactly(rng):
    B = 5
    f = _random_band(rng, B)
    a = _random_sequence(rng, 10)
    limit = tr.gmc_eval(a, tr.comb(), f)
    previous = None
    for m in range(0, 9):
        s = tr.series_partial_sum(a, m, f)
        if m >= B:
            assert s == limit  # bit-identical stabilization
        previous = s


def _bits(z):
    return np.complex128(z).tobytes()


def _band_sum_vectors(rng):
    """Finite vectors inside, across and outside the band, and formula tails."""
    return [
        _random_sequence(rng, 2),
        vector_from_prefix(IndexDomain.INTEGERS, 5, rng.normal(size=9) + 0j, GrowthClass.POLYNOMIAL_GROWTH),
        vector_from_prefix(IndexDomain.INTEGERS, -30, rng.normal(size=4) + 1j, GrowthClass.RAPID_DECAY),
        tr.unit(0),
        tr.comb(),
        tr.poly(2),
        tr.geometric(0.5, extent=6),
        tr.inverse_quadratic(1, extent=3),
    ]


def test_band_sum_equals_pairing_the_smoothed_vector(rng):
    vectors = _band_sum_vectors(rng)
    for B in range(17):
        f = _random_band(rng, B)
        for a in vectors:
            smoothed = tr.smooth_by(f, a)
            for b in vectors:
                assert _bits(tr.gmc_eval(a, b, f)) == _bits(pair(smoothed, b))
            for m in sorted({0, max(B - 1, 0), B, B + 1, B + 5}):
                truncated = tr.project_subrep(smoothed, lambda n: abs(n) <= m)
                assert _bits(tr.series_partial_sum(a, m, f)) == _bits(pair(truncated, tr.comb()))


def test_band_sum_refuses_products_past_the_float_range():
    big = vector_from_prefix(IndexDomain.INTEGERS, -1, [1e300, 1e300, 1e300], GrowthClass.POLYNOMIAL_GROWTH)
    f = tr.TorusTestFunction(np.array([1e300, 1.0, 1.0]))
    with pytest.raises(PreconditionError):
        tr.gmc_eval(big, tr.comb(), f)
    with pytest.raises(PreconditionError):
        tr.series_partial_sum(big, 1, f)
    # the sum of three finite products past the float range
    with pytest.raises(PreconditionError):
        tr.series_partial_sum(tr.comb(), 1, tr.TorusTestFunction(np.full(3, 1e308)))


def test_band_sum_builds_no_vector(rng, monkeypatch):
    from gmc.vectors import CoefficientVector

    a, b, f = _random_sequence(rng, 6), tr.poly(1), _random_band(rng, 4)
    built = []
    original = CoefficientVector.__post_init__
    monkeypatch.setattr(CoefficientVector, "__post_init__", lambda v: built.append(v) or original(v))
    tr.gmc_eval(a, b, f)
    tr.series_partial_sum(a, 2, f)
    assert built == []
    tr.smooth_by(f, a)
    assert len(built) == 1


def test_series_partial_sum_order_zero():
    f = tr.band(4, "fejer")
    got = tr.series_partial_sum(tr.comb(), 0, f)
    assert abs(got - f.fhat(0)) < 1e-15


@pytest.mark.parametrize("B", [0, 1, 7, 64, 500])
def test_series_partial_sums_equal_the_per_order_sums_bit_for_bit(rng, B):
    # terms across 80 binades, near-cancelling pairs and subnormal imaginary parts
    scale = 2.0 ** rng.integers(-40, 40, 2 * B + 1)
    coeffs = rng.normal(size=2 * B + 1) * scale + 1j * rng.normal(size=2 * B + 1) * 2.0**-1060
    coeffs[: B // 2] = -coeffs[::-1][: B // 2]
    f = tr.TorusTestFunction(coeffs)
    for a in (tr.comb(), _random_sequence(rng, B + 3), _random_sequence(rng, max(B - 2, 0))):
        for m_max in sorted({0, B // 2, B, B + 4}):
            table = tr.series_partial_sums(a, m_max, f)
            assert len(table) == min(m_max, B) + 1
            assert [_bits(s) for s in table] == [_bits(tr.series_partial_sum(a, m, f)) for m in range(len(table))]


def test_series_partial_sums_refuse_what_a_partial_sum_refuses():
    with pytest.raises(PreconditionError):
        tr.series_partial_sums(tr.comb(), 1, tr.TorusTestFunction(np.full(3, 1e308)))
    # S_1 = 2e308 leaves the float range though S_2 = 0 does not
    f = tr.TorusTestFunction(np.array([-1e308, 1e308, 0.0, 1e308, -1e308]))
    assert tr.series_partial_sum(tr.comb(), 2, f) == 0
    with pytest.raises(PreconditionError):
        tr.series_partial_sum(tr.comb(), 1, f)
    with pytest.raises(PreconditionError):
        tr.series_partial_sums(tr.comb(), 2, f)
    with pytest.raises(PreconditionError):
        tr.series_partial_sums(tr.comb(), -1, f)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tr.act_group(0.1, hb.unit_vector(0)),
        lambda: tr.TorusTestFunction(np.ones(2)),
        lambda: tr.act_algebra(UEAElement.generator(hb.HEISENBERG_STRUCTURE, "P"), tr.unit(0)),
        lambda: tr.series_partial_sum(tr.comb(), -1, tr.band(2, "ones")),
        lambda: tr.pointwise_coefficient(tr.poly(1), tr.poly(2)),
    ],
    ids=["hermite-vector", "even-length-band", "heisenberg-element", "negative-order", "two-growing-vectors"],
)
def test_torus_refuses_inputs_of_the_wrong_kind(call):
    with pytest.raises(PreconditionError):
        call()


def test_series_odd_symmetry_cancellation():
    # a_n = n against an even profile: exact cancellation at any order
    coeffs = 1.0 / (1.0 + np.arange(-8, 9.0) ** 4)
    f = tr.TorusTestFunction(coeffs.astype(np.complex128))
    assert f.real_valued
    got = tr.series_partial_sum(tr.poly(1), 8, f)
    assert abs(got) < 1e-14


# --- dominated convergence -------------------------------------------------------


def test_dominated_truncation_residuals_vanish_at_band(rng):
    B = 4
    f = _random_band(rng, B)
    a = tr.comb()
    ones = tr.comb()
    b_list = [tr.project_subrep(ones, lambda n, m=m: abs(n) <= m) for m in range(0, 7)]
    resid = tr.dominated_sequence_check(a, b_list, ones, f)
    for m, r in enumerate(resid):
        if m >= B:
            assert r == 0.0
    assert resid[0] >= resid[B]


def test_dominated_constant_sequence_zero_residuals(rng):
    f = _random_band(rng, 3)
    b = tr.geometric(0.5)
    resid = tr.dominated_sequence_check(tr.comb(), [b, b, b], b, f)
    assert all(r == 0 for r in resid)


def test_dominated_gaussian_squeeze_residuals_decrease(rng):
    f = _random_band(rng, 6)
    ones = tr.comb()
    b_list = []
    for m in (1e0, 1e2, 1e4, 1e6, 1e9, 1e13):
        ns = np.arange(-20, 21)
        vals = np.exp(-(ns.astype(float) ** 2) / m)
        b_list.append(
            vector_from_prefix(
                IndexDomain.INTEGERS, -20, vals, GrowthClass.POLYNOMIAL_GROWTH, degree=0.0
            )
        )
    resid = tr.dominated_sequence_check(tr.comb(), b_list, ones, f)
    assert all(x >= y - 1e-15 for x, y in zip(resid, resid[1:]))
    assert resid[-1] < 1e-10 * max(1.0, resid[0])


def test_dominated_envelope_violation_names_offender():
    from gmc.vectors import GrowthEnvelope

    f = tr.band(2, "ones")
    good = tr.geometric(0.5)
    bad = vector_from_prefix(
        IndexDomain.INTEGERS, 0, np.array([50.0]), GrowthClass.POLYNOMIAL_GROWTH, degree=0.0
    )
    with pytest.raises(PreconditionError, match="#1 .* at index 0"):
        tr.dominated_sequence_check(
            tr.comb(), [good, bad], good, f, envelope=GrowthEnvelope(1.0, 0.0)
        )


# --- factorization ----------------------------------------------------------------


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_factorize_polynomial_growth(r):
    a = tr.poly(r)
    D, u = factorize(a, tr.TORUS)
    assert u.growth is GrowthClass.SQUARE_SUMMABLE
    out = tr.act_algebra(D, u)
    for n in range(-40, 41):
        expected = a.coeff(n)
        if expected == 0:
            assert abs(out.coeff(n)) < 1e-12
        else:
            assert abs(out.coeff(n) - expected) / abs(expected) < 1e-12
    # square-summability: certified Cauchy tail below 1e-8 at a finite extent,
    # and small-scale increments actually decreasing
    extent = u.cauchy_extent(1e-8)
    assert u.l2_tail_bound(extent) < 1e-8
    s = u.norm_sq_partial([64, 256, 1024])
    assert abs(s[2] - s[1]) < abs(s[1] - s[0]) + 1e-15


@pytest.mark.parametrize("r", [1.5, 3.6])
def test_factorize_non_integer_degree_gives_square_summable(r):
    # 2m > r + 1/2 puts u's envelope degree r - 2m below -1/2
    a = tr.poly(r)
    D, u = factorize(a, tr.TORUS)
    assert u.growth is GrowthClass.SQUARE_SUMMABLE and u.envelope.degree < -0.5
    assert factorize(a, tr.TORUS)[1].growth is GrowthClass.SQUARE_SUMMABLE
    ns = np.arange(-40, 41)
    assert np.allclose(tr.act_algebra(D, u).coeffs(ns), a.coeffs(ns), rtol=1e-12, atol=0.0)
    assert u.l2_tail_bound(u.cauchy_extent(1e-8)) < 1e-8


def test_factorize_integer_degrees_keep_their_element():
    # m = floor((r + 1/2) / 2) + 1 is floor(r / 2) + 1 for every integer r >= 0
    for r in range(8):
        D, _ = factorize(tr.poly(r), tr.TORUS)
        assert D.degree == 2 * (r // 2 + 1)


def test_labels_follow_the_envelope():
    assert tr.inverse_quadratic(0).growth is GrowthClass.POLYNOMIAL_GROWTH
    a = tr.inverse_quadratic(1)
    assert a.growth is GrowthClass.SQUARE_SUMMABLE
    # degree -2 + 1 is still square-summable; one more derivative reaches degree 0
    assert tr.act_algebra(X, a).growth is GrowthClass.SQUARE_SUMMABLE
    assert tr.act_algebra(X * X, a).growth is GrowthClass.POLYNOMIAL_GROWTH
    assert tr.act_algebra(X, tr.geometric(0.5)).growth is GrowthClass.RAPID_DECAY


def test_factorize_comb_norm_value():
    # closed form: sum over Z of (1+n^2)^{-2} = (pi/2)(coth pi + pi/sinh^2 pi)
    _, u = factorize(tr.comb(), tr.TORUS)
    closed = (math.pi / 2.0) * (
        math.cosh(math.pi) / math.sinh(math.pi) + math.pi / math.sinh(math.pi) ** 2
    )
    direct = sum(abs(u.coeff(n)) ** 2 for n in range(-4000, 4001))
    assert abs(direct - closed) < 1e-9
    assert abs(closed - 1.6136739508458) < 1e-12


def test_factorize_square_summable_is_trivial():
    u = tr.inverse_quadratic(1)
    D, w = factorize(u, tr.TORUS)
    assert D == UEAElement.one(TS)
    assert w is u


# --- projections -------------------------------------------------------------------


def test_project_even_comb():
    out = tr.project_subrep(tr.comb(extent=6), lambda n: n % 2 == 0)
    assert out.coeff(2) == 1 and out.coeff(3) == 0
    assert out.coeff(101) == 0 and out.coeff(100) == 1


def test_projection_commutes_with_algebra(rng):
    a = _random_sequence(rng, 10)
    keep = lambda n: n % 3 == 0
    lhs = tr.project_subrep(tr.act_algebra(X, a), keep)
    rhs = tr.act_algebra(X, tr.project_subrep(a, keep))
    for n in range(-10, 11):
        assert lhs.coeff(n) == rhs.coeff(n)


def test_projection_partition_of_identity(rng):
    a = _random_sequence(rng, 8)
    even = tr.project_subrep(a, lambda n: n % 2 == 0)
    odd = tr.project_subrep(a, lambda n: n % 2 == 1)
    for n in range(-8, 9):
        assert even.coeff(n) + odd.coeff(n) == a.coeff(n)


def test_projection_all_is_identity(rng):
    a = _random_sequence(rng, 5)
    out = tr.project_subrep(a, lambda n: True)
    assert np.array_equal(out.prefix, a.prefix)


# --- covariance identities -----------------------------------------------------------


def _random_operator(rng, B):
    terms = {}
    for m in range(4):
        w = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        terms[(m,)] = w / (1.0 + (2 * math.pi * B) ** m)
    return UEAElement(TS, terms)


def test_covariance_identities_randomized(rng):
    worst = 0.0
    for _ in range(60):
        B = int(rng.integers(1, 17))
        a = _random_sequence(rng, B + 4)
        b = _random_sequence(rng, B + 4)
        f = _random_band(rng, B)
        D = _random_operator(rng, B)
        s = float(rng.uniform(0, 1))
        r1 = abs(
            tr.gmc_eval(tr.act_group(s, a), b, f)
            - tr.gmc_eval(a, b, f.right_translate(-s))
        )
        r2 = abs(
            tr.gmc_eval(a, tr.dual_act_group(s, b), f)
            - tr.gmc_eval(a, b, f.left_translate(-s))
        )
        r3 = abs(
            tr.gmc_eval(a, tr.dual_act_algebra(D, b), f)
            - tr.gmc_eval(a, b, f.left_derive(uea_transpose(D)))
        )
        r4 = abs(
            tr.gmc_eval(tr.act_algebra(D, a), b, f)
            - tr.gmc_eval(a, b, f.right_derive(uea_antipode(D)))
        )
        worst = max(worst, r1, r2, r3, r4)
    assert worst < 1e-13


def test_structure_witness_through_factorization(rng):
    # <M_{a,1}, f> = <M_{u,1}, R(A(D)) f> for a = pi(D) u
    for r in (0, 1, 2):
        a = tr.poly(r)
        D, u = factorize(a, tr.TORUS)
        for B in (4, 8):
            f = _random_band(rng, B)
            lhs = tr.gmc_eval(a, tr.comb(), f)
            rhs = tr.gmc_eval(u, tr.comb(), f.right_derive(uea_antipode(D)))
            assert abs(lhs - rhs) <= 1e-13 * (1 + abs(lhs))


# --- test functions ------------------------------------------------------------------


def test_band_profiles_and_explicit_coefficients():
    f = tr.band(2, [1, 2, 3, 2, 1])
    assert f.bandwidth == 2 and f.fhat(-2) == 1 and f.fhat(0) == 3
    with pytest.raises(PreconditionError):
        tr.band(2, [1, 2, 3])
    with pytest.raises(PreconditionError):
        tr.band(3, "no-such-profile")


def test_band_real_valued_flag_checked():
    # the band equals its conjugate reverse, to 1e-14 times its largest coefficient
    assert not tr.TorusTestFunction(np.array([1j, 1.0, 1j])).real_valued
    assert tr.TorusTestFunction(np.array([1j, 1.0, -1j])).real_valued
    assert tr.TorusTestFunction(np.array([1e-15j, 1.0, 0.0])).real_valued
    assert not tr.TorusTestFunction(np.array([1e-3j, 1.0, 0.0])).real_valued
    # no relative slack: f(1/4) has imaginary part 9e-6
    f = tr.TorusTestFunction(np.array([1.0, 1.0, 1.000009]))
    assert abs(f(0.25).imag) > 8e-6 and not f.real_valued


def test_real_valued_survives_translation_and_derivatives():
    # translations and real-coefficient derivatives of a real function are real
    f = tr.band(4, "fejer")
    assert f.left_translate(0.3).real_valued and f.right_translate(-0.7).real_valued
    assert f.right_derive(UEAElement.generator(tr.TORUS_STRUCTURE, "X")).real_valued
    assert (f + f.left_translate(0.1)).real_valued and (2.5 * f).real_valued
    assert not (1j * f).real_valued


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_test_function_refuses_non_finite_coefficients(bad):
    with pytest.raises(PreconditionError, match="finite"):
        tr.TorusTestFunction(np.array([1.0, 1.0, bad]))
    with pytest.raises(PreconditionError):
        tr.band(1, [bad, 1.0, 1.0])


def test_test_function_pointwise_evaluation():
    f = tr.band(1, [0.5, 1.0, 0.5])
    # f(t) = 1 + cos(2 pi t)
    for t in (0.0, 0.25, 0.4):
        assert abs(f(t) - (1 + math.cos(2 * math.pi * t))) < 1e-14


def test_named_band_past_the_limit_is_a_budget_error_before_any_array():
    assert tr.band(3, "fejer").bandwidth == 3
    for profile in ("ones", "fejer", "gauss"):
        with pytest.raises(BudgetExceeded, match=str(tr.BAND_LIMIT)):
            tr.band(tr.BAND_LIMIT + 1, profile)
        with pytest.raises(BudgetExceeded):
            tr.band(10**20, profile)
