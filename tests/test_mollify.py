"""Bump profiles, scaled mollifiers, pushforwards, and convergence diagnostics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gmc import heisenberg as hb
from gmc import mollify as mo
from gmc import torus as tr
from gmc.errors import BudgetExceeded, GmcError, PreconditionError
from gmc.vectors import GrowthClass, fitted_decay_exponent, pair


def test_unit_bump_mass_against_adaptive_quadrature():
    oracle, err = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1 else 0.0, -1, 1)
    got = mo.BumpProfile(1.0, 1.0).mass(mo.MASS_NODES)
    assert err < 1e-9
    assert abs(got - oracle) < 1e-9
    assert abs(got - 0.4439938) < 1e-6


def test_unit_bump_mass_against_reference_value():
    # the mpmath value of the integral of exp(-1/(1-x^2)) over [-1, 1]
    assert abs(mo.BumpProfile(1.0, 1.0).mass(mo.MASS_NODES) - 0.443993816168079437823) < 4e-15


def test_profile_unit_mass_two_resolutions():
    prof = mo.BumpProfile.standard(0.3)
    assert abs(prof.mass() - 1.0) < 1e-10
    assert abs(prof.mass(nodes=700) - 1.0) < 1e-10


def test_standard_profiles_share_one_checked_normalization():
    unit = mo.BumpProfile(1.0, 1.0)
    coarse = unit.mass(mo.MASS_NODES)
    assert abs(coarse - unit.mass(mo._MASS_CHECK_NODES)) <= 1e-12 * (1.0 + coarse)
    mo.BumpProfile.standard()
    before = mo._unit_mass.cache_info()
    for radius in (0.1, 0.25, 0.3, 7.5):
        assert mo.BumpProfile.standard(radius).normalization == 1.0 / (radius * coarse)
    after = mo._unit_mass.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 4


def test_profile_support():
    prof = mo.BumpProfile.standard(0.25)
    assert prof(np.array([0.25])) == 0
    assert prof(np.array([-0.3])) == 0
    assert prof(np.array([0.2]))[0] > 0


def test_scaled_bump_geometry():
    prof = mo.BumpProfile.standard(0.25)
    j1 = prof.scaled(1)
    j4 = prof.scaled(4)
    assert j4.support == pytest.approx(0.0625)
    # peak scales linearly with n in one dimension
    assert j4(np.array([0.0]))[0] == pytest.approx(4 * j1(np.array([0.0]))[0])
    assert j1(np.array([0.0]))[0] == pytest.approx(prof(np.array([0.0]))[0])


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_scaled_bump_unit_mass(n):
    prof = mo.BumpProfile.standard(0.25)
    jn = prof.scaled(n)
    assert abs(jn.mass() - 1.0) < 1e-10
    assert abs(jn.mass(nodes=600) - 1.0) < 1e-10


def test_scaled_bump_rejects_zero_index():
    prof = mo.BumpProfile.standard(0.25)
    with pytest.raises(PreconditionError):
        prof.scaled(0)


# --- pushforwards ---------------------------------------------------------------


def test_torus_pushforward_unit_mean():
    for radius in (0.15, 0.25, 0.45):
        for n in (1, 2, 4, 16, 64):
            f = mo.standard_mollifier(tr.TORUS, n=n, radius=radius)
            assert abs(f.fhat(0) - 1.0) <= 1e-13
            assert f.real_valued


def test_torus_pushforward_matches_oscillatory_quadrature_across_band():
    # fhat(m) = jhat(m/n) for the unit-scale profile; QAWO handles the oscillation
    prof = mo.BumpProfile.standard(0.25)
    n = 64
    f = mo.push_forward(prof.scaled(n), tr.TORUS)
    B = f.bandwidth
    # the coefficients past the band, from an FFT twice as long as the band's, are below 1e-14
    assert np.max(np.abs(mo._fft_table(prof.scaled(n), 1 << 17)[B + 1 :])) < 1e-14
    for m in (0, B // 2, B - 40, B):
        oracle = 2.0 * quad(
            lambda u: prof(np.array([u]))[0], 0.0, prof.radius,
            weight="cos", wvar=2.0 * math.pi * m / n, epsabs=1e-16, limit=400,
        )[0]
        assert abs(f.fhat(m) - oracle) < 1e-12


def test_torus_pushforward_sample_cap(monkeypatch):
    prof = mo.BumpProfile.standard(0.25)
    monkeypatch.setattr(mo, "_FFT_SAMPLE_CAP", 1 << 14)
    mo.push_forward(prof.scaled(4), tr.TORUS)
    with pytest.raises(BudgetExceeded):
        mo.push_forward(prof.scaled(64), tr.TORUS)


def _is_5_smooth(size):
    for p in (2, 3, 5):
        while size % p == 0:
            size //= p
    return size == 1


def test_smooth_length_is_the_least_even_5_smooth_length_past_the_target():
    smooth = [m for m in range(2, 6000, 2) if _is_5_smooth(m)]
    for target in range(2, 5000):
        assert mo._smooth_length(target) == next(m for m in smooth if m >= target), target
    assert mo._smooth_length(1e6 + 0.5) == 1_012_500
    assert mo._smooth_length(mo._FFT_SAMPLE_CAP) == mo._FFT_SAMPLE_CAP


def _reference_band(jn, size):
    """|fhat(m)| for m <= size / 2 from the trapezoid rule on size samples of the whole
    period, the bump evaluated everywhere."""
    return np.abs(np.fft.rfft(np.fft.ifftshift(jn((np.arange(size) - size // 2) / size))).real / size)


def test_torus_pushforward_starts_at_a_5_smooth_length_past_the_band(monkeypatch):
    # one FFT at an even 5-smooth length past 4 times the band; the band agrees with a
    # power-of-two reference twice as long, and the reference is below 1e-14 past it
    radii = [round(0.15 + 0.0025 * i, 4) for i in range(121)]
    assert radii[-1] == 0.45
    sizes = []
    table = mo._fft_table
    monkeypatch.setattr(mo, "_fft_table", lambda jn, size: sizes.append(size) or table(jn, size))
    for r in radii:
        prof = mo.BumpProfile.standard(r)
        for n in (1, 2, 3, 4, 5, 8, 13, 16, 32, 64):
            jn = prof.scaled(n)
            sizes.clear()
            got = mo.push_forward(jn, tr.TORUS)
            B = got.bandwidth
            assert B == math.floor(mo._BAND_EDGE / jn.support)
            assert sizes[0] >= 4 * (B + 1) and sizes[0] % 2 == 0 and _is_5_smooth(sizes[0]), (r, n, sizes)
            ref = _reference_band(jn, 1 << (sizes[0] - 1).bit_length() + 1)
            assert np.max(np.abs(np.abs(got.coeffs[B:]) - ref[: B + 1])) <= 1e-15, (r, n)
            assert np.max(ref[B + 1 :]) < 1e-14, (r, n)


def test_support_samples_equal_the_full_period_samples_bit_for_bit():
    # the FFT's input is the same array whether the bump is evaluated on the whole
    # period or only inside its support
    for radius, n, size in [(0.25, 1, 1024), (0.25, 64, 135_000), (0.49, 1, 1000),
                            (0.2, 13, 30_000), (0.45, 3, 10_240), (0.15, 8, 2 ** 16)]:
        jn = mo.BumpProfile.standard(radius).scaled(n)
        full = np.fft.ifftshift(jn((np.arange(size) - size // 2) / size))
        assert mo._period_samples(jn, size).tobytes() == full.tobytes(), (radius, n, size)


def test_band_edge_is_where_the_bump_transform_falls_below_1e_14():
    # the constant edge is measured, not tuned: on the reference transform at radius
    # 1/1024 (lam = m / 1024), the last |jhat| at or above 1e-14 lies within 0.01 below the
    # edge, and none past it; a profile or normalization that moves the edge fails here
    jn = mo.BumpProfile.standard(1.0 / 1024)
    ref = _reference_band(jn, 1 << 21)
    lam = np.arange(len(ref)) / 1024
    near = (lam > 120) & (lam < 150)  # rounding is some 1e-17 there, on 2^21 samples or 3 2^20
    assert np.max(np.abs(ref[near] - _reference_band(jn, 3 << 20)[: len(ref)][near])) < 1e-16
    last = lam[np.flatnonzero(ref >= 1e-14)[-1]]
    assert mo._BAND_EDGE - 0.01 < last <= mo._BAND_EDGE == 132.31


def test_torus_pushforward_start_past_the_cap_raises_before_sampling(monkeypatch):
    monkeypatch.setattr(mo, "_FFT_SAMPLE_CAP", 1 << 14)

    def no_sampling(jn, size):
        raise AssertionError(f"sampled {size} points")

    monkeypatch.setattr(mo, "_fft_table", no_sampling)
    jn = mo.BumpProfile.standard(0.25).scaled(64)
    assert 4.0 * mo._BAND_EDGE / (1.01 * jn.support) > 1 << 14  # the predicted start
    with pytest.raises(BudgetExceeded) as info:
        mo.push_forward(jn, tr.TORUS)
    assert info.value.achieved_bound == math.inf


def test_torus_pushforward_matches_direct_transform():
    # independent oracle: adaptive quadrature of the defining integral
    prof = mo.BumpProfile.standard(0.25)
    jn = prof.scaled(2)
    f = mo.push_forward(jn, tr.TORUS)
    for m in (0, 1, 3, 7):
        oracle = quad(
            lambda x, m=m: 2.0 * jn(np.array([x]))[0] * math.cos(2 * math.pi * m * x),
            0.0,
            jn.support,
            limit=200,
        )[0]
        assert abs(f.fhat(m) - oracle) < 1e-10
        assert f.fhat(-m) == f.fhat(m)


def test_torus_pushforward_coefficients_approach_one():
    prof = mo.BumpProfile.standard(0.25)
    for m in (1, 2, 5):
        vals = [
            mo.push_forward(prof.scaled(n), tr.TORUS).fhat(m)
            for n in (2, 4, 8, 16)
        ]
        diffs = [abs(1.0 - v) for v in vals]
        assert all(x > y for x, y in zip(diffs, diffs[1:]))


def test_torus_pushforward_injectivity_radius():
    prof = mo.BumpProfile.standard(1.2)
    with pytest.raises(PreconditionError, match="n >= 3"):
        mo.push_forward(prof.scaled(2), tr.TORUS)
    mo.push_forward(prof.scaled(3), tr.TORUS)


def test_heisenberg_pushforward_value_at_identity():
    prof = mo.BumpProfile.standard(0.5)
    jn = prof.scaled(2)
    f = mo.push_forward(jn, hb.HEISENBERG)
    peak = jn(np.array([0.0]))[0]
    assert abs(f(hb.IDENTITY) - peak**3) < 1e-12
    assert abs(f((0.3, 0, 0))) == 0  # outside support


def test_heisenberg_pushforward_unit_mass():
    for n in (1, 2, 4, 8):
        f = mo.standard_mollifier(hb.HEISENBERG, n=n, radius=0.5)
        assert abs(f.integral(96) - 1.0) < 1e-10


def test_pushforward_unknown_model():
    from gmc.groups import GroupModel
    from gmc.uea import LieStructure

    other = GroupModel(name="other", structure=LieStructure(labels=("X",)), inverse=lambda a: -a)
    prof = mo.BumpProfile.standard(0.25)
    with pytest.raises(PreconditionError):
        mo.push_forward(prof.scaled(1), other)


# --- mollification -----------------------------------------------------------------


def test_mollify_torus_comb_matches_profile_transform():
    prof = mo.BumpProfile.standard(0.25)
    n = 4
    out = mo.mollify(tr.comb(), n, tr.TORUS, profile=prof)
    f = mo.push_forward(prof.scaled(n), tr.TORUS)
    for m in range(-8, 9):
        assert abs(out.coeff(m) - f.fhat(m)) < 1e-14
    assert out.growth is GrowthClass.RAPID_DECAY


def test_mollify_pairing_converges_monotonically():
    prof = mo.BumpProfile.standard(0.25)
    eta = tr.comb()
    v = tr.geometric(0.005)
    base = pair(eta, v)
    resid = []
    for n in (1, 2, 4, 8, 16, 32, 64):
        resid.append(abs(pair(mo.mollify(eta, n, tr.TORUS, profile=prof), v) - base))
    assert all(x > y for x, y in zip(resid, resid[1:]))
    assert resid[-1] < 1e-6


def test_mollify_smooth_vector_residual_decreases():
    prof = mo.BumpProfile.standard(0.25)
    eta = tr.geometric(0.5, extent=16)
    resid = []
    for n in (2, 4, 8, 16):
        out = mo.mollify(eta, n, tr.TORUS, profile=prof)
        r = math.sqrt(
            sum(abs(out.coeff(k) - eta.coeff(k)) ** 2 for k in range(-24, 25))
        )
        resid.append(r)
    assert all(x > y for x, y in zip(resid, resid[1:]))


def test_mollify_heisenberg_delta_is_certified_smooth():
    out = mo.mollify(hb.dirac_delta(), 1, hb.HEISENBERG, profile=mo.BumpProfile.standard(0.8))
    assert out.growth is GrowthClass.RAPID_DECAY
    assert fitted_decay_exponent(out, floor=1e-12) < -1.0


def _finite_or_typed_error(compute) -> None:
    try:
        value = compute()
    except GmcError:
        return
    assert np.all(np.isfinite(value))


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 256), radius=st.floats(0.15, 0.45))
def test_circle_mollifier_edge_values_are_finite(n, radius):
    # the band grows like n / radius: n = 256 at radius 0.15 is the widest case
    _finite_or_typed_error(
        lambda: tr.gmc_eval(tr.comb(), tr.comb(), mo.standard_mollifier(tr.TORUS, n, radius))
    )


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 256), radius=st.floats(0.15, 0.8))
def test_heisenberg_mollifier_edge_values_are_finite(n, radius):
    _finite_or_typed_error(
        lambda: hb.gmc_eval(
            hb.dirac_delta(), hb.unit_vector(0), mo.standard_mollifier(hb.HEISENBERG, n, radius)
        )
    )


# --- gmc approximation tables ----------------------------------------------------------


def test_gmc_approx_torus_residuals_vanish():
    f = tr.band(8, "fejer")
    rows = mo.gmc_approx(
        tr.comb(), tr.comb(), f, [2, 4, 8, 16], tr.TORUS, profile=mo.BumpProfile.standard(0.2)
    )
    resid = [r for (_, _, r) in rows]
    assert all(x > y for x, y in zip(resid, resid[1:]))


def test_gmc_approx_zero_partner():
    f = tr.band(4, "ones")
    zero = tr.project_subrep(tr.comb(), lambda n: False)
    rows = mo.gmc_approx(tr.comb(), zero, f, [1, 2], tr.TORUS)
    assert all(r == 0 for (_, _, r) in rows)


def test_gmc_approx_heisenberg_delta():
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    rows = mo.gmc_approx(
        hb.dirac_delta(),
        hb.unit_vector(0),
        f,
        [2, 4, 8],
        hb.HEISENBERG,
        profile=mo.BumpProfile.standard(0.5),
    )
    resid = [r for (_, _, r) in rows]
    assert all(x > y for x, y in zip(resid, resid[1:]))


def test_gmc_approx_smooths_and_pairs_at_the_given_truncation():
    # the model from with_quadrature carries the truncation to the mollify step too, not
    # only to the pairing: every row equals the one built by hand at that truncation
    from gmc.config import QuadratureSpec

    quad64 = QuadratureSpec(truncation=64)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    profile = mo.BumpProfile.standard(0.5)
    delta, e0 = hb.dirac_delta(), hb.unit_vector(0)
    rows = mo.gmc_approx(delta, e0, f, [2, 4], hb.with_quadrature(quad64), profile=profile)
    base = hb.gmc_eval(delta, e0, f, quad=quad64)
    for n, value, residual in rows:
        jn = mo.push_forward(profile.scaled(n), hb.HEISENBERG)
        want = hb.gmc_eval(hb.smooth_by(jn, delta, quad64), e0, f, quad=quad64)
        assert (value, residual) == (want, abs(want - base))
    # the default model's rows differ, so the rows above did not fall back to it
    assert rows != mo.gmc_approx(delta, e0, f, [2, 4], hb.HEISENBERG, profile=profile)


# --- circle rows through f * J_n -------------------------------------------------------


def _mollified_row(eta, zeta, f, jn_vector):
    """<pi(f) pi(J_n) eta, zeta> through the whole mollified vector, and the sum of the
    absolute values of its terms."""
    B = f.bandwidth
    terms = jn_vector.dense(-B, B) * f.coeffs[::-1] * zeta.dense(-B, B)
    return tr.gmc_eval(jn_vector, zeta, f), float(np.sum(np.abs(terms)))


def test_circle_rows_equal_the_pairing_of_the_mollified_vector():
    # pi(f) pi(J_n) = pi(f * J_n): a row read on f's band alone equals the row of the
    # whole mollified vector, for every n up to 64 whose support is below 1/2
    vectors = [tr.comb(), tr.poly(2), tr.geometric(0.5), tr.inverse_quadratic(2), tr.alternating()]
    bands = [tr.band(B, ("fejer", "gauss", "ones")[B % 3]) for B in range(17)]
    for radius in (0.15, 0.2269, 0.3, 0.45):
        prof = mo.BumpProfile.standard(radius)
        ns = [n for n in range(1, 65) if prof.scaled(n).support < 0.5]
        assert ns[0] == 1 and ns[-1] == 64
        for i, eta in enumerate(vectors):
            zeta = vectors[(i + 2) % len(vectors)]
            smoothed = {n: mo.mollify(eta, n, tr.TORUS, profile=prof) for n in ns}
            for f in bands:
                rows = mo.gmc_approx(eta, zeta, f, ns, tr.TORUS, profile=prof)
                for n, value, _ in rows:
                    want, size = _mollified_row(eta, zeta, f, smoothed[n])
                    assert abs(value - want) <= 1e-14 * (1.0 + size), (radius, n, i, f.bandwidth)


def test_circle_rows_take_the_fft_table_only_past_the_cosine_bound(monkeypatch):
    # support 1/8: band 192 reaches lam = 24 and takes the cosine sums, band 193 the FFT
    prof = mo.BumpProfile.standard(0.25)
    jn = prof.scaled(2)
    sizes = []
    table = mo._fft_table
    monkeypatch.setattr(mo, "_fft_table", lambda jn, size: sizes.append(size) or table(jn, size))
    for B, ffts in ((192, 0), (193, 1)):
        assert (B * jn.support <= mo._COSINE_LAM) == (ffts == 0)
        f = tr.band(B, "fejer")
        sizes.clear()
        [(_, value, _)] = mo.gmc_approx(tr.comb(), tr.geometric(0.9), f, [2], tr.TORUS, profile=prof)
        assert len(sizes) == ffts, B
        want, size = _mollified_row(tr.comb(), tr.geometric(0.9), f, mo.mollify(tr.comb(), 2, tr.TORUS, prof))
        assert abs(value - want) <= 1e-14 * (1.0 + size), B


def test_wide_circle_rows_read_the_fft_band_with_zeros_past_its_cut():
    # a band past J_n's cut reads zeros there, as the mollified vector does
    prof = mo.BumpProfile.standard(0.25)
    jn = prof.scaled(2)
    cut = mo.push_forward(jn, tr.TORUS).bandwidth
    f = tr.band(cut + 40, "ones")
    g = mo._torus_smoothed(f, jn)
    assert g.bandwidth == cut + 40
    assert np.all(g.coeffs[:40] == 0) and np.all(g.coeffs[-40:] == 0)
    assert np.array_equal(g.coeffs[40:-40], mo.push_forward(jn, tr.TORUS).coeffs)


def test_bump_transform_at_128_nodes_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    unit = mo.BumpProfile.standard(1.0)
    lams = [0, 1, 8, 24]
    got = unit.transform(np.array(lams, dtype=float), mo.MASS_NODES)
    with mpmath.workdps(30):
        bump = lambda u: mpmath.exp(-1 / (1 - u * u))
        mass = mpmath.quad(bump, [-1, 0, 1])
        for lam, value in zip(lams, got):
            cos_sum = mpmath.quad(lambda u: bump(u) * mpmath.cos(2 * mpmath.pi * lam * u), mpmath.linspace(-1, 1, 49))
            assert abs(value - float(cos_sum / mass)) <= 6.4e-15, lam


@pytest.mark.parametrize("radius", [0.25, 0.4, 0.5, 0.8])
def test_scaled_bump_mass_is_one(radius):
    # the mass and the normalization read one Gauss-Legendre rule: on 400 nodes against a
    # 128-node normalization, every mass here read 1 + 3.3e-14
    for n in (1, 2, 4):
        assert abs(mo.BumpProfile.standard(radius).scaled(n).mass() - 1.0) <= 2 * np.spacing(1.0), n


def test_bump_transform_of_a_scalar_is_the_one_float_sum():
    # an array of frequencies leaves the scalar sum, which Heisenberg test functions
    # read, bit for bit as it was
    for jn in (mo.BumpProfile.standard(0.25).scaled(3), mo.BumpProfile.standard(0.8)):
        x, w = mo.legendre_on_interval(-jn.support, jn.support, mo.MASS_NODES)
        lams = [0.0, 0.5, 1.0, 7.25, -3.0]
        for lam in lams:
            got = jn.transform(lam)
            assert type(got) is float
            assert got == float(w @ (jn(x) * np.cos(2.0 * np.pi * lam * x))), lam
        assert np.allclose(jn.transform(np.array(lams)), [jn.transform(lam) for lam in lams], rtol=0, atol=1e-15)


@pytest.mark.parametrize("B", [2, 400])
def test_gmc_approx_refuses_a_support_where_exp_is_not_injective(B, monkeypatch):
    def no_sampling(jn, size):
        raise AssertionError(f"sampled {size} points")

    monkeypatch.setattr(mo, "_fft_table", no_sampling)
    prof = mo.BumpProfile.standard(1.2)
    f = tr.band(B, "fejer")
    with pytest.raises(PreconditionError, match="exp is not injective on the support; need n >= 3"):
        mo.gmc_approx(tr.comb(), tr.comb(), f, [2, 3], tr.TORUS, profile=prof)
