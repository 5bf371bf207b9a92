"""Schrodinger representation: matrix elements, group/algebra actions, smoothing."""
import decimal
import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmc import heisenberg as hb
from gmc import mollify as mo
from gmc import torus as tr
from gmc.config import QuadratureSpec
from gmc.errors import BudgetExceeded, GmcError, PreconditionError, QuadratureAccuracyError
from gmc.hermite import (
    gauss_hermite_rule,
    hermite_scaled,
    legendre_on_interval,
)
from gmc.uea import UEAElement
from gmc.vectors import (
    CoefficientVector,
    GrowthClass,
    GrowthEnvelope,
    IndexDomain,
    Tail,
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
    hj = hermite_scaled(x + g.p, j)[j]
    hk = hermite_scaled(x, k)[k]
    phase = np.exp(2j * np.pi * (g.t + g.q * x + g.p * g.q / 2.0))
    return np.trapezoid(phase * hj * hk, x)


# --- matrix elements -------------------------------------------------------------


def test_matrix_element_central_phase():
    got = hb.matrix_element((0, 0, 0.25), 2, 2)
    assert abs(got - 1j) < 1e-12


@pytest.mark.parametrize("t", [1e17, -1e17, 1e300, 1e308, 2.0**52 + 0.5])
def test_central_phase_drops_whole_turns_exactly(t):
    # exp(2 pi i t) depends on t mod 1 only, and so do all four group-side routes
    e0 = hb.unit_vector(0)
    phase = np.exp(2j * np.pi * (t % 1.0))
    g = (0.0, 0.0, t)
    assert abs(hb.matrix_element(g, 0, 0) - phase) < 1e-15
    assert abs(hb.pointwise_coefficient(e0, e0)(g) - phase) < 1e-15
    assert abs(hb.act_group(g, e0).coeff(0) - phase) < 1e-15
    assert abs(hb.dual_act_group(g, e0).coeff(0) - np.conj(phase)) < 1e-15
    base = hb.gmc_eval(e0, e0, _BUMP)
    assert abs(hb.gmc_eval(e0, e0, _BUMP.left_translate(g)) - phase * base) < 1e-15


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


def test_matrix_element_closed_form_matches_x_space_oracle_tightly():
    for g in ((0.8, -0.4, 0.1), (0.2, 1.0, -0.3), (1.5, -1.2, 0.4)):
        for j, k in ((0, 0), (1, 2), (3, 1), (12, 7), (20, 25)):
            got = hb.matrix_element(g, j, k)
            oracle = _x_space_matrix_element(g, j, k)
            assert abs(got - oracle) < 1e-12


def test_kernel_rows_unitary_at_large_displacement():
    # row k of pi(p, q, 0) has unit norm; 900 columns hold its whole band for |p|, |q| <= 4
    ps = np.array([4.0, -4.0, 0.0, 2.5, -3.2, 0.05])
    qs = np.array([4.0, 3.3, -4.0, -2.5, 0.7, 0.0])
    # at k = 2000 the rows start some 900 columns below k, where they are negligible
    for k, cols, m in ((0, 900, 6), (40, 900, 6), (150, 900, 6), (2000, 3300, 2), (2000, 3300, 6)):
        psi = np.zeros(k + 1)
        psi[k] = 1.0
        c = hb._kernel_columns(psi, cols, ps[:m], qs[:m])
        assert np.max(np.abs(np.sum(np.abs(c) ** 2, axis=0) - 1.0)) < 1e-12


_COORD = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))


@st.composite
def _kernel_window_case(draw):
    k = draw(st.integers(0, 2000))
    kind = draw(st.sampled_from(["unit", "sparse", "dense"]))
    psi = np.zeros(k + 1, dtype=np.complex128)
    psi[k] = 1.0
    if kind == "sparse":
        for i in draw(st.lists(st.integers(0, k), max_size=4)):
            psi[i] = 0.5 - 0.25j
    elif kind == "dense":
        psi[:] = np.cos(np.arange(k + 1)) + 1j * np.sin(0.3 * np.arange(k + 1))
        if draw(st.booleans()):
            psi[1::2] = 0.0  # the parity gaps of an even vector
    cols = draw(st.integers(1, 96))
    lo = draw(st.integers(0, cols - 1))
    points = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=3))
    if draw(st.booleans()):  # sign flips and the p <-> q swap share the first point's rows
        p0, q0 = points[0]
        points += [(-p0, q0), (p0, -q0), (-p0, -q0), (q0, p0)]
    return psi, cols, lo, points


@settings(max_examples=60, deadline=None)
@given(_kernel_window_case())
def test_kernel_window_has_the_bits_of_the_full_columns(case):
    # a window must not change a row's arithmetic, nor may the other points, nor the
    # points that share a radius and so read the same rows
    psi, cols, lo, points = case
    p, q = (np.array(v) for v in zip(*points))
    full = hb._kernel_columns(psi, cols, p, q)
    assert np.array_equal(hb._kernel_columns(psi, cols, p, q, lo), full[lo:])
    assert np.array_equal(hb._kernel_columns(psi, cols, p[0], q[0], lo), full[lo:, :1])
    assert np.array_equal(hb._kernel_columns(psi, cols, p[-1], q[-1], lo), full[lo:, -1:])


def _decimal_pi():
    """pi to the current decimal precision (the recipe in the decimal module's documentation)."""
    decimal.getcontext().prec += 2
    last, t, total, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while total != last:
        last = total
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        total += t
    decimal.getcontext().prec -= 2
    return +total


def _reference_row(k, p, q, cols):
    """W_j = u^(j-k) <pi(p, q, 0) h_j, h_k>, j < cols, at the float point (p, q), in 160 digits.

    x = pi (p^2 + q^2) is taken exactly from the floats. The row runs forward from the
    closed form W_0 = exp(-x/2) x^(k/2) / sqrt(k!) through
    sqrt(x (j+1)) W_{j+1} = (k - j - x) W_j - sqrt(x j) W_{j-1}. Past the band that
    direction also grows the other solution, by far less than 10^100 before the row
    falls below 1e-40 (where it stops: the rest is 0), so 160 digits keep 60.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 160
        x = _decimal_pi() * (Decimal(p) ** 2 + Decimal(q) ** 2)
        if x == 0:
            return np.eye(1, cols, k)[0]
        sx = x.sqrt()
        prev, cur = Decimal(0), (-x / 2).exp() * x ** (Decimal(k) / 2) / Decimal(math.factorial(k)).sqrt()
        row = np.zeros(cols)
        for j in range(cols):
            row[j] = float(cur)
            if j > k + x and abs(cur) < Decimal("1e-40"):
                break
            prev, cur = cur, ((k - j - x) * cur - sx * Decimal(j).sqrt() * prev) / (sx * Decimal(j + 1).sqrt())
        return row


def _reference_laguerre(j, k, p, q):
    """W_j for j <= k from the closed form exp(-x/2) x^((k-j)/2) sqrt(j!/k!) L_j^(k-j)(x), 80 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        x = _decimal_pi() * (Decimal(p) ** 2 + Decimal(q) ** 2)
        a, prev, cur = k - j, Decimal(0), Decimal(1)  # L_{-1}, L_0
        for i in range(j):
            prev, cur = cur, ((2 * i + 1 + a - x) * cur - (i + a) * prev) / (i + 1)
        scale = (-x / 2).exp() * x ** (Decimal(a) / 2) * (Decimal(math.factorial(j)) / math.factorial(k)).sqrt()
        return float(scale * cur)


_REFERENCE_POINTS = [(0.0, 0.0), (0.05, 0.0), (1e-3, -2e-3), (4.0, 4.0), (-4.0, 3.3), (2.5, -2.5)]


def test_reference_rows_match_the_laguerre_closed_form():
    # the reference shares the recurrence with the code; check it against the closed form
    for p, q in _REFERENCE_POINTS[1:]:
        row = _reference_row(40, p, q, 41)
        for j in (0, 7, 25, 39, 40):
            assert abs(row[j] - _reference_laguerre(j, 40, p, q)) <= 1e-15 * max(abs(row[j]), 1e-300)


@pytest.mark.parametrize("k", [0, 1, 40, 410, 600, 2000])
def test_kernel_rows_match_a_high_precision_reference(k):
    # unit-norm rows satisfy the unitarity rows by construction; this checks their values
    p, q = (np.array(v) for v in zip(*_REFERENCE_POINTS))
    cols = 3300 if k == 2000 else k + 1300
    psi = np.zeros(k + 1)
    psi[k] = 1.0
    got = hb._kernel_columns(psi, cols, p, q)
    theta = np.arctan2(q, -p)
    for m, (pm, qm) in enumerate(_REFERENCE_POINTS):
        ref = _reference_row(k, pm, qm, cols) * np.exp(1j * (k - np.arange(cols)) * theta[m])
        assert np.max(np.abs(got[:, m] - ref)) < 1e-14, (pm, qm)


def test_kernel_rows_do_not_depend_on_the_chunk_budget(monkeypatch):
    psi = np.cos(np.arange(40)) * (np.arange(40) % 3 != 1)
    # the second grid is symmetric: passes that split a row's radii still reach all their points
    for ps, qs in ((np.linspace(-2.0, 2.0, 4), np.linspace(-1.0, 3.0, 3)), (np.linspace(-1.5, 1.5, 5),) * 2):
        P, Q = np.meshgrid(ps, qs, indexing="ij")
        whole = hb._kernel_columns(psi, 80, P.ravel(), Q.ravel(), 10)
        with monkeypatch.context() as patch:
            patch.setattr(hb, "KERNEL_CHUNK", 2000)  # a few rows of pairs per pass
            assert np.array_equal(hb._kernel_columns(psi, 80, P.ravel(), Q.ravel(), 10), whole)


def _full_table_kernel_rows(k, x, first, centre, last, ws, we):
    """_kernel_rows with its scaling table built in full, from index 0 to the rows' last
    index: the reference for the windowed table."""
    n = len(k)
    f0, b0 = int(first.min()), int(last.max())
    steps = max(int(centre.max()) + 2 - f0, b0 + 1 - int(centre.min()))
    rows = np.stack([f0 + np.arange(steps), np.maximum(b0 - np.arange(steps), 1)], axis=1)
    t = hb._scaling_table(0, max(b0, f0 + steps))
    t_row = t[rows]
    g_row = t_row / (t[rows + [1, -1]] * np.sqrt(rows + [1, 0]))
    start, stop = np.stack([first - f0, b0 - last]), np.stack([centre - f0, b0 - centre - 1])
    sign = np.stack([np.where((x < k) | (first % 2 == 0), 1.0, -1.0), np.ones(n)])
    turn = start % 4
    v = np.empty((steps + 1, 2, n))
    v[0], v[1] = sign * np.array([0.0, -1.0, 0.0, 1.0])[turn], sign * np.array([1.0, 0.0, -1.0, 0.0])[turn]
    own = (np.arange(steps)[:, None, None] >= start) & (np.arange(steps)[:, None, None] <= stop)
    sx = np.sqrt(x)
    d = np.empty((64, 2, n))
    views = list(v.reshape(steps + 1, 2 * n))
    for b in range(0, steps - 1, 64):
        e = min(b + 64, steps - 1)
        db = d[: e - b]
        np.subtract(k, rows[b:e, :, None], db)
        np.divide(db, sx, db)
        np.subtract(db, sx, db)
        np.multiply(db, g_row[b:e, :, None], db)
        np.multiply(db, own[b:e], db)
        for dr, behind, cur, ahead in zip(db.reshape(e - b, 2 * n), views[b:], views[b + 1 :], views[b + 2 :]):
            np.multiply(dr, cur, ahead)
            np.subtract(ahead, behind, ahead)
    at, lanes = np.stack([centre - f0, b0 - centre]) + 1, np.arange(n)
    (f_c, b_c), (f_c1, b_c1) = v[at, [[0], [1]], lanes], v[at + [[1], [-1]], [[0], [1]], lanes]
    v[:, 1] *= (f_c * b_c + f_c1 * b_c1) / (b_c * b_c + b_c1 * b_c1)
    w = v[1:]
    w *= own
    w *= t_row[:, :, None]
    table = np.zeros((we - ws, n))
    lo, hi = max(ws, f0), min(we, f0 + steps)
    if lo < hi:
        table[lo - ws : hi - ws] = w[lo - f0 : hi - f0, 0]
    lo, hi = max(ws, b0 - steps + 1), min(we, b0 + 1)
    if lo < hi:
        table[lo - ws : hi - ws] += w[b0 - lo : (b0 - hi if hi <= b0 else None) : -1, 1]
    w = w.reshape(steps, 2 * n)
    sums = np.add.reduce(np.multiply(w, w, out=w), axis=0)
    table /= np.sqrt(sums[:n] + sums[n:])
    return table


def test_kernel_rows_have_the_bits_of_the_full_scaling_table():
    # rows up to k = 5000, near and far (x past k starts a row well above 0), one lane at
    # a time and together, in whole and partial windows
    k = np.repeat([0.0, 1.0, 7.0, 300.0, 2501.0, 5000.0], 4)
    x = np.tile([1e-200, 2.5, 900.0, 6000.0], 6)
    first, centre, last = hb._row_extents(k, x)
    assert (first > 0).sum() >= 8
    for lanes in ([np.arange(len(k))], np.arange(len(k))[:, None]):
        for at in lanes:
            ws, we = int(first[at].min()), int(last[at].max()) + 1
            quarter = (we - ws) // 4
            for ws, we in ((ws, we), (ws + quarter, we - quarter)):
                args = (k[at], x[at], first[at], centre[at], last[at], ws, we)
                assert hb._kernel_rows(*args).tobytes() == _full_table_kernel_rows(*args).tobytes(), (at, ws, we)


def test_scaling_table_is_the_window_of_the_whole_table():
    full = hb._scaling_table(0, 20000)
    assert full[0] == full[1] == 1.0
    for lo, hi in ((0, 0), (0, 1), (0, 2), (1, 5), (601, 604), (999, 1001), (1000, 1000), (7, 20000), (12345, 19999)):
        assert hb._scaling_table(lo, hi).tobytes() == full[lo : hi + 1].tobytes(), (lo, hi)


def test_scaling_table_matches_exact_values():
    # t_j in 40 digits: t_{j+1} = sqrt(j / (j+1)) t_{j-1} up to 20000, and the closed form
    # t_2m = sqrt((2m)! / (m!^2 4^m)), t_2m+1 = 1 / (sqrt(2m+1) t_2m) far out. Measured: up to
    # 2.2e-15 below index 602, where h_2m(0) is a cumulative product, and 4.4e-16 past it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = [mpmath.mpf(1), mpmath.mpf(1)]
        for j in range(1, 20000):
            exact.append(mpmath.sqrt(mpmath.mpf(j) / (j + 1)) * exact[j - 1])
        far = [10**6, 10**6 + 1, 10**7, 10**7 + 1, (1 << 24) - 1, 1 << 24]
        exact_far = []
        for j in far:
            m = j // 2
            t = mpmath.exp((mpmath.loggamma(2 * m + 1) - 2 * mpmath.loggamma(m + 1)) / 2 - m * mpmath.ln2)
            exact_far.append(t if j % 2 == 0 else 1 / (mpmath.sqrt(j) * t))
    err = np.abs(hb._scaling_table(0, 20000) / np.array(exact, dtype=float) - 1.0)
    assert err[:602].max() < 3e-15 and err[602:].max() < 1e-15
    for j, t in zip(far, exact_far):
        assert abs(hb._scaling_table(j, j)[0] / float(t) - 1.0) < 1e-15, j


@pytest.mark.parametrize(
    "j, d, p, q, bound",
    [
        (600, 3, 0.0, 1.0, 5e-16),  # measured 5.1e-17
        (10**4, 3, 0.0, 1.0, 2e-14),  # 7.4e-15
        (10**5, 3, 0.0, 1.0, 5e-14),  # 1.7e-14
        (10**6, 3, 0.0, 1.0, 1.5e-12),  # 5.4e-13
        (10**7, 3, 0.0, 1.0, 5e-10),  # 1.9e-10
        (10**5, 40, 3.0, 2.0, 1e-12),  # 3.7e-13
        (10**6, 100, 1.0, 1.0, 1e-12),  # 2.2e-13
    ],
)
def test_kernel_entries_match_exact_laguerre_values_at_high_index(j, d, p, q, bound):
    # |<pi(p, q, 0) h_j, h_j+d>| = sqrt(j! / (j+d)!) x^(d/2) exp(-x/2) |L_j^(d)(x)|, x = pi (p^2 + q^2),
    # in 40 digits; the error grows with j, from the recurrence's rounding
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.pi * (mpmath.mpf(p) ** 2 + mpmath.mpf(q) ** 2)
        scale = mpmath.exp((mpmath.loggamma(j + 1) - mpmath.loggamma(j + d + 1) - x) / 2) * x ** (mpmath.mpf(d) / 2)
        exact = float(scale * abs(mpmath.laguerre(j, d, x)))
    got = abs(hb.fourier_wigner(hb.unit_vector(j), hb.unit_vector(j + d), p, q))
    assert abs(got / exact - 1.0) < bound


def test_fourier_wigner_of_no_points_is_empty():
    # the kernel and the delta routes alike
    for phi in (hb.unit_vector(0), hb.poly_growth_vector(0.5), hb.dirac_delta()):
        got = hb.fourier_wigner(phi, hb.unit_vector(0), np.zeros(0), np.zeros(0))
        assert got.shape == (0,) and got.dtype == np.complex128


def test_pointwise_coefficient_of_no_group_elements_is_empty():
    got = hb.pointwise_coefficient(hb.unit_vector(0), hb.unit_vector(1))(np.zeros((0, 3)))
    assert got.shape == (0,)


@pytest.mark.parametrize("act", [hb.act_group, hb.dual_act_group])
def test_group_action_to_a_negative_truncation_is_a_precondition_error(act):
    with pytest.raises(PreconditionError, match="nonnegative"):
        act((0.1, 0.2, 0.0), hb.unit_vector(0), N=-1)
    assert act((0.1, 0.2, 0.0), hb.unit_vector(0), N=0).prefix.shape == (0,)


@pytest.mark.parametrize(
    "p, q",
    [(1e308, 1e308), (-1e200, 0.0), (0.0, 3e160), (1e5, -1e5)],
)
def test_kernel_past_every_window_is_exactly_zero(p, q):
    # x = pi (p^2 + q^2) overflows or puts every row far past the columns: no warning, no nan
    for j, k in ((0, 0), (3, 3), (40, 2)):
        assert hb.matrix_element((p, q, 0.0), j, k) == 0
    got = hb.fourier_wigner(hb.dirac_delta(), hb.unit_vector(5), np.array([p, 0.3]), np.array([q, 0.2]))
    assert got[0] == 0 and np.isfinite(got[1])


@pytest.mark.parametrize("p, q", [(5e-324, 0.0), (0.0, -5e-324), (1e-300, 1e-300), (1e-160, 0.0)])
def test_kernel_at_subnormal_displacement_is_the_identity(p, q):
    for k in (0, 3, 2000):
        psi = np.zeros(k + 1)
        psi[k] = 1.0
        col = hb._kernel_columns(psi, k + 3, p, q)[:, 0]
        assert np.max(np.abs(col - np.eye(1, k + 3, k)[0])) <= 1e-15


@pytest.mark.parametrize(
    "j, k, error",
    [(-1, 0, PreconditionError), (0, -1, PreconditionError), (2.5, 0, PreconditionError), (0, 1.0, PreconditionError)],
)
def test_bad_hermite_indices_are_typed_errors(j, k, error):
    with pytest.raises(error):
        hb.matrix_element((0.3, 0.2, 0.0), j, k)


def test_negative_unit_vector_is_a_typed_error():
    with pytest.raises(PreconditionError):
        hb.unit_vector(-1)


@pytest.mark.parametrize("g", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)])
def test_non_finite_group_elements_are_typed_errors(g):
    with pytest.raises(PreconditionError):
        hb.matrix_element(g, 3, 3)
    with pytest.raises(PreconditionError):
        hb.act_group(g, hb.unit_vector(2))


def test_fourier_wigner_of_non_finite_points_is_a_typed_error():
    with pytest.raises(PreconditionError):
        hb.fourier_wigner(hb.dirac_delta(), hb.unit_vector(2), np.array([0.1, math.nan]), 0.2)


def test_high_index_kernels_are_finite_and_bounded():
    v = hb.matrix_element((0.5, 0.5, 0), 1300, 1300)
    assert math.isfinite(v.real) and math.isfinite(v.imag) and abs(v) <= 1.0
    e700 = hb.unit_vector(700)
    w = hb.fourier_wigner(e700, e700, 0.5, 0.5)
    assert math.isfinite(w.real) and math.isfinite(w.imag) and abs(w) <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
)
def test_matrix_element_edge_values_are_bounded(j, k, p, q):
    try:
        v = hb.matrix_element((p, q, 0.0), j, k)
    except GmcError:
        return
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    assert abs(v) <= 1.0 + 1e-12


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


def _geometric_hermite(ratio=0.9, stored=8):
    envelope = tr.geometric(ratio).envelope  # the same sequence on k >= 0
    prefix = ratio ** np.arange(stored)
    return CoefficientVector(
        IndexDomain.NATURALS, 0, prefix, envelope, Tail.formula("geometric", ratio)
    )


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


def test_act_group_truncation_below_the_support_is_exact():
    # the first N outputs read every stored input column, whatever N is
    phi = hb.unit_vector(30)
    g = (0.7, -0.4, 0.1)
    assert hb.act_group(g, phi, N=10).prefix.tobytes() == hb.act_group(g, phi, N=64).prefix[:10].tobytes()



def test_act_group_and_fourier_wigner_read_a_stored_run_with_the_bits_of_a_dense_one():
    # a unit vector stores its one coefficient at its index; the same vector stored
    # densely from 0 gives the same bits
    for k in (0, 7, 300):
        e = hb.unit_vector(k)
        assert (e.start, e.stop) == (k, k + 1)
        dense = CoefficientVector(IndexDomain.NATURALS, 0, e.dense(0, k), e.envelope)
        g = (0.7, -0.4, 0.1)
        assert hb.act_group(g, e, N=k + 20).prefix.tobytes() == hb.act_group(g, dense, N=k + 20).prefix.tobytes()
        P, Q = np.meshgrid(np.linspace(-1.5, 1.5, 4), np.linspace(-1.0, 1.0, 3), indexing="ij")
        for phi, psi in ((e, hb.unit_vector(k + 2)), (hb.gaussian_vector(0.8), e)):
            dense_phi = CoefficientVector(IndexDomain.NATURALS, 0, phi.dense(0, phi.stop - 1), phi.envelope)
            dense_psi = CoefficientVector(IndexDomain.NATURALS, 0, psi.dense(0, psi.stop - 1), psi.envelope)
            assert np.array_equal(hb.fourier_wigner(phi, psi, P, Q), hb.fourier_wigner(dense_phi, dense_psi, P, Q))


def test_kernel_rows_past_the_index_cap_raise_before_any_is_built(monkeypatch):
    def no_rows(*args):
        raise AssertionError("built a kernel row")

    monkeypatch.setattr(hb, "_kernel_rows", no_rows)
    psi = np.ones(1)
    with pytest.raises(BudgetExceeded):
        hb._kernel_block(psi, hb.KERNEL_MAX_INDEX + 1, 1.0, 0.0, hb.KERNEL_MAX_INDEX, start=hb.KERNEL_MAX_INDEX)

def test_dual_act_group_is_contragredient(rng):
    # <pi*(g) psi, e_k> must equal <psi, pi(g^{ -1}) e_k>
    g = hb.HeisenbergElement(0.4, -0.2, 0.15)
    psi = hb.gaussian_vector(0.9)
    dual = hb.dual_act_group(g, psi, N=20)
    for k in (0, 3, 7):
        direct = pair(psi, hb.act_group(hb.group_inv(g), hb.unit_vector(k), N=48))
        assert abs(dual.coeff(k) - direct) < 1e-10


@pytest.mark.parametrize("psi", [hb.unit_vector(7), hb.gaussian_vector(0.6), _geometric_hermite()])
def test_dual_act_group_is_act_group_through_sigma(psi):
    # pi*(g) = pi(sigma g), sigma(p, q, t) = (p, -q, -t)
    for p, q, t in ((0.4, -0.2, 0.15), (1.5, 1.0, 0.0), (-2.0, 0.3, 0.7)):
        for N in (8, 40):
            dual = hb.dual_act_group((p, q, t), psi, N).prefix
            assert np.array_equal(dual, hb.act_group((p, -q, -t), psi, N).prefix)


def test_dual_act_group_rejects_distribution_vectors():
    with pytest.raises(PreconditionError):
        hb.dual_act_group((0.6, 0.6, 0), hb.dirac_delta())


@pytest.mark.parametrize("g", [(0.6, 0.6, 0.0), (1.5, 1.0, 0.0), (3.0, 3.0, 0.2)])
def test_group_actions_read_an_infinite_input_to_its_certified_tail(g):
    # 0.9^1000 ~ 1e-46: a 1000-column finite copy is the exact input to double precision
    v = _geometric_hermite()
    ref = vector_from_prefix(IndexDomain.NATURALS, 0, v.dense(0, 999), GrowthClass.RAPID_DECAY)
    assert hb.act_group(g, v).prefix.tobytes() == hb.act_group(g, ref, N=1000).prefix[:40].tobytes()
    assert hb.dual_act_group(g, v).prefix.tobytes() == hb.dual_act_group(g, ref).prefix.tobytes()


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
    h0 = hermite_scaled(x, 0)[0]
    h1 = hermite_scaled(x, 1)[1]
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


def test_ladder_steps_keep_a_square_summable_label_while_the_envelope_does():
    # each ladder step raises the envelope degree by 1/2; Z steps none
    v = hb.poly_growth_vector(-2.0)
    assert v.growth is GrowthClass.SQUARE_SUMMABLE
    assert hb.act_algebra(P, v).growth is GrowthClass.SQUARE_SUMMABLE
    assert hb.act_algebra(P * Q, v).growth is GrowthClass.SQUARE_SUMMABLE
    assert hb.act_algebra(Z * Z, v).growth is GrowthClass.SQUARE_SUMMABLE
    assert hb.act_algebra(P * Q * P, v).growth is GrowthClass.POLYNOMIAL_GROWTH
    assert hb.act_algebra(P * Q * P, hb.gaussian_vector()).growth is GrowthClass.RAPID_DECAY


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
        lhs = hb.act_algebra(D, hb.smooth_by(f, e0, quad=QuadratureSpec(truncation=44)))
        rhs = hb.smooth_by(f.left_derive(D), e0, quad=QuadratureSpec(truncation=40))
        assert np.linalg.norm(lhs.dense(0, 39) - rhs.dense(0, 39)) < bound


def test_group_translation_smoothing_routes(rng):
    # pi(h) pi(f) phi = pi(L(h) f) phi and pi(f) pi(h) phi = pi(R(h^-1) f) phi
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    phi = hb.unit_vector(0)
    for _ in range(3):
        h = hb.HeisenbergElement(*rng.uniform(-0.5, 0.5, 3))
        lhs = hb.act_group(h, hb.smooth_by(f, phi, quad=QuadratureSpec(truncation=56)), N=40)
        rhs = hb.smooth_by(f.left_translate(h), phi, quad=QuadratureSpec(truncation=40))
        assert np.linalg.norm(lhs.dense(0, 39) - rhs.dense(0, 39)) < 1e-13
        lhs2 = hb.smooth_by(f, hb.act_group(h, phi, N=56), quad=QuadratureSpec(truncation=40))
        rhs2 = hb.smooth_by(f.right_translate(hb.group_inv(h)), phi, quad=QuadratureSpec(truncation=40))
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
        out = hb.smooth_by(f, hb.unit_vector(0), quad=QuadratureSpec(truncation=N))
        assert out.growth is GrowthClass.RAPID_DECAY
        assert fitted_decay_exponent(out, floor=1e-12) < -4.0
        out_d = hb.smooth_by(f, hb.dirac_delta(), quad=QuadratureSpec(truncation=N))
        assert fitted_decay_exponent(out_d, floor=1e-12) < -1.0


_BUMP = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)


@pytest.mark.parametrize(
    "f, phi",
    [
        (_BUMP, hb.unit_vector(0)),
        (_BUMP, hb.dirac_delta()),
        (_BUMP.left_translate((0.3, -0.2, 0.1)).right_derive(P * Q), hb.gaussian_vector(0.9)),
        (_BUMP.left_derive(Q * Z), hb.poly_growth_vector(1.2)),
        (_BUMP.right_translate((-0.4, 0.25, 0.3)), hb.unit_vector(7)),
    ],
    ids=["e0", "delta", "translated-PQ-gauss", "QZ-poly", "translated-e7"],
)
def test_smoothing_matches_closed_form_kernel_sum(f, phi):
    # pi(f) phi = sum over the (p, q) rule of w F_1(p, q) pi(p, q, 0) phi, each
    # column from the closed-form kernels as in act_group, on the same input
    N = 40
    vec = phi.dense(0, _input_band(f, phi, N) - 1)
    pn, pw = f.axis_rule(0)
    qn, qw = f.axis_rule(1)
    weights = (pw[:, None] * f.central_transform(pn, qn, 1.0) * qw).ravel()
    P_, Q_ = np.meshgrid(pn, qn, indexing="ij")
    ref = np.conj(hb._kernel_columns(np.conj(vec), N, -P_.ravel(), -Q_.ravel())) @ weights
    got = hb.smooth_by(f, phi, quad=QuadratureSpec(truncation=N)).dense(0, N - 1)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _input_band(f, phi, N):
    """The input columns smoothing reads: N plus the displacement margin, or a shorter
    finite phi to its stop."""
    band = N + hb._displacement_margin(f, N)
    return min(max(phi.stop, 1), band) if phi.finite_support else band


def _two_table_smooth_core(f, phi_vec, N, nodes):
    """Reference core: complex contractions of the bounded Hermite functions at
    b + p/2 and b - p/2 against the scaled weights W = w exp(y^2)."""
    pn, pw = f.axis_rule(0, nodes)
    qn, qw = f.axis_rule(1, nodes)
    y, W = gauss_hermite_rule(hb._x_rule_size(N, len(phi_vec)))
    b = y / hb.SQRT_2PI
    weights = (pw / hb.SQRT_2PI)[:, None] * f.central_transform(pn, qn, 1.0) * qw
    kernel = weights @ np.exp(2j * np.pi * np.outer(qn, b))
    s = phi_vec @ hermite_scaled(np.add.outer(pn / 2.0, b).ravel(), len(phi_vec) - 1)
    hk = hermite_scaled(np.add.outer(-pn / 2.0, b).ravel(), N - 1)
    return hk @ (s * (kernel * W).ravel())


@pytest.mark.parametrize(
    "f, phi, N",
    [
        (_BUMP, hb.dirac_delta(), 40),
        (_BUMP, hb.unit_vector(3), 40),
        (_BUMP, hb.act_group((0.4, -0.3, 0.2), hb.gaussian_vector(0.8), N=64), 40),
        (_BUMP.left_translate((0.3, -0.2, 0.1)).right_derive(P * Q), hb.gaussian_vector(0.9), 40),
        (_BUMP.right_translate((-0.4, 0.25, 0.3)).left_derive(Q * Z), hb.poly_growth_vector(1.2), 40),
        (_BUMP.left_translate((0.3, -0.2, 0.1)), hb.dirac_delta(), 160),
    ],
    ids=["delta-cols-above-N", "e3-cols-below-N", "complex-act", "translated-PQ", "QZ-poly", "delta-N160"],
)
def test_single_table_core_matches_two_table_formula(f, phi, N):
    vec = phi.dense(0, _input_band(f, phi, N) - 1)
    ref = _two_table_smooth_core(f, vec, N, f.nodes)
    got, _ = hb._smooth_core(f, vec, N, hb._x_rule_size(N, len(vec)))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_smooth_core_builds_one_hermite_table(monkeypatch):
    # one table per call: it serves the result, the extra input columns of an infinite
    # or long input, and the (p, q) check
    calls = []

    def counting(x, nmax):
        calls.append(nmax)
        return hermite_scaled(x, nmax)

    monkeypatch.setattr(hb, "hermite_scaled", counting)
    f = _BUMP.left_translate((0.3, -0.2, 0.1)).right_derive(P * Q)
    for phi, N in (
        (hb.dirac_delta(), 40),
        (hb.unit_vector(3), 40),
        (hb.unit_vector(60), 40),
        (hb.gaussian_vector(0.2), 40),
        (hb.poly_growth_vector(1.2), 56),
    ):
        cols = _input_band(f, phi, N)
        extra = 0 if phi.finite_support and phi.stop <= cols else hb.CHECK_COLUMNS
        calls.clear()
        hb.smooth_by(f, phi, quad=QuadratureSpec(truncation=N))
        assert calls == [max(N, cols + extra) - 1]


def test_smooth_by_refuses_an_oversized_table_before_building_it(monkeypatch):
    def refuse(x, nmax):
        raise AssertionError("no Hermite table should be built")

    monkeypatch.setattr(hb, "hermite_scaled", refuse)
    with pytest.raises(BudgetExceeded):
        hb.smooth_by(_BUMP, hb.dirac_delta(), quad=QuadratureSpec(truncation=2000))


def test_gmc_eval_partner_past_the_budget_refuses_before_building(monkeypatch):
    # a finite partner sets the smoothing length to its stop, and the budget check
    # still comes before any rule or table
    def refuse(*args):
        raise AssertionError("no Gauss-Hermite rule or Hermite table should be built")

    monkeypatch.setattr(hb, "hermite_scaled", refuse)
    monkeypatch.setattr(hb, "gauss_hermite_rule", refuse)
    with pytest.raises(BudgetExceeded):
        hb.gmc_eval(hb.unit_vector(0), hb.unit_vector(100_000), _BUMP)


@pytest.mark.parametrize("sigma", [0.2, 4.0])
def test_smooth_by_reads_only_the_coupled_band_of_a_long_input(sigma):
    # these inputs store 473 and 301 columns; the output k < N sees only the
    # first N + margin of them
    phi = hb.gaussian_vector(sigma)
    N = 40
    band = N + hb._displacement_margin(_BUMP, N)
    assert phi.finite_support and phi.stop > band
    full, _ = hb._smooth_core(_BUMP, phi.dense(0, phi.stop - 1), N, hb._x_rule_size(N, phi.stop))
    got = hb.smooth_by(_BUMP, phi, quad=QuadratureSpec(truncation=N)).dense(0, N - 1)
    assert np.max(np.abs(got - full)) <= 1e-12 * np.max(np.abs(full))


def test_smooth_by_a_narrow_gaussian_stays_in_budget():
    # 1923 stored columns used to exceed SMOOTH_TABLE_BUDGET
    out = hb.smooth_by(_BUMP, hb.gaussian_vector(0.1))
    assert out.stop == 40 and np.all(np.isfinite(out.dense(0, 39)))


def test_smooth_by_accuracy_error_on_tight_tolerance():
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    with pytest.raises(QuadratureAccuracyError):
        hb.smooth_by(f, hb.dirac_delta(), quad=QuadratureSpec(check_tol=1e-16))


def _two_pass_smooth(f, phi, N):
    """The former smooth_by: a result pass and a check pass on a rule CHECK_NODES finer per
    axis and an input CHECK_COLUMNS longer, each on the base Gauss-Hermite rule of its
    input length and through the two-table reference core. Returns (result, check)."""
    cols = _input_band(f, phi, N)
    out = _two_table_smooth_core(f, phi.dense(0, cols - 1), N, f.nodes)
    out2 = _two_table_smooth_core(f, phi.dense(0, cols + hb.CHECK_COLUMNS - 1), N, f.nodes + hb.CHECK_NODES)
    return out, out2


_VECTORS = {
    "e": lambda u: hb.unit_vector(int(8 * u)),
    "gauss": lambda u: hb.gaussian_vector(0.75 + 0.58 * u),
    "delta": lambda u: hb.dirac_delta(),
    "poly-growth": lambda u: hb.poly_growth_vector(1.5 * u),
}


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(_VECTORS)),
    u=st.floats(0.0, 1.0),
    n=st.integers(1, 4),
    radius=st.floats(0.4, 0.8),
    move=st.sampled_from(["", "Lt", "Rt"]),
    h=st.tuples(*(st.floats(-0.3, 0.3),) * 3),
    chain=st.lists(st.tuples(st.sampled_from("LR"), st.sampled_from("PQZ")), max_size=2),
)
def test_one_pass_matches_the_two_pass_oracle(kind, u, n, radius, move, h, chain):
    # workload-like cases: where the former check passed with room, the one-pass result
    # is within check_tol of the former check pass; where it failed by a clear margin,
    # the one pass raises too (near the tolerance either outcome is right)
    phi = _VECTORS[kind](u)
    f = mo.standard_mollifier(hb.HEISENBERG, n=n, radius=radius)
    if move:
        f = f.left_translate(h) if move == "Lt" else f.right_translate(h)
    for side, letter in chain:
        d = {"P": P, "Q": Q, "Z": Z}[letter]
        f = f.left_derive(d) if side == "L" else f.right_derive(d)
    N, check_tol = 40, QuadratureSpec().check_tol
    out, out2 = _two_pass_smooth(f, phi, N)
    tol = check_tol * (1.0 + np.max(np.abs(out2)))
    old_gap = np.max(np.abs(out - out2))
    if old_gap > 2.0 * tol:
        with pytest.raises(QuadratureAccuracyError):
            hb.smooth_by(f, phi, quad=QuadratureSpec(truncation=N))
    elif old_gap <= tol / 2.0:
        got = hb.smooth_by(f, phi, quad=QuadratureSpec(truncation=N)).dense(0, N - 1)
        assert np.max(np.abs(got - out2)) <= tol
        assert np.max(np.abs(got - out)) <= 1e-12 * (1.0 + np.max(np.abs(out)))


@pytest.mark.parametrize(
    "f, phi, box_nodes",
    [
        (_BUMP, hb.unit_vector(0), 8),
        (_BUMP, hb.dirac_delta(), 16),
        (_BUMP.left_translate((0, 6, 0)), hb.dirac_delta(), hb.BOX_NODES),
    ],
    ids=["coarse-pq-e0", "coarse-pq-delta", "short-band-delta"],
)
def test_smooth_by_refuses_what_the_two_pass_check_refused(f, phi, box_nodes, monkeypatch):
    # a (p, q) rule too coarse for the bump, and an input band too short for a far centre
    monkeypatch.setattr(hb, "BOX_NODES", box_nodes)
    out, out2 = _two_pass_smooth(f, phi, 40)
    assert np.max(np.abs(out - out2)) > QuadratureSpec().check_tol * (1.0 + np.max(np.abs(out2)))
    with pytest.raises(QuadratureAccuracyError) as err:
        hb.smooth_by(f, phi)
    assert err.value.gap > err.value.tol


def _weighted_wigner_oracle(f, phi, psi, nodes=160):
    """<pi(f) phi, psi> = int int F_1(p, q) <pi(p, q, 0) phi, psi> dp dq, with no smoothing.

    The kernel is read as conj(fourier_wigner(psi, phi, -p, -q)) when psi has more
    nonzero coefficients than phi, which builds fewer kernel rows."""
    pn, pw = f.axis_rule(0, nodes)
    qn, qw = f.axis_rule(1, nodes)
    P_, Q_ = np.meshgrid(pn, qn, indexing="ij")
    if np.count_nonzero(psi.prefix) > np.count_nonzero(phi.prefix) and phi.finite_support:
        fw = np.conj(hb.fourier_wigner(psi, phi, -P_, -Q_))
    else:
        fw = hb.fourier_wigner(phi, psi, P_, Q_)
    return complex(pw @ (f.central_transform(pn, qn, 1.0) * fw) @ qw)


_SMALL_BUMP = mo.standard_mollifier(hb.HEISENBERG, n=1, radius=0.25)
_PAIRS = {
    "e0-e0": (hb.unit_vector(0), hb.unit_vector(0)),
    "e3-gauss": (hb.unit_vector(3), hb.gaussian_vector(0.8)),
}


@pytest.mark.parametrize("centre", [(0, 6, 0), (0, 8, 0), (0, 10, 0), (0, 20, 0), (10, 0, 0), (20, 0, 0)])
@pytest.mark.parametrize("pair_", sorted(_PAIRS))
def test_far_centres_give_the_oracle_or_a_typed_error(centre, pair_):
    # the b-rule used to stay at 80 nodes here and return 4.9e-5 at q = 8 and 4.2e-2 at
    # q = 10 for values below 1e-16
    phi, psi = _PAIRS[pair_]
    f = _SMALL_BUMP.left_translate(centre)
    ref = _weighted_wigner_oracle(f, phi, psi)
    assert abs(ref - _weighted_wigner_oracle(f, phi, psi, 200)) < 1e-14
    try:
        got = hb.gmc_eval(phi, psi, f)
    except GmcError:
        return
    assert abs(got - ref) < 1e-10


@pytest.mark.parametrize(
    "q, value", [(3.0, 0.0606), (3.5, -0.0365), (6.0, 0.0145), (8.0, 0.00192), (10.0, -0.00531), (20.0, 0.00104)]
)
def test_far_centre_delta_gives_the_oracle_or_a_typed_error(q, value):
    # delta's closed form leaves no typed error: smoothing's band raised from q = 6 on
    f = _SMALL_BUMP.left_translate((0, q, 0))
    ref = _weighted_wigner_oracle(f, hb.dirac_delta(), hb.unit_vector(0))
    assert abs(ref - value) < 5e-5
    got = hb.gmc_eval(hb.dirac_delta(), hb.unit_vector(0), f)
    assert abs(got - ref) < 1e-9


def test_x_rule_grows_only_past_the_base_rule():
    # workload and suite supports reach |q| <= 1.1: the base rule; far centres grow it
    # like q^2, and a tiny or huge q_max is finite or refused by the table budget
    for rows, cols in ((40, 1), (40, 9), (40, 49), (40, 103), (43, 107)):
        base = hb._x_rule_size(rows, cols)
        assert base == max(80, (rows + cols) // 2 + 32)
        assert hb._x_rule_size(rows, cols, 1.1) == base
        assert hb._x_rule_size(rows, cols, 1e-160) == base
    grown = [hb._x_rule_size(40, 1, q) for q in (6.25, 8.25, 10.25, 20.25)]
    assert grown == sorted(grown) and grown[0] > 80
    assert 0.9 < grown[-1] / (math.pi * 20.25**2 / 2) < 2.0
    with pytest.raises(BudgetExceeded):
        hb.smooth_by(_SMALL_BUMP.left_translate((0, 1e150, 0)), hb.unit_vector(0))


def test_smooth_by_non_finite_is_a_typed_error(monkeypatch):
    # at N = 700 the Gauss-Hermite x-rule overflows the Hermite recurrence; an
    # 8-node (p, q) rule keeps the run small, the x-rule is the same
    monkeypatch.setattr(hb, "BOX_NODES", 8)
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    _assert_finite_or_typed_error(lambda: hb.smooth_by(f, hb.dirac_delta(), quad=QuadratureSpec(truncation=700)).prefix)


def test_with_quadrature_default_is_the_model_itself():
    from gmc.config import DEFAULT_QUADRATURE

    assert hb.with_quadrature(DEFAULT_QUADRATURE) is hb.HEISENBERG
    assert hb.with_quadrature(QuadratureSpec()) is hb.HEISENBERG
    assert hb.with_quadrature(QuadratureSpec(truncation=64)) is not hb.HEISENBERG


def test_with_quadrature_hooks_call_the_module_functions_by_name(monkeypatch):
    # a wrapper set on the module attribute (as a tracer does) sees every call of the hooks
    quad64 = QuadratureSpec(truncation=64)
    model = hb.with_quadrature(quad64)
    calls = []
    smooth_by, gmc_eval = hb.smooth_by, hb.gmc_eval
    monkeypatch.setattr(hb, "smooth_by", lambda *a: calls.append(("smooth_by", a[-1])) or smooth_by(*a))
    monkeypatch.setattr(hb, "gmc_eval", lambda *a: calls.append(("gmc_eval", a[-1])) or gmc_eval(*a))
    f = mo.standard_mollifier(hb.HEISENBERG, n=2, radius=0.8)
    assert model.smooth_by(f, hb.unit_vector(0)).stop == 64
    model.gmc_eval(hb.unit_vector(0), hb.unit_vector(1), f)
    assert calls == [("smooth_by", quad64), ("gmc_eval", quad64), ("smooth_by", quad64)]


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


def _smoothing_route(phi, psi, f):
    """<pi(f) phi, psi> by smoothing phi and pairing, as gmc_eval takes any phi but delta."""
    quad = QuadratureSpec(truncation=max(40, psi.stop))
    return pair(hb.smooth_by(f, phi, quad), psi)


_DELTA_CASES = {
    "bump": _BUMP,
    "translated": _BUMP.left_translate((0.3, -0.2, 0.1)),
    "translated-PQ": _BUMP.left_translate((0.3, -0.2, 0.1)).right_derive(P * Q),
    "QZ-right-translated": _BUMP.right_translate((-0.4, 0.25, 0.3)).left_derive(Q * Z),
    "small-Rt": _SMALL_BUMP.right_translate((0.2, -0.1, 0.0)),
}


@pytest.mark.parametrize("case", sorted(_DELTA_CASES))
def test_delta_eval_matches_the_smoothing_route(case):
    # int int F_1(p, q) exp(-i pi p q) psi(-p) dp dq against pi(f) delta paired with psi
    f = _DELTA_CASES[case]
    for psi in (hb.unit_vector(0), hb.unit_vector(3), hb.unit_vector(8), hb.gaussian_vector(0.9)):
        got = hb.gmc_eval(hb.dirac_delta(), psi, f)
        ref = _smoothing_route(hb.dirac_delta(), psi, f)
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_delta_eval_reads_an_infinite_partner_to_abs_tol():
    # psi_k = 0.6^k: against the same coefficients stored to where 0.6^k is below 1e-17
    tail = Tail.formula("geometric", 0.6)
    psi = CoefficientVector(IndexDomain.NATURALS, 0, [1.0], tail.envelope, tail)
    finite = vector_from_prefix(IndexDomain.NATURALS, 0, tail.fn(np.arange(80)), GrowthClass.RAPID_DECAY)
    for f in (_BUMP, _DELTA_CASES["translated-PQ"]):
        got = hb.gmc_eval(hb.dirac_delta(), psi, f)
        assert abs(got - hb.gmc_eval(hb.dirac_delta(), finite, f)) < 1e-12


@pytest.mark.parametrize("case", ["bump", "translated", "translated-PQ"])
def test_delta_pairs_with_delta_on_the_q_rule(case):
    # <pi(f) delta, delta> = int F_1(0, q) dq, against a 128-node q-rule
    f = _DELTA_CASES[case]
    qn, qw = f.axis_rule(1, 128)
    ref = complex(f.central_transform(np.zeros(1), qn, 1.0)[0] @ qw)
    got = hb.gmc_eval(hb.dirac_delta(), hb.dirac_delta(), f)
    assert abs(got - ref) < 1e-9
    if case == "bump":
        assert abs(got - 1.20366243662) < 1e-9


def test_delta_eval_checks_its_rule():
    tight = QuadratureSpec(check_tol=1e-16)
    for psi in (hb.unit_vector(0), hb.dirac_delta()):
        with pytest.raises(QuadratureAccuracyError, match="smoothing quadrature has not converged") as err:
            hb.gmc_eval(hb.dirac_delta(), psi, _BUMP, quad=tight)
        assert err.value.gap > err.value.tol
    with pytest.raises(PreconditionError, match="test function values leave the float range"):
        hb.gmc_eval(hb.dirac_delta(), hb.unit_vector(0), 1e308 * _BUMP)


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
    phi_x = phi.dense(0, phi.stop - 1) @ hermite_scaled(x + p, phi.stop - 1)
    h1 = hermite_scaled(x, 1)[1]
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


def _truncation(phi, n):
    """phi's first n coefficients as a finite vector."""
    return vector_from_prefix(IndexDomain.NATURALS, 0, phi.dense(0, n - 1), GrowthClass.POLYNOMIAL_GROWTH)


def test_fourier_wigner_default_budget_reaches_the_tail():
    # the rows of h_410 end before 4096 columns at every point of the grid
    ps = np.linspace(-1.68, 1.68, 5)
    P, Q = np.meshgrid(ps, ps, indexing="ij")
    phi = hb.poly_growth_vector(0.00345469)
    got = hb.fourier_wigner(phi, hb.unit_vector(410), P, Q)
    wide = hb.fourier_wigner(_truncation(phi, 4096), hb.unit_vector(410), P, Q)
    assert got.tobytes() == wide.tobytes()


def _finite_delta(n=1024):
    """delta's first n coefficients as a finite vector: not delta, so it takes the kernel route."""
    return vector_from_prefix(IndexDomain.NATURALS, 0, hb.dirac_delta(n).prefix, GrowthClass.POLYNOMIAL_GROWTH)


def test_fourier_wigner_delta_reaches_the_partner_band():
    # <pi(p, q, 0) delta, h_k> = exp(-i pi p q) h_k(-p), and the kernel route on delta's
    # first coefficients is a second reference
    p, q = -0.3918, -0.3265
    exact = np.exp(-1j * np.pi * p * q) * hermite_scaled(np.array([-p]), 104)[104, 0]
    for phi in (hb.dirac_delta(), _finite_delta()):
        got = hb.fourier_wigner(phi, hb.unit_vector(104), p, q)
        assert abs(got - exact) < 1e-12


@pytest.mark.parametrize("k", [410, 600])
def test_fourier_wigner_delta_is_the_hermite_function_at_high_index(k):
    # <pi(p, q, 0) delta, h_k> = exp(-i pi p q) h_k(-p) across the benchmark's heavy range
    P, Q = np.meshgrid(np.linspace(-1.7, 1.7, 5), np.linspace(-1.7, 1.7, 5), indexing="ij")
    exact = np.exp(-1j * np.pi * P * Q) * hermite_scaled(-P.ravel(), k)[k].reshape(P.shape)
    for phi in (hb.dirac_delta(), _finite_delta()):
        got = hb.fourier_wigner(phi, hb.unit_vector(k), P, Q)
        assert np.max(np.abs(got - exact)) < 1e-12


def test_dirac_delta_is_recognized_by_its_coefficients():
    delta = hb.dirac_delta()
    payload = delta.to_json()
    assert hb.is_dirac_delta(delta) and hb.is_dirac_delta(hb.dirac_delta(3))
    assert hb.is_dirac_delta(CoefficientVector.from_json(payload))
    # another prefix under the same tail, another start, no tail, a derived tail
    other = dict(payload, coefficients=[[1.0, 0.0]])
    assert not hb.is_dirac_delta(CoefficientVector.from_json(other))
    shifted = CoefficientVector(IndexDomain.NATURALS, 1, delta.prefix[1:], delta.envelope, delta.tail)
    assert not hb.is_dirac_delta(shifted)
    assert not hb.is_dirac_delta(_finite_delta())
    assert not hb.is_dirac_delta(delta.map(lambda c, k: c))


@pytest.mark.parametrize("k", [0, 7, 301])
def test_fourier_wigner_delta_matches_the_kernel_route(k):
    # odd and even indices, against the kernel sum over delta's first 1024 coefficients
    P, Q = np.meshgrid(np.linspace(-1.9, 1.3, 6), np.linspace(-1.2, 1.7, 5), indexing="ij")
    for psi in (hb.unit_vector(k), hb.gaussian_vector(0.8)):
        got = hb.fourier_wigner(hb.dirac_delta(), psi, P, Q)
        ref = hb.fourier_wigner(_finite_delta(), psi, P, Q)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_fourier_wigner_delta_has_the_bits_of_single_points():
    # far columns (|p| > 13.8) carry a scale through the series' blocks, and -0.0 is
    # read as itself
    p = np.array([-20.0, 14.5, 0.3, -0.0, 0.0, 13.9, -0.3, 20.0])
    q = np.array([0.4, -1.1, 0.2, 0.7, 0.7, 3.0, 0.2, -0.4])
    for psi in (hb.unit_vector(1), hb.unit_vector(1500), hb.gaussian_vector(0.2)):
        got = hb.fourier_wigner(hb.dirac_delta(), psi, p, q)
        single = np.array([hb.fourier_wigner(hb.dirac_delta(), psi, a, b) for a, b in zip(p, q)])
        assert np.array_equal(got.view(np.int64), single.view(np.int64))
    got = hb.fourier_wigner(hb.dirac_delta(), hb.unit_vector(1500), p, q)
    exact = np.exp(-1j * np.pi * p * q) * hermite_scaled(-p, 1500)[1500]
    assert np.max(np.abs(got - exact)) < 1e-12 * np.max(np.abs(exact))


def test_fourier_wigner_delta_at_far_points_is_exactly_zero(monkeypatch):
    # every h_k(-p) below the float range, or p q past it: 0, with no warning
    p = np.array([1e300, -1e7, 1e5, -1.5e154, 1e200, 0.25])
    q = np.array([-1.5, 1e300, -1e5, 1e154, 1e200, -0.5])
    for k in (0, 5, 2000):
        got = hb.fourier_wigner(hb.dirac_delta(), hb.unit_vector(k), p, q)
        assert np.all(got[:5] == 0) and got[5] != 0
    # with no point in reach, no row is built
    monkeypatch.setattr(hb, "hermite_blocks", None)
    got = hb.fourier_wigner(hb.dirac_delta(), hb.unit_vector(hb.KERNEL_MAX_INDEX), np.array([1e300, -1e7]), 0.0)
    assert np.all(got == 0)


def test_pointwise_delta_reaches_an_index_past_the_kernel_columns():
    # the kernel route read delta to 1024 columns and returned 0 here
    got = hb.pointwise_coefficient(hb.dirac_delta(), hb.unit_vector(5000))((0.2, 0.1, 0.0))
    exact = np.exp(-1j * np.pi * 0.02) * hermite_scaled(np.array([-0.2]), 5000)[5000, 0]
    assert abs(exact) > 0.05 and abs(got - exact) < 1e-13


def test_fourier_wigner_reads_an_infinite_phi_on_every_column_its_rows_reach():
    # each of these was refused when an infinite phi was read to 1024 columns only; the
    # value is that of phi's truncation past the rows, bit for bit
    phi = hb.poly_growth_vector(0.0)
    got = hb.fourier_wigner(phi, hb.unit_vector(20000), 0.0, 0.0)
    assert got.real == 1.0 and got == hb.fourier_wigner(_truncation(phi, 40000), hb.unit_vector(20000), 0.0, 0.0)
    P, Q = np.meshgrid(np.linspace(-2, 2, 3), np.linspace(-2, 2, 3), indexing="ij")
    got = hb.fourier_wigner(phi, hb.unit_vector(900), P, Q)
    assert got.tobytes() == hb.fourier_wigner(_truncation(phi, 20000), hb.unit_vector(900), P, Q).tobytes()
    phi, psi = hb.poly_growth_vector(0.5), hb.gaussian_vector(1.2)
    got = hb.fourier_wigner(phi, psi, 40.0, 40.0)
    assert got == hb.fourier_wigner(_truncation(phi, 40000), psi, 40.0, 40.0)
    # the rounding of a cancelling sum, not its accuracy: the same float inputs summed in 150
    # digits give 8.7e-16 - 2.4e-15j
    assert abs(got - (9.77e-12 + 8.61e-12j)) < 1e-14


_COORD_3 = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@st.composite
def _infinite_phi_case(draw):
    phi = hb.poly_growth_vector(draw(st.floats(0.0, 1.5)))
    if draw(st.booleans()):
        psi = hb.unit_vector(draw(st.integers(0, 1200)))
    else:
        psi = hb.gaussian_vector(draw(st.floats(0.3, 3.0)))
    points = draw(st.lists(st.tuples(_COORD_3, _COORD_3), min_size=1, max_size=9))
    return phi, psi, *(np.array(v) for v in zip(*points))


@given(_infinite_phi_case())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_fourier_wigner_of_an_infinite_phi_is_its_truncation_past_the_rows(case):
    phi, psi, p, q = case
    # a truncation past the last index of every row of psi at every point
    ks = np.arange(psi.stop, dtype=float)
    x = np.unique(np.maximum(np.pi * (p * p + q * q), 1e-200))  # as _kernel_block takes it
    reach = int(hb._row_extents(np.repeat(ks, len(x)), np.tile(x, len(ks)))[2].max()) + 1
    try:
        got = hb.fourier_wigner(phi, psi, p, q)
    except GmcError:
        return
    assert got.tobytes() == hb.fourier_wigner(_truncation(phi, reach), psi, p, q).tobytes()


def test_fourier_wigner_of_an_infinite_phi_past_the_columns_raises():
    # one far point among near ones is enough, and no row is built
    with pytest.raises(BudgetExceeded, match=f"past {hb.KERNEL_MAX_INDEX}"):
        hb.fourier_wigner(hb.poly_growth_vector(0.0), hb.unit_vector(5), np.array([0.1, 1e5]), 0.0)


def test_delta_series_past_the_index_cap_raises_before_any_row(monkeypatch):
    import tracemalloc

    def no_rows(*args):
        raise AssertionError("built a Hermite row")

    monkeypatch.setattr(hb, "hermite_blocks", no_rows)
    far = hb.unit_vector(hb.KERNEL_MAX_INDEX + 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="past"):
            hb._hermite_series(np.ones(1), hb.KERNEL_MAX_INDEX + 1, np.zeros(9))
        with pytest.raises(BudgetExceeded):
            hb.fourier_wigner(hb.dirac_delta(), far, np.zeros(9), np.zeros(9))
        with pytest.raises(BudgetExceeded):
            hb.gmc_eval(hb.dirac_delta(), far, _BUMP)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_fourier_wigner_array_matches_scalar_calls():
    ps, qs = np.linspace(-1.2, 1.2, 4), np.linspace(-0.9, 0.9, 3)
    P, Q = np.meshgrid(ps, qs, indexing="ij")
    pairs = (
        (hb.gaussian_vector(0.8), hb.unit_vector(3)),
        (hb.dirac_delta(), hb.unit_vector(5)),
        (hb.unit_vector(2), hb.gaussian_vector(1.2)),
    )
    for phi, psi in pairs:
        grid = hb.fourier_wigner(phi, psi, P, Q)
        assert grid.shape == P.shape
        for a, b in np.ndindex(P.shape):
            assert abs(grid[a, b] - hb.fourier_wigner(phi, psi, P[a, b], Q[a, b])) < 1e-13


def test_fourier_wigner_budget_error_reports_bound(monkeypatch):
    def no_rows(*args):
        raise AssertionError("built a kernel row")

    monkeypatch.setattr(hb, "_kernel_rows", no_rows)
    phi = hb.poly_growth_vector(2.0, prefix_len=8)
    # the row of h_0 at (3, 3) spans 190 columns, and 2^19 points at that radius claim
    # about 12 TABLE_BUDGET entries, at 8 per block entry
    p = np.full(1 << 19, 3.0)
    with pytest.raises(BudgetExceeded, match=f"past {hb.TABLE_BUDGET} entries") as info:
        hb.fourier_wigner(phi, hb.unit_vector(0), p, p)
    assert info.value.achieved_bound == math.inf
    monkeypatch.setattr(hb, "TABLE_BUDGET", 64)
    for v in (phi, _truncation(phi, 1000)):
        with pytest.raises(BudgetExceeded, match="past 64 entries"):
            hb.fourier_wigner(v, hb.unit_vector(0), 3.0, 3.0)


def _points_at_the_table_budget():
    """(m, span): m points at (3, 3), whose block of h_0's row (span columns) is the
    largest within TABLE_BUDGET at 8 entries per block entry."""
    first, _, last = hb._row_extents(np.zeros(1), np.array([18.0 * np.pi]))
    span = int(last[0] - first[0]) + 1
    return hb.TABLE_BUDGET // (8 * span), span


def test_fourier_wigner_block_within_its_claim_peaks_below_the_budget(monkeypatch):
    # the claim covers the block's arrays (measured 7.05 float64 per block entry) and the
    # sum over it; the 32 KiB slack holds the one lane's pass of kernel rows (190 steps)
    import tracemalloc

    monkeypatch.setattr(hb, "TABLE_BUDGET", 1 << 20)
    m, span = _points_at_the_table_budget()
    assert 8 * (m + 1) * span > hb.TABLE_BUDGET
    phi, p = hb.poly_growth_vector(2.0, prefix_len=8), np.full(m, 3.0)
    hb.fourier_wigner(phi, hb.unit_vector(0), p[:2], p[:2])  # caches filled outside the trace
    tracemalloc.start()
    try:
        hb.fourier_wigner(phi, hb.unit_vector(0), p, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * hb.TABLE_BUDGET + (32 << 10)


def test_fourier_wigner_block_past_its_claim_raises_before_any_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("built a kernel row")

    monkeypatch.setattr(hb, "TABLE_BUDGET", 1 << 20)
    monkeypatch.setattr(hb, "_kernel_rows", no_rows)
    m, _ = _points_at_the_table_budget()
    p = np.full(m + 1, 3.0)
    with pytest.raises(BudgetExceeded, match=f"past {hb.TABLE_BUDGET} entries"):
        hb.fourier_wigner(hb.poly_growth_vector(2.0, prefix_len=8), hb.unit_vector(0), p, p)


def test_fourier_wigner_tail_extent_error_reports_the_bound_within_budget():
    # a geometric tail of ratio rho = 0.999999 under its envelope (1, 0, all orders, rho):
    # at the last extent within budget, n = 2^22, past the peak of (1+k)^2 rho^k at
    # k = 2 / -log(rho), the bound is (2 + n)^2 rho^(n + 1) (1 + 1e-9) / (1 + n)
    rho, n = 0.999999, 2**22
    tail = Tail.formula("geometric", rho)
    psi = CoefficientVector(IndexDomain.NATURALS, 0, [1.0], tail.envelope, tail)
    with pytest.raises(BudgetExceeded) as info:
        hb.fourier_wigner(hb.unit_vector(0), psi, 0.1, 0.2)
    expected = (n + 2.0) ** 2 * rho ** (n + 1) * (1 + 1e-9) / (1.0 + n)
    assert math.isclose(info.value.achieved_bound, expected, rel_tol=1e-12)


def test_fourier_wigner_non_finite_is_a_typed_error():
    e700 = hb.unit_vector(700)
    _assert_finite_or_typed_error(lambda: hb.fourier_wigner(e700, e700, 0.5, 0.5))


def _kernel_windows(monkeypatch):
    """Record the (lo, cols) window of every _kernel_block call."""
    calls, inner = [], hb._kernel_block

    def spy(psi_vec, cols, p, q, lo=0, start=0):
        calls.append((lo, cols))
        return inner(psi_vec, cols, p, q, lo, start)

    monkeypatch.setattr(hb, "_kernel_block", spy)
    return calls


def test_fourier_wigner_of_unit_vectors_reads_one_column(monkeypatch):
    calls = _kernel_windows(monkeypatch)
    P, Q = np.meshgrid(np.linspace(-1.2, 1.2, 7), np.linspace(-1.2, 1.2, 9), indexing="ij")
    got = hb.fourier_wigner(hb.unit_vector(523), hb.unit_vector(527), P, Q)
    assert calls == [(523, 524)]
    exact = [hb.matrix_element((p, q, 0.0), 523, 527) for p, q in zip(P.ravel(), Q.ravel())]
    assert np.array_equal(got.ravel(), np.array(exact))


@pytest.mark.parametrize(
    "phi, psi, shape",
    [
        (_finite_delta(), hb.unit_vector(410), (7, 6)),
        (_finite_delta(), hb.gaussian_vector(0.8), (9, 9)),
        (hb.poly_growth_vector(0.8), hb.unit_vector(300), (4, 4)),
        (hb.gaussian_vector(0.8), hb.unit_vector(40), (5, 5)),
    ],
    ids=["delta-e410", "delta-gauss", "poly-e300", "gauss-e40"],
)
def test_fourier_wigner_builds_each_kernel_row_once(monkeypatch, phi, psi, shape):
    # one block per call, from 0 for an infinite phi, and one row per (k, x) in it
    calls = _kernel_windows(monkeypatch)
    built, inner = [], hb._kernel_rows

    def spy(k, x, *rest):
        built.extend(zip(k.tolist(), x.tolist()))
        return inner(k, x, *rest)

    monkeypatch.setattr(hb, "_kernel_rows", spy)
    P, Q = np.meshgrid(np.linspace(-1.68, 1.68, shape[0]), np.linspace(-1.68, 1.68, shape[1]), indexing="ij")
    got = hb.fourier_wigner(phi, psi, P, Q)
    assert calls == [(0, 1 << 62)] if not phi.finite_support else len(calls) == 1
    assert built and len(set(built)) == len(built)
    # the symmetric grid has fewer radii than points, and each radius gets its own rows
    radii = len(np.unique(np.hypot(P, Q)))
    assert radii < P.size and len({x for _, x in built}) <= radii
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("k", [100, 300, 600])
@pytest.mark.parametrize("r", [0.0, 1.5])
def test_fourier_wigner_growing_windows_match_one_wide_window(r, k):
    phi, psi = hb.poly_growth_vector(r), hb.unit_vector(k)
    P, Q = np.meshgrid(np.linspace(-1.5, 1.5, 5), np.linspace(-1.0, 1.0, 3), indexing="ij")
    got = hb.fourier_wigner(phi, psi, P, Q)
    cols = 1024
    kernel = hb._kernel_columns(psi.dense(0, k), cols, P.ravel(), Q.ravel())
    wide = (phi.dense(0, cols - 1) @ kernel).reshape(P.shape)
    assert np.max(np.abs(got - wide)) <= 1e-12 * np.max(np.abs(wide))


def test_pointwise_view_includes_central_phase():
    view = hb.pointwise_coefficient(hb.unit_vector(0), hb.unit_vector(0))
    g = hb.HeisenbergElement(0.0, 0.0, 0.25)
    assert abs(view(g) - 1j) < 1e-12


def test_pointwise_view_of_an_array_has_the_bits_of_single_calls():
    g = np.array(
        [[0.3, -0.2, 0.1], [-0.3, 0.2, 7.25], [0.2, 0.3, -1e17], [0.0, 0.0, 0.5], [1.1, -0.4, 0.0], [-0.2, -0.3, 0.3]]
    )
    skew = vector_from_prefix(
        IndexDomain.NATURALS, 0, np.array([0.3 + 0.1j, -0.2j, 0.5, 0.1 + 0.4j]), GrowthClass.RAPID_DECAY, degree=-8.0
    )
    pairs = (
        (hb.gaussian_vector(0.8), hb.unit_vector(3)),
        (hb.dirac_delta(), hb.unit_vector(5)),
        (skew, hb.gaussian_vector(1.2)),
    )
    for phi, psi in pairs:
        view = hb.pointwise_coefficient(phi, psi)
        got = view(g.reshape(2, 3, 3))
        assert got.shape == (2, 3)
        single = np.array([view(hb.HeisenbergElement(*row)) for row in g])
        assert np.array_equal(got.ravel().view(np.int64), single.view(np.int64))
        assert view(tuple(g[1])) == single[1]
    with pytest.raises(PreconditionError):
        view(np.zeros((4, 2)))
    with pytest.raises(PreconditionError):
        view(np.array([[0.0, 0.0, math.inf]]))


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
    pointwise = vals @ hermite_scaled(0.0, len(vals) - 1)[:, 0]
    assert abs(got - pointwise) < 1e-12


def test_gaussian_vector_is_normalized_and_even():
    g = hb.gaussian_vector(0.8)
    norm = math.sqrt(sum(abs(g.coeff(k)) ** 2 for k in range(g.stop)))
    assert abs(norm - 1.0) < 1e-10
    assert all(abs(g.coeff(k)) < 1e-12 for k in range(1, 20, 2))
    # pointwise check against the defining Gaussian
    x = 0.4
    target = 2**0.25 / math.sqrt(0.8) * math.exp(-math.pi * (x / 0.8) ** 2)
    got = (g.dense(0, g.stop - 1) @ hermite_scaled(x, g.stop - 1))[0]
    assert abs(got - target) < 1e-10
    # the closed form is normalized to rounding and matches x-space projections
    xs = np.linspace(-10, 10, 200001)
    H = hermite_scaled(xs, 48)
    for sigma in (0.75, 0.8, 1.3):
        c = hb.gaussian_vector(sigma).dense(0, 48)
        assert abs(np.linalg.norm(c) - 1.0) < 1e-14
        gx = 2**0.25 / math.sqrt(sigma) * np.exp(-math.pi * (xs / sigma) ** 2)
        assert np.max(np.abs(c - np.trapezoid(H * gx, xs, axis=1))) < 1e-14


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 0.75, 1.0, 1.33, 3.0, 10.0, 20.0])
def test_gaussian_vector_norm_across_widths(sigma):
    g = hb.gaussian_vector(sigma)
    assert abs(math.fsum(np.abs(g.prefix) ** 2) - 1.0) < 1e-12
    assert abs(hb.fourier_wigner(g, g, 0.0, 0.0) - 1.0) < 1e-12
    if 0.75 <= sigma <= 1.33:
        assert g.stop == 49  # default widths keep the default prefix


@pytest.mark.parametrize("sigma", [1e-9, 0.01, 0.045, 25.0, 1e6, 1e200])
def test_gaussian_vector_past_the_cap_raises(sigma):
    with pytest.raises(BudgetExceeded):
        hb.gaussian_vector(sigma)


def _lgamma_gaussian(sigma, stop):
    """The first stop Hermite coefficients of gaussian_vector(sigma), each from lgamma
    on its own: c_2m = c_0 (-r)^m sqrt((2m)!) / (2^m m!)."""
    r = (1.0 - sigma**2) / (1.0 + sigma**2)
    c = np.zeros(stop, dtype=np.complex128)
    for m in range((stop + 1) // 2):
        log_c = (
            0.5 * math.log(2.0 * sigma / (1.0 + sigma**2)) + m * math.log(abs(r))
            + 0.5 * math.lgamma(2 * m + 1) - m * math.log(2.0) - math.lgamma(m + 1)
        )
        c[2 * m] = math.copysign(1.0, -r) ** m * math.exp(log_c)
    return vector_from_prefix(IndexDomain.NATURALS, 0, c, GrowthClass.RAPID_DECAY)


@pytest.mark.parametrize("sigma", [0.3, 3.0])
@pytest.mark.parametrize("k", [0, 208, 300])
def test_gaussian_prefix_drops_no_pointwise_term_past_1e_13(sigma, k):
    # a pairing reads the prefix as exact: e:208 against gauss:0.3 has modulus about
    # 1.4e-8, and a prefix cut at a dropped l2 norm near 1e-8 moved it by 1.2e-9
    g, reference = hb.gaussian_vector(sigma), _lgamma_gaussian(sigma, 701)
    p, q = np.array([0.0, 0.4, -1.1]), np.array([0.0, 0.7, 0.5])
    got = hb.fourier_wigner(hb.unit_vector(k), g, p, q)
    want = hb.fourier_wigner(hb.unit_vector(k), reference, p, q)
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize(
    "call",
    [
        lambda: hb.act_algebra(P, tr.unit(0)),
        lambda: _BUMP.right_derive(UEAElement.generator(tr.TORUS_STRUCTURE, "X")),
        lambda: hb.act_algebra(UEAElement.generator(tr.TORUS_STRUCTURE, "X"), hb.unit_vector(0)),
        lambda: hb.smooth_by(_BUMP, hb.unit_vector(0), QuadratureSpec(truncation=0)),
        lambda: hb.pointwise_coefficient(hb.unit_vector(0), hb.dirac_delta()),
    ],
    ids=["torus-vector", "derive-by-torus-element", "act-by-torus-element", "truncation-0", "growing-partner"],
)
def test_heisenberg_refuses_inputs_of_the_wrong_kind(call):
    with pytest.raises(PreconditionError):
        call()


@settings(max_examples=20, deadline=None)
@given(log_sigma=st.floats(-6.0, 6.0))
def test_gaussian_vector_edge_widths_are_finite(log_sigma):
    try:
        g = hb.gaussian_vector(10.0**log_sigma)
    except GmcError:
        return
    assert abs(math.fsum(np.abs(g.prefix) ** 2) - 1.0) < 1e-12
    p, q = np.array([0.0, 0.5, -1.5]), np.array([0.0, 0.3, 2.0])
    _assert_finite_or_typed_error(lambda: hb.smooth_by(_BUMP, g).prefix)
    _assert_finite_or_typed_error(lambda: hb.fourier_wigner(g, g, p, q))
    _assert_finite_or_typed_error(lambda: hb.gmc_eval(g, g, _BUMP))


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


def _random_element(rng, degree):
    """A sum of one or two monomials, the first of the given degree."""
    terms = {}
    for top in (degree, int(rng.integers(0, degree + 1)))[: int(rng.integers(1, 3))]:
        cut = np.sort(rng.integers(0, top + 1, 2))
        terms[(int(cut[0]), int(cut[1] - cut[0]), int(top - cut[1]))] = complex(*rng.uniform(-2, 2, 2))
    return UEAElement(HS, terms)


def test_node_count_is_the_accumulated_rule(rng):
    # the (p, q) rule read off the terms against the rule a stored count accumulated:
    # BOX_NODES for a bump, kept by translations and scalar multiples, the larger of
    # the two for a sum, and 16 more per degree of each derivative
    def step(f, old, depth):
        kind = rng.choice(["left", "right", "scale", "sum", "derive"])
        h = rng.uniform(-0.5, 0.5, 3)
        if kind == "left":
            return f.left_translate(h), old
        if kind == "right":
            return f.right_translate(h), old
        if kind == "scale":
            return complex(*rng.uniform(-2, 2, 2)) * f, old
        if kind == "sum" and depth < 2:
            g, g_old = chain(depth + 1)
            return f + g, max(old, g_old)
        degree = int(rng.integers(0, 4))
        if old + 16 * degree > hb.BOX_NODES + 16 * 5:  # keeps the term count small
            return f, old
        d = _random_element(rng, degree)
        f = f.left_derive(d) if rng.integers(2) else f.right_derive(d)
        return f, old + 16 * d.degree

    def chain(depth=0):
        f, old = mo.standard_mollifier(hb.HEISENBERG, n=int(rng.integers(1, 4)), radius=0.6), hb.BOX_NODES
        for _ in range(int(rng.integers(1, 6))):
            f, old = step(f, old, depth)
            assert f.nodes == old
        return f, old

    counts = {chain()[1] for _ in range(40)}
    assert len(counts) > 3
