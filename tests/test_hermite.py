"""Hermite basis: normalization, recurrences, values at the origin, and the rule."""
import math
from decimal import Decimal, localcontext

import numpy as np

import pytest

from gmc.hermite import (
    gauss_hermite_rule,
    hermite_at_zero,
    hermite_at_zero_values,
    hermite_scaled,
)


def test_ground_state_normalization():
    x = np.linspace(-8, 8, 200001)
    h = hermite_scaled(x, 0)[0]
    assert abs(np.trapezoid(h * h, x) - 1.0) < 1e-12
    assert abs(h[100000] - 2**0.25) < 1e-14  # h_0(0)


def test_orthonormality_by_quadrature():
    x = np.linspace(-10, 10, 100001)
    H = hermite_scaled(x, 12)
    gram = np.trapezoid(H[:, None, :] * H[None, :, :], x, axis=-1)
    assert np.max(np.abs(gram - np.eye(13))) < 1e-10


def test_first_function_explicit_form():
    # h_1(x) = 2 sqrt(pi) x h_0(x)
    x = np.array([-1.3, -0.2, 0.7, 2.1])
    H = hermite_scaled(x, 1)
    assert np.allclose(H[1], 2 * math.sqrt(math.pi) * x * H[0], atol=1e-14)


def test_derivative_lowers_into_first_function():
    # numerical d/dx of h_0 against -sqrt(pi) h_1 (ladder identity)
    x = np.linspace(-5, 5, 400001)
    h0 = hermite_scaled(x, 0)[0]
    dh0 = np.gradient(h0, x)
    h1 = hermite_scaled(x, 1)[1]
    assert np.max(np.abs(dh0 + math.sqrt(math.pi) * h1)) < 1e-7


def test_values_at_zero_match_function_evaluation():
    table = hermite_at_zero(20)
    direct = hermite_scaled(np.array([0.0]), 20)[:, 0]
    assert np.max(np.abs(table - direct)) < 1e-13
    assert all(table[k] == 0 for k in range(1, 21, 2))
    assert abs(table[0] - 2**0.25) < 1e-15


def test_array_values_at_zero_match_recurrence_to_high_index():
    table = hermite_at_zero(4000)
    got = hermite_at_zero_values(np.arange(4001))
    assert np.all(got[1::2] == 0)
    np.testing.assert_allclose(got[:301], table[:301], rtol=1e-14, atol=0)
    np.testing.assert_allclose(got, table, rtol=1e-11, atol=0)


def test_values_at_zero_take_the_series_only_from_602():
    # indices 0-2000, shuffled into a 2-D shape: the table below 602, the series from 602 on
    ks = np.random.default_rng(4).permutation(2001).reshape(29, 69)
    got = hermite_at_zero_values(ks)
    assert got.shape == ks.shape
    near = ks < 602
    assert got[near].tobytes() == hermite_at_zero(602)[ks[near]].tobytes()
    m = ks[~near] // 2
    inv = 1.0 / m
    series = (-1.0) ** m * 2.0**0.25 * (math.pi * m) ** -0.25 * np.exp(
        inv * (-1.0 / 16.0 + inv * inv * (1.0 / 384.0 - inv * inv / 1280.0))
    )
    assert got[~near].tobytes() == np.where(ks[~near] % 2 == 1, 0.0, series).tobytes()
    assert np.all(got[ks % 2 == 1] == 0)


def hermite_series_value(coeffs: np.ndarray, x) -> np.ndarray | complex:
    """Pointwise sum_k coeffs[k] h_k(x) (reference helper)."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    out = coeffs @ hermite_scaled(x, len(coeffs) - 1)
    return complex(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def test_series_evaluation():
    coeffs = np.array([1.0, 0.0, -0.5])
    x = 0.3
    H = hermite_scaled(np.array([x]), 2)
    expected = H[0, 0] - 0.5 * H[2, 0]
    assert abs(hermite_series_value(coeffs, x) - expected) < 1e-14


def test_scaled_values_have_exact_parity():
    # h_k(-x) = (-1)^k h_k(x) bit for bit: Heisenberg smoothing reads the
    # output side of its one table through this identity; past |x| = 13.8 the
    # rescaled start keeps every value finite
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, 1e-300, 3.7e-9, 13.81, 13.82]])
    hs = hermite_scaled(x, 300)
    assert np.all(np.isfinite(hs))
    signs = (-1.0) ** np.arange(301)[:, None]
    assert np.array_equal(hermite_scaled(-x, 300), signs * hs)


@pytest.mark.parametrize("start", [80, 160, 240, 320])
def test_gauss_hermite_rule_is_exactly_symmetric(start):
    for n in range(start, min(start + 80, 401)):
        y, w = gauss_hermite_rule(n)
        assert np.array_equal(y[::-1], -y), n
        assert np.array_equal(w[::-1], w), n
        assert np.all(np.diff(y) > 0), n


@pytest.mark.parametrize("start", [80, 160, 240, 320, 400, 480, 560, 640])
def test_gauss_hermite_rule_matches_scipy(start):
    # scipy is a test-only reference; the rule's weights are W = w exp(y^2)
    from scipy.special import roots_hermite

    for n in range(start, min(start + 80, 701), 3):
        y, W = gauss_hermite_rule(n)
        ys, ws = roots_hermite(n)
        assert np.max(np.abs(y - ys)) < 1e-13, n
        ok = ws > np.finfo(float).tiny  # w e^{y^2} finite and w not subnormal
        np.testing.assert_allclose(W[ok], ws[ok] * np.exp(ys[ok] ** 2), rtol=1e-11, atol=0)


@pytest.mark.parametrize("n", [80, 301, 700, 1000])
def test_gauss_hermite_rule_is_discretely_orthonormal(n):
    # sum_i W_i psi_j(y_i) psi_k(y_i) = delta_jk for j, k < n, past the node
    # count where w itself underflows; at n = 1000 the outer nodes reach the
    # rescaled columns of hermite_scaled
    y, W = gauss_hermite_rule(n)
    psi = hermite_scaled(y / math.sqrt(2 * math.pi), n - 1) / (2 * math.pi) ** 0.25
    assert np.max(np.abs((psi * W) @ psi.T - np.eye(n))) < 1e-12


def test_values_at_zero_match_exact_binomials():
    # h_{2m}(0) = (-1)^m 2^{1/4} sqrt(C(2m, m) / 4^m) in 40-digit decimal: the
    # running product prod (2j - 1)/(2j), checked against math.comb where cheap;
    # m <= 300 reads the cumulative product, m >= 301 the asymptotic series
    marks = (1, 150, 300, 301, 1000, 10**4, 10**5, 10**6)
    refs, prod = {}, Decimal(1)
    with localcontext() as ctx:
        ctx.prec = 40
        for j in range(1, marks[-1] + 1):
            prod = prod * (2 * j - 1) / (2 * j)
            if j in marks:
                if j <= 10**4:
                    exact = Decimal(math.comb(2 * j, j)) / Decimal(4) ** j
                    assert abs(prod / exact - 1) < Decimal("1e-30")
                refs[j] = (-1) ** j * Decimal(2).sqrt().sqrt() * prod.sqrt()
    got = hermite_at_zero_values(2 * np.array(marks))
    ref = np.array([float(refs[m]) for m in marks])
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
    assert np.all(hermite_at_zero_values(2 * np.array(marks) + 1) == 0)
