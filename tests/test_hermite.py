"""Hermite basis: normalization, recurrences, and values at the origin."""
import math

import numpy as np

import pytest

from gmc.hermite import (
    gauss_hermite_rule,
    hermite_at_zero,
    hermite_at_zero_values,
    hermite_functions,
    hermite_scaled,
    hermite_series_value,
)


def test_ground_state_normalization():
    x = np.linspace(-8, 8, 200001)
    h = hermite_functions(x, 0)[0]
    assert abs(np.trapezoid(h * h, x) - 1.0) < 1e-12
    assert abs(h[100000] - 2**0.25) < 1e-14  # h_0(0)


def test_orthonormality_by_quadrature():
    x = np.linspace(-10, 10, 100001)
    H = hermite_functions(x, 12)
    gram = np.trapezoid(H[:, None, :] * H[None, :, :], x, axis=-1)
    assert np.max(np.abs(gram - np.eye(13))) < 1e-10


def test_first_function_explicit_form():
    # h_1(x) = 2 sqrt(pi) x h_0(x)
    x = np.array([-1.3, -0.2, 0.7, 2.1])
    H = hermite_functions(x, 1)
    assert np.allclose(H[1], 2 * math.sqrt(math.pi) * x * H[0], atol=1e-14)


def test_derivative_lowers_into_first_function():
    # numerical d/dx of h_0 against -sqrt(pi) h_1 (ladder identity)
    x = np.linspace(-5, 5, 400001)
    h0 = hermite_functions(x, 0)[0]
    dh0 = np.gradient(h0, x)
    h1 = hermite_functions(x, 1)[1]
    assert np.max(np.abs(dh0 + math.sqrt(math.pi) * h1)) < 1e-7


def test_values_at_zero_match_function_evaluation():
    table = hermite_at_zero(20)
    direct = hermite_functions(np.array([0.0]), 20)[:, 0]
    assert np.max(np.abs(table - direct)) < 1e-13
    assert all(table[k] == 0 for k in range(1, 21, 2))
    assert abs(table[0] - 2**0.25) < 1e-15


def test_array_values_at_zero_match_recurrence_to_high_index():
    table = hermite_at_zero(4000)
    got = hermite_at_zero_values(np.arange(4001))
    assert np.all(got[1::2] == 0)
    np.testing.assert_allclose(got[:301], table[:301], rtol=1e-14, atol=0)
    np.testing.assert_allclose(got, table, rtol=1e-11, atol=0)


def test_scaled_values_are_gaussian_free():
    x = np.array([0.5, 1.5])
    hs = hermite_scaled(x, 6)
    h = hermite_functions(x, 6)
    assert np.allclose(hs * np.exp(-math.pi * x * x), h, rtol=1e-13)


def test_series_evaluation():
    coeffs = np.array([1.0, 0.0, -0.5])
    x = 0.3
    H = hermite_functions(np.array([x]), 2)
    expected = H[0, 0] - 0.5 * H[2, 0]
    assert abs(hermite_series_value(coeffs, x) - expected) < 1e-14


def test_scaled_values_have_exact_parity():
    # hs_k(-x) = (-1)^k hs_k(x) bit for bit: Heisenberg smoothing reads the
    # output side of its one table through this identity
    x = np.concatenate([np.linspace(-15.5, 15.5, 4001), [0.0, 1e-300, 3.7e-9]])
    hs = hermite_scaled(x, 300)
    signs = (-1.0) ** np.arange(301)[:, None]
    assert np.array_equal(hermite_scaled(-x, 300), signs * hs, equal_nan=True)


@pytest.mark.parametrize("start", [80, 160, 240, 320])
def test_gauss_hermite_rule_is_exactly_symmetric(start):
    for n in range(start, min(start + 80, 401)):
        y, w = gauss_hermite_rule(n)
        assert np.array_equal(y[::-1], -y), n
        assert np.array_equal(w[::-1], w), n
        assert np.all(np.diff(y) > 0), n
