"""Orthonormal Hermite functions in the unit-variance-free normalization.

The base function is h_0(x) = 2^{1/4} exp(-pi x^2) and the ladder is
A = (d/dx + 2 pi x) / (2 sqrt(pi)), so that the k-th function satisfies the
stable three-term recurrence

    h_{k+1}(x) = (2 sqrt(pi) x h_k(x) - sqrt(k) h_{k-1}(x)) / sqrt(k+1).

The x-space rule of Heisenberg smoothing uses the Gaussian-free values
hs_k(x) = h_k(x) exp(pi x^2), which obey the same recurrence and stay
polynomial-sized at Gauss-Hermite nodes; the group-side kernels are closed form.
Both values have parity (-1)^k, and hermite_scaled keeps it bit for bit:
negating x negates every product of the recurrence exactly. Together with the
exactly antisymmetric Gauss-Hermite nodes, this lets smoothing read the
functions at b - p/2 from one table built at b + p/2.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def hermite_scaled(x: np.ndarray, nmax: int) -> np.ndarray:
    """Gaussian-free values hs_k(x) for k = 0..nmax; shape (nmax+1, len(x)).

    hermite_scaled(-x, n)[k] == (-1)^k hermite_scaled(x, n)[k] exactly. The
    values grow like exp(pi x^2) and leave the float range near |x| = 15. Such
    entries are nan, which later arithmetic carries without warnings, and the
    callers' finiteness and self-checks turn them into typed errors.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, x.size))
    out[0] = 2.0 ** 0.25
    cx = _TWO_SQRT_PI * x
    if nmax >= 1:
        np.multiply(cx, out[0], out=out[1])
    tmp = np.empty(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, nmax):  # in place, in the formula's operation order: same bits
            row = out[k + 1]
            np.multiply(cx, out[k], out=row)
            row -= np.multiply(math.sqrt(k), out[k - 1], out=tmp)
            row /= math.sqrt(k + 1)
    if not np.all(np.isfinite(out[-1])):  # a column that left the float range stays out
        out[np.isinf(out)] = np.nan
    return out


def hermite_functions(x: np.ndarray, nmax: int) -> np.ndarray:
    """Values h_k(x) for k = 0..nmax; shape (nmax+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return hermite_scaled(x, nmax) * np.exp(-math.pi * x * x)


def hermite_series_value(coeffs: np.ndarray, x) -> np.ndarray | complex:
    """Pointwise sum_k coeffs[k] h_k(x)."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = hermite_functions(xs, len(coeffs) - 1)
    out = coeffs @ vals
    return complex(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


@lru_cache(maxsize=64)
def hermite_at_zero(nmax: int) -> np.ndarray:
    """h_k(0) for k = 0..nmax (zero at odd k)."""
    out = np.zeros(nmax + 1)
    out[0] = 2.0 ** 0.25
    for k in range(1, nmax):
        out[k + 1] = -math.sqrt(k) / math.sqrt(k + 1) * out[k - 1]
    return out


def hermite_at_zero_values(ks: np.ndarray) -> np.ndarray:
    """h_k(0) at an index array of k >= 0 (zero at odd k).

    h_{2m}(0) = (-1)^m 2^{1/4} sqrt(C(2m, m) / 4^m) with C(2m, m) / 4^m =
    B(m + 1/2, 1/2) / pi. scipy's beta holds this to a few ulp for m <= 150
    and about 1e-12 relative at m = 2000, closer than differencing
    log-factorials, which cancels about lgamma(2m+1) * eps.
    """
    from scipy.special import beta

    ks = np.asarray(ks, dtype=np.int64)
    m = ks // 2
    mags = 2.0 ** 0.25 * np.sqrt(beta(m + 0.5, 0.5) / math.pi)
    return np.where(ks % 2 == 1, 0.0, np.where(m % 2 == 0, mags, -mags))


@lru_cache(maxsize=64)
def gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for weight exp(-y^2), ascending.

    The rule is symmetric bit for bit: y[::-1] == -y and w[::-1] == w, which
    Heisenberg smoothing relies on to serve both sides from one Hermite table.
    scipy's rule already is (the symmetrization changes no bit of it for
    n = 80..400) and stays stable at large node counts where the numpy one
    overflows in the weight computation.
    """
    from scipy.special import roots_hermite

    y, w = roots_hermite(n)
    return (y - y[::-1]) / 2.0, (w + w[::-1]) / 2.0


@lru_cache(maxsize=32)
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def legendre_on_interval(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w
