"""Orthonormal Hermite functions in the unit-variance-free normalization.

The base function is h_0(x) = 2^{1/4} exp(-pi x^2) and the ladder is
A = (d/dx + 2 pi x) / (2 sqrt(pi)), so that the k-th function satisfies the
stable three-term recurrence

    h_{k+1}(x) = (2 sqrt(pi) x h_k(x) - sqrt(k) h_{k-1}(x)) / sqrt(k+1).

In y = sqrt(2 pi) x these are (2 pi)^{1/4} psi_k(y), the orthonormal Hermite
functions of the weight exp(-y^2), so the same recurrence also gives the
Gauss-Hermite rule with scaled weights W = w exp(y^2). Heisenberg smoothing
contracts the bounded h_k against W, and no value leaves the float range. The
values have parity (-1)^k, and hermite_scaled keeps it bit for bit: negating x
negates every product of the recurrence exactly. Together with the exactly
antisymmetric Gauss-Hermite nodes, this lets smoothing read the functions at
b - p/2 from one table built at b + p/2.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)
_FLOOR, _STEP = -600.0, 1e150  # see hermite_scaled
_ZERO_SERIES_FROM = 301  # see hermite_at_zero_values


def hermite_scaled(x: np.ndarray, nmax: int) -> np.ndarray:
    """Values h_k(x) for k = 0..nmax; shape (nmax+1, len(x)): hermite_blocks in one block.

    hermite_scaled(-x, n)[k] == (-1)^k hermite_scaled(x, n)[k] exactly. Where
    the start 2^{1/4} exp(-pi x^2) would underflow (|x| > 13.8), a column starts
    at exp(_FLOOR) and carries a factor exp(shift), traded back by _STEP as its
    values grow, so every value is finite. (heisenberg._kernel_columns needs no
    such factor: it starts each kernel row where the row is negligible and scales
    it to unit norm afterwards.)
    """
    ((_, table),) = hermite_blocks(x, nmax, nmax + 1)
    return table


def hermite_blocks(x: np.ndarray, nmax: int, rows: int):
    """h_k(x) for k = 0..nmax in blocks of rows rows (at least 2): yields (k0, block),
    block[i] = h_{k0+i}(x), and overwrites a block with the next.

    One recurrence, which carries its last two rows and each far column's exp(shift)
    from block to block, so it holds rows + 2 rows of len(x). A block's far columns
    are scaled back by the shift at its end; a column's values depend on the other
    columns in no way, and on rows only through the block ends of its far columns.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log_h0 = 0.25 * math.log(2.0) - math.pi * x * x
    shift = np.maximum(_FLOOR - log_h0, 0.0)
    far = np.flatnonzero(shift)
    buf = np.empty((min(rows, nmax + 1) + 2, x.size))  # buf[2 + k - k0] holds h_k
    buf[:2] = 0.0
    np.exp(log_h0 + shift, out=buf[2])
    cx = _TWO_SQRT_PI * x
    if nmax >= 1:
        np.multiply(cx, buf[2], out=buf[3])
    tmp = np.empty(x.size)
    for k0 in range(0, nmax + 1, rows):
        top = min(k0 + rows, nmax + 1)
        for k in range(max(k0 - 1, 1), top - 1):  # in place, in the formula's operation order: same bits
            row = buf[k + 3 - k0]
            np.multiply(cx, buf[k + 2 - k0], out=row)
            row -= np.multiply(math.sqrt(k), buf[k + 1 - k0], out=tmp)
            row /= math.sqrt(k + 1)
            if far.size and (big := far[np.abs(row[far]) > _STEP]).size:
                buf[: k + 4 - k0, big] /= _STEP  # the whole column keeps one scale
                shift[big] -= math.log(_STEP)
        block = buf[2 : top + 2 - k0]
        carry = block[-2:].copy() if top <= nmax else None
        block[:, far] *= np.exp(-shift[far])
        yield k0, block
        if carry is not None:
            buf[:2] = carry


@lru_cache(maxsize=64)
def hermite_at_zero(nmax: int) -> np.ndarray:
    """h_k(0) for k = 0..nmax (zero at odd k): h_{k+1}(0) = -sqrt(k/(k+1)) h_{k-1}(0)."""
    out = np.zeros(nmax + 1)
    k = np.arange(1, nmax, 2)
    out[::2] = np.cumprod(np.r_[2.0 ** 0.25, -np.sqrt(k) / np.sqrt(k + 1)])
    return out


def hermite_at_zero_values(ks: np.ndarray) -> np.ndarray:
    """h_k(0) at an index array of k >= 0 (zero at odd k).

    h_{2m}(0) = (-1)^m 2^{1/4} sqrt(C(2m, m) / 4^m). For m <= 300 this is the
    cumulative product of hermite_at_zero; beyond, it is the asymptotic series
    log(C(2m, m) / 4^m) = -log(pi m)/2 - 1/(8m) + 1/(192 m^3) - 1/(640 m^5) + ...,
    whose next term, 17/(14336 m^7), is below 1e-20 there. Both hold to a few ulp.
    """
    ks = np.asarray(ks, dtype=np.int64)
    last = 2 * _ZERO_SERIES_FROM
    out = np.asarray(hermite_at_zero(last)[np.minimum(ks, last)])  # a 0-d index gives a scalar
    far = ks >= last
    if far.any():
        m = ks[far] // 2
        inv = 1.0 / m
        series = (-1.0) ** m * 2.0 ** 0.25 * (math.pi * m) ** -0.25 * np.exp(
            inv * (-1.0 / 16.0 + inv * inv * (1.0 / 384.0 - inv * inv / 1280.0))
        )
        out[far] = np.where(ks[far] % 2 == 1, 0.0, series)
    return out


@lru_cache(maxsize=64)
def gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes y and scaled weights W = w exp(y^2) for the weight exp(-y^2).

    The nodes are the eigenvalues of the Jacobi matrix, off-diagonal sqrt(k/2)
    (Golub and Welsch 1969), each polished by one Newton step on the orthonormal
    recurrence. That pass also gives W = 1 / sum_{k<n} psi_k(y)^2, which stays
    finite where w underflows. The rule is ascending and symmetric bit for bit,
    y[::-1] == -y and W[::-1] == W, which Heisenberg smoothing relies on to serve
    both sides from one Hermite table.
    """
    y = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, n) / 2.0), 1), UPLO="U")
    h = hermite_scaled(y / math.sqrt(2.0 * math.pi), n)  # (2 pi)^{1/4} psi_k(y)
    y = y - h[n] / (math.sqrt(2.0 * n) * h[n - 1])  # psi_n' = sqrt(2n) psi_{n-1} at a zero
    W = math.sqrt(2.0 * math.pi) / np.einsum("ki,ki->i", h[:n], h[:n])
    return (y - y[::-1]) / 2.0, (W + W[::-1]) / 2.0


_leggauss = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


def legendre_on_interval(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w
