"""Schrodinger representation of the 3-dimensional Heisenberg group.

Group elements are exponential coordinates (p, q, t) with law
(p1,q1,t1)(p2,q2,t2) = (p1+p2, q1+q2, t1+t2+(p1 q2 - q1 p2)/2), and the
representation on L^2(R) is

    (pi(p,q,t) f)(x) = exp(2 pi i (t + q x + p q / 2)) f(x + p),

realized here entirely in Hermite coefficients: smooth vectors are
rapid-decay sequences, tempered distributions polynomial-growth ones. The
generators act by ladder operators (P as d/dx, Q as 2 pi i x, Z as 2 pi i)
and group elements through the Fourier-Wigner kernel of the Hermite pair,

    <pi(p,q,0) h_j, h_k> = int exp(2 pi i (q x + p q/2)) h_j(x+p) h_k(x) dx,

the displacement-operator entry <k|D(a)|j>, a = sqrt(pi)(iq - p), in closed
form (Cahill and Glauber 1969; Folland, Harmonic Analysis in Phase Space, 1.9).

Test functions are finite sums of sheared bump terms, so translations and Lie
derivatives act on them exactly. The centre acts by the character
exp(2 pi i t), so pi(f) sees f only through F(p, q) = int f(p, q, t)
exp(2 pi i t) dt, which the terms give in closed form. pi(f) is then the
integral operator with kernel int F(y - x, q) exp(2 pi i q b) dq at the
midpoint b = (x + y)/2 (Folland 1.3): smoothing takes F on a Gauss-Legendre
rule over the (p, q) plane, the q-integral as one matrix product onto
Gauss-Hermite nodes in b, and the bounded Hermite functions at b -/+ p/2 against
the scaled weights w exp(y^2), which absorb both Gaussians. The nodes are
symmetric and h_k has parity (-1)^k, so one real table at b + p/2 serves the
input and, read with b reversed, the output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import DEFAULT_QUADRATURE, QuadratureSpec
from .errors import BudgetExceeded, PreconditionError, QuadratureAccuracyError
from .groups import GroupModel, Laplacian
from .hermite import (
    gauss_hermite_rule,
    hermite_at_zero_values,
    hermite_blocks,
    hermite_scaled,
    legendre_on_interval,
)
from .uea import LieStructure, UEAElement, monomial_words
from .vectors import (
    CoefficientVector,
    GrowthClass,
    GrowthEnvelope,
    IndexDomain,
    Tail,
    formula_vector,
    pair,
    vector_from_prefix,
)

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# [P, Q] = Z, Z central
HEISENBERG_STRUCTURE = LieStructure(
    labels=("P", "Q", "Z"), brackets={(0, 1): {2: 1.0}}
)

HermiteVector = CoefficientVector

# per-axis count of a test function's (p, q) Gauss-Legendre rule before derivatives
BOX_NODES = 48
# an infinite input is read at least this many columns past the output truncation
INPUT_MARGIN = 32
# largest Hermite index of a gaussian_vector prefix: widths from about 0.049 to 20.4
GAUSSIAN_MAX_INDEX = 13_000
# float64 entries of the largest Hermite table of smoothing, or of the arrays of a fourier_wigner
# kernel block, which claims 8 per block entry (re, im, the complex phase and its exponent, the block)
TABLE_BUDGET = 1 << 26
# kernel rows are cut where they fall below this fraction of their peak
KERNEL_FLOOR = 1e-20
# entries of the largest recurrence history one pass of kernel rows keeps
KERNEL_CHUNK = 1 << 16
# last index of a kernel row or Hermite series; a kernel entry errs by 1.9e-10 at 10^7, and past this is unmeasured
KERNEL_MAX_INDEX = 1 << 24
# fourier_wigner reads an infinite psi to where its dropped |psi_k| sum below FW_ABS_TOL / 8
FW_ABS_TOL = 1e-10
_LOG_CUT = -2.0 * math.log(KERNEL_FLOOR)
# smoothing's Gauss-Hermite rule is grown until the phase exp(2 pi i q b) moves no Hermite
# function past the rule's exact degree by more than this fraction of its kernel row's peak
PHASE_FLOOR = 1e-12
# the finer (p, q) rule and the longer input that smoothing checks itself against
CHECK_NODES = 8
CHECK_COLUMNS = 24
# rows of the Hermite table that one block of a point series holds
SERIES_ROWS = 64
# past this |x| every h_k(x) with k <= KERNEL_MAX_INDEX is below the float range
_SERIES_REACH = 1e6
_BLOCK = 64  # recurrence steps whose coefficients are built at once


def _require_hermite(v: CoefficientVector) -> None:
    if v.domain is not IndexDomain.NATURALS:
        raise PreconditionError("Hermite vectors are indexed by the natural numbers")


def is_dirac_delta(v: CoefficientVector) -> bool:
    """v is the point distribution at 0, c_k = h_k(0): on the naturals from 0, with the
    hermite_zero tail, and its stored prefix is that formula on its indices."""
    return (
        v.domain is IndexDomain.NATURALS
        and v.start == 0
        and v.tail.name == "hermite_zero"
        and np.array_equal(v.prefix, v.tail.fn(np.arange(v.stop)))
    )


# --------------------------------------------------------------------------
# group elements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HeisenbergElement:
    p: float
    q: float
    t: float

    def __iter__(self):
        return iter((self.p, self.q, self.t))


IDENTITY = HeisenbergElement(0.0, 0.0, 0.0)


def as_element(g) -> HeisenbergElement:
    p, q, t = (float(v) for v in g)
    if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(t)):
        raise PreconditionError(f"group element coordinates must be finite, got {(p, q, t)}")
    return g if isinstance(g, HeisenbergElement) else HeisenbergElement(p, q, t)


def _hermite_index(k) -> int:
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)) or k < 0:
        raise PreconditionError(f"Hermite index must be a non-negative integer, got {k!r}")
    return int(k)


def _character(t) -> complex:
    """exp(2 pi i t), its whole turns dropped first: fmod is exact and keeps |t| < 1 as it is."""
    return np.exp(2j * np.pi * np.fmod(t, 1.0))


def group_mul(g, h) -> HeisenbergElement:
    g, h = as_element(g), as_element(h)
    return HeisenbergElement(
        g.p + h.p, g.q + h.q, g.t + h.t + 0.5 * (g.p * h.q - g.q * h.p)
    )


def group_inv(g) -> HeisenbergElement:
    g = as_element(g)
    return HeisenbergElement(-g.p, -g.q, -g.t)


# --------------------------------------------------------------------------
# test functions: finite sums of sheared bump terms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Term:
    """poly(u, v) j^(a)(u) j^(b)(v) j^(k)(t - t0 + beta p + gamma q), u = p - p0, v = q - q0.

    poly[i, j] is the coefficient of u^i v^j, orders is (a, b, k), place is
    (p0, q0, t0, beta, gamma) and bump is the 1-d scaled bump j (a
    mollify.BumpProfile: support, call (x, order) and transform(lam)).
    """

    bump: object
    poly: np.ndarray
    orders: tuple = (0, 0, 0)
    place: tuple = (0.0, 0.0, 0.0, 0.0, 0.0)

    def box(self) -> np.ndarray:
        r = self.bump.support
        p0, q0, t0, beta, gamma = self.place
        dt = r * (1.0 + abs(beta) + abs(gamma))
        tc = t0 - beta * p0 - gamma * q0
        return np.array([[p0 - r, p0 + r], [q0 - r, q0 + r], [tc - dt, tc + dt]])

    def translated(self, h: HeisenbergElement, left: bool) -> "_Term":
        """The term of f(h^{-1} g) (left) or f(g h) (right)."""
        s = 1.0 if left else -1.0
        p0, q0, t0, beta, gamma = self.place
        t0 += s * (h.t + beta * h.p + gamma * h.q)
        place = (p0 + s * h.p, q0 + s * h.q, t0, beta + h.q / 2.0, gamma - h.p / 2.0)
        return replace(self, place=place)

    def derived(self, sp: float, sq: float, s0: float, ap: float, aq: float) -> list:
        """Terms of (sp d_p + sq d_q + (s0 + ap p + aq q) d_t) applied to this one."""
        a, b, k = self.orders
        p0, q0, _, beta, gamma = self.place
        m = self.poly
        out = []
        for s, axis, orders in ((sp, 0, (a + 1, b, k)), (sq, 1, (a, b + 1, k))):
            if s:
                out.append(replace(self, poly=s * m, orders=orders))
                if m.shape[axis] > 1:
                    out.append(replace(self, poly=s * npoly.polyder(m, axis=axis)))
        # chain rule through w plus the d_t part, with p = u + p0 and q = v + q0
        grown = (sp * beta + sq * gamma + s0 + ap * p0 + aq * q0) * m
        if ap:
            grown = _poly_add(grown, np.pad(ap * m, ((1, 0), (0, 0))))
        if aq:
            grown = _poly_add(grown, np.pad(aq * m, ((0, 0), (1, 0))))
        out.append(replace(self, poly=grown, orders=(a, b, k + 1)))
        return out

    def __call__(self, p, q, t) -> np.ndarray:
        p0, q0, t0, beta, gamma = self.place
        a, b, k = self.orders
        u, v, w = p - p0, q - q0, t - t0 + beta * p + gamma * q
        j = self.bump
        return npoly.polyval2d(u, v, self.poly) * j(u, a) * j(v, b) * j(w, k)

    def central_transform(self, pn: np.ndarray, qn: np.ndarray, lam: float) -> np.ndarray:
        """int term(p, q, t) exp(2 pi i lam t) dt on the grid pn x qn.

        Substituting w gives exp(2 pi i lam (t0 - beta p - gamma q)) times the
        transform of j^(k), which is (-2 pi i lam)^k jhat(lam).
        """
        p0, q0, t0, beta, gamma = self.place
        a, b, k = self.orders

        def factor(x, x0, order, slope, degree):  # (x - x0)^i j^(order)(x - x0) exp(...)
            y = x - x0
            phase = self.bump(y, order) * np.exp(-2j * np.pi * lam * slope * x)
            return np.power.outer(y, np.arange(degree)) * phase[:, None]

        rows = factor(pn, p0, a, beta, self.poly.shape[0])
        cols = factor(qn, q0, b, gamma, self.poly.shape[1])
        scale = _character(lam * t0) * (-2j * np.pi * lam) ** k
        return scale * self.bump.transform(lam) * (rows @ self.poly @ cols.T)


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(np.maximum(a.shape, b.shape), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def _merged(terms) -> tuple:
    """Sum the polynomials of terms that differ only in them."""
    polys: dict = {}
    for t in terms:
        key = (t.bump, t.orders, t.place)
        polys[key] = _poly_add(polys[key], t.poly) if key in polys else t.poly
    return tuple(_Term(bump, poly, orders, place) for (bump, orders, place), poly in polys.items())


@dataclass(frozen=True)
class HTestFunction:
    """Smooth compactly supported function: a finite sum of sheared bump terms.

    Translations move the terms' places and Lie derivatives follow the product
    rule, both exactly; the central transform int f(p, q, t) exp(2 pi i lam t) dt,
    all that pi(f) sees of f, is closed form on the (p, q) plane. The size of its
    (p, q) rule, nodes, is read off the terms, so no operation carries it along.
    """

    terms: tuple

    @staticmethod
    def bump(jn) -> "HTestFunction":
        """The product bump jn(p) jn(q) jn(t) of a 1-d scaled bump jn."""
        return HTestFunction((_Term(jn, np.ones((1, 1), dtype=np.complex128)),))

    @property
    def nodes(self) -> int:
        """Per-axis count of the (p, q) Gauss-Legendre rule: BOX_NODES, and 16 more per
        derivative order of the sharpest term, as derivatives sharpen the integrand."""
        return BOX_NODES + 16 * max((sum(term.orders) for term in self.terms), default=0)

    @property
    def support(self) -> np.ndarray:
        """(3, 2) coordinate box holding the support."""
        boxes = np.array([term.box() for term in self.terms])
        return np.stack([boxes[:, :, 0].min(axis=0), boxes[:, :, 1].max(axis=0)], axis=1)

    def evaluator(self, p, q, t) -> np.ndarray:
        """Values at coordinate arrays (p, q, t)."""
        p, q, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (p, q, t)))
        return sum((term(p, q, t) for term in self.terms), np.zeros(p.shape, dtype=np.complex128))

    def __call__(self, g):
        return complex(self.evaluator(*as_element(g)))

    def axis_rule(self, axis: int, nodes: int | None = None):
        a, b = self.support[axis]
        return legendre_on_interval(a, b, nodes or self.nodes)

    def central_transform(self, pn: np.ndarray, qn: np.ndarray, lam: float) -> np.ndarray:
        """F_lam(p, q) = int f(p, q, t) exp(2 pi i lam t) dt on the grid pn x qn."""
        out = np.zeros((len(pn), len(qn)), dtype=np.complex128)
        return sum((term.central_transform(pn, qn, lam) for term in self.terms), out)

    def integral(self, nodes: int | None = None) -> complex:
        pn, pw = self.axis_rule(0, nodes)
        qn, qw = self.axis_rule(1, nodes)
        return complex(pw @ self.central_transform(pn, qn, 0.0) @ qw)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "HTestFunction") -> "HTestFunction":
        return HTestFunction(_merged(self.terms + other.terms))

    def __rmul__(self, scalar) -> "HTestFunction":
        return replace(self, terms=tuple(replace(t, poly=scalar * t.poly) for t in self.terms))

    # -- group translations ---------------------------------------------------

    def left_translate(self, h) -> "HTestFunction":
        """(L(h) f)(g) = f(h^{-1} g)."""
        return replace(self, terms=tuple(t.translated(as_element(h), True) for t in self.terms))

    def right_translate(self, h) -> "HTestFunction":
        """(R(h) f)(g) = f(g h)."""
        return replace(self, terms=tuple(t.translated(as_element(h), False) for t in self.terms))

    # -- Lie derivatives -------------------------------------------------------

    def _derive(self, d: UEAElement, side: str) -> "HTestFunction":
        if d.structure.labels != HEISENBERG_STRUCTURE.labels:
            raise PreconditionError("expected an element over the (P, Q, Z) basis")
        # (sp, sq, s0, ap, aq) of sp d_p + sq d_q + (s0 + ap p + aq q) d_t for P, Q, Z:
        # R(P) = d_p - (q/2) d_t, R(Q) = d_q + (p/2) d_t, R(Z) = d_t, and
        # L(P) = -d_p - (q/2) d_t, L(Q) = -d_q + (p/2) d_t, L(Z) = -d_t
        s = 1.0 if side == "R" else -1.0
        fields = ((s, 0.0, 0.0, 0.0, -0.5), (0.0, s, 0.0, 0.5, 0.0), (0.0, 0.0, s, 0.0, 0.0))
        terms = []
        for word, c in monomial_words(d):
            cur = self.terms
            for letter in reversed(word):
                cur = [out for term in cur for out in term.derived(*fields[letter])]
            terms += [replace(term, poly=c * term.poly) for term in cur]
        return HTestFunction(_merged(terms))

    def left_derive(self, d: UEAElement) -> "HTestFunction":
        return self._derive(d, "L")

    def right_derive(self, d: UEAElement) -> "HTestFunction":
        return self._derive(d, "R")


# --------------------------------------------------------------------------
# matrix elements and the group action
# --------------------------------------------------------------------------


def _row_extents(k: np.ndarray, x: np.ndarray, cut: float = _LOG_CUT) -> tuple:
    """First, centre and last index (js, jm, J) of the kernel rows W^(k) at x = pi (p^2 + q^2).

    Outside the turning points lo, hi = (sqrt k -/+ sqrt x)^2 the recurrence of
    _kernel_rows has real characteristic roots, and the log of their ratio, summed
    away from a turning point, is the integral phi of 2 acosh|f|, f(t) = (t + x - k) /
    (2 sqrt(x t)): with Q = (t - lo)(t - hi) and s the sign of x - k,
        above hi: 2 t acosh f - sqrt Q - 2 k acosh((t - x - k) / (2 sqrt(x k))),
        below lo: s (sqrt Q - 2 k acosh((x + k - t) / (2 sqrt(x k)))) - 2 t acosh|f|.
    The row decays like exp(-phi/2), so js and J sit where phi reaches cut (js = 0
    where the row is not that small at 0). phi is convex and monotone on each side, so a
    Newton step from any start ends outside the cut. The passes meet at jm: the band
    centre k + floor(x) where the row oscillates fast (x <= k/3, |f| <= 1/2), else the
    last hump before hi, at Ai's maximum, so that W_jm and W_jm+1 are never both small.
    """
    sk, sx = np.sqrt(k), np.sqrt(x)
    lo, hi = (sk - sx) ** 2, (sk + sx) ** 2
    band = k + np.floor(x)
    airy = np.cbrt(hi * sx / (sk + 1e-100))  # Airy length at hi, huge at k = 0
    centre = np.where(3.0 * x <= k, band, np.maximum(band, np.floor(hi - 1.02 * airy))).astype(np.int64)
    klogk = k * np.log(np.maximum(k, 1.0))  # k log k, 0 at k = 0
    log2sx = math.log(2.0) + np.log(sx)
    # phi at t = 0 is x - k - k log x + k log k: rows past the cut there start later
    far = np.flatnonzero(x - k * (2.0 * log2sx - 2.0 * math.log(2.0) + 1.0) + klogk > cut)
    side = rho = tau = 1.0  # Newton above hi, then below lo for the far rows
    turn, floor = hi, 0.0
    if len(far):
        at = np.r_[np.arange(len(k)), far]
        k, x, sk, sx, lo, hi, klogk, log2sx = (v[at] for v in (k, x, sk, sx, lo, hi, klogk, log2sx))
        side = np.r_[np.ones(len(centre)), -np.ones(len(far))]
        up = side > 0
        rho, tau = np.where(up, 1.0, -np.sign(x - k)), np.where(up, 1.0, np.sign(x - k))
        turn, floor = np.where(up, hi, lo), np.where(up, 0.0, 1e-9 * lo)
    # start at the Gaussian (k = 0) or Airy distance of the cut, whichever is nearer
    gap = np.minimum(np.sqrt(2.0 * cut * turn), np.cbrt(9.0 / 16.0 * cut**2 * turn * sx / (sk + 1e-100)))
    t = np.maximum(turn + side * np.maximum(gap, 1.0), floor)
    # one Newton step: phi is convex, so from either side it lands outside the cut, on
    # average a fraction of a step past it
    r = np.sqrt((t - lo) * (t - hi))
    a = np.log(np.abs(t + x - k) + r) - log2sx - 0.5 * np.log(t)  # acosh|f|
    b = np.log(np.abs(t - x - k) + r) - log2sx
    phi = tau * (klogk - 2.0 * k * b) - rho * r + 2.0 * side * t * a
    t = np.maximum(t - (phi - cut) / (2.0 * side * a), floor)
    n = len(centre)
    first = np.zeros(n, dtype=np.int64)
    first[far] = np.floor(t[n:])
    return first, centre, np.ceil(t[:n]).astype(np.int64)


def _scaling_table(lo: int, hi: int) -> np.ndarray:
    """t_j for lo <= j <= hi, t_0 = t_1 = 1 and t_{j+1} = sqrt(j / (j+1)) t_{j-1}, each from
    its own index: t_2m = sqrt(C(2m, m) / 4^m) = |h_2m(0)| / 2^(1/4) and t_2m+1 = 1 /
    (sqrt(2m + 1) t_2m), to a few ulp at any index, so t_j has its bits whatever the window."""
    j = np.arange(lo, hi + 1)
    t = np.abs(hermite_at_zero_values(j - j % 2)) / 2.0**0.25  # t_j at even j, t_(j-1) at odd j
    odd = j % 2 == 1
    t[odd] = 1.0 / (np.sqrt(j[odd]) * t[odd])
    return t


def _kernel_rows(k: np.ndarray, x: np.ndarray, first, centre, last, ws: int, we: int) -> np.ndarray:
    """W^(k)_j for ws <= j < we (table rows) at one (k, x) per column, each row of unit norm.

    W solves sqrt(x (j+1)) W_{j+1} = (k - j - x) W_j - sqrt(x j) W_{j-1}. It runs forward
    from first, where the row is below KERNEL_FLOOR and the wanted solution dominates,
    to centre + 1, and backward (Miller) from last, where it is minimal, down to centre.
    The backward part is scaled to the forward one on (centre, centre + 1) and the row
    to unit norm; below first and past last it is 0. Below the lower turning point the
    row has the sign of (k - x)^j.

    With W_j = t_j V_j, t_0 = t_1 = 1 and t_{j+1} = sqrt(j / (j+1)) t_{j-1} (_scaling_table,
    each t_j from its own index, over the indices the rows read only), both
    directions read V_next = d_j V_j - V_behind with d_j = ((k - j) / sqrt x - sqrt x)
    t_j / (t_next sqrt(j + 1 forward, j backward)): two ufunc calls a step, on one array of the
    forward and the backward passes, at rows f0 + i and b0 - i of step i. Outside its own
    steps a pass has d = 0, so its (V_behind, V_j) turns by quarter turns: started as the
    right turn of (0, sign) it holds exactly (0, sign) at its first step, and it stays
    bounded after its last. Those steps are masked out and the sums of squares taken in
    step order, so every row does its own arithmetic whatever the others and the window.
    """
    n = len(k)
    f0, b0 = int(first.min()), int(last.max())
    steps = max(int(centre.max()) + 2 - f0, b0 + 1 - int(centre.min()))
    rows = np.stack([f0 + np.arange(steps), np.maximum(b0 - np.arange(steps), 1)], axis=1)
    t0 = min(f0, int(rows[-1, 1]) - 1)  # the indices read: rows, forward + 1, backward - 1
    t = _scaling_table(t0, max(f0 + steps, b0))
    t_row = t[rows - t0]  # (steps, 2): forward, backward
    # d_j = c_j t_j / (t_next sqrt(j + 1 forward, j backward)), from the same t_j: exact
    # arithmetic gives t_j^2, but the table's rounding must cancel in W = t V
    g_row = t_row / (t[rows + [1 - t0, -1 - t0]] * np.sqrt(rows + [1, 0]))
    # the own steps of each pass: forward rows first..centre, backward rows last..centre + 1
    start = np.stack([first - f0, b0 - last])
    stop = np.stack([centre - f0, b0 - centre - 1])
    sign = np.stack([np.where((x < k) | (first % 2 == 0), 1.0, -1.0), np.ones(n)])
    turn = start % 4  # start quarter turns take (0, s), (-s, 0), (0, -s), (s, 0) to (0, s)
    v = np.empty((steps + 1, 2, n))  # v[i + 1]: V at step i; v[0] is behind step 0
    v[0], v[1] = sign * np.array([0.0, -1.0, 0.0, 1.0])[turn], sign * np.array([1.0, 0.0, -1.0, 0.0])[turn]
    i = np.arange(steps)[:, None, None]
    own = (i >= start) & (i <= stop)
    sx = np.sqrt(x)
    d = np.empty((_BLOCK, 2, n))
    views = list(v.reshape(steps + 1, 2 * n))
    mul, sub = np.multiply, np.subtract  # out given by position: half the call cost
    for b in range(0, steps - 1, _BLOCK):
        e = min(b + _BLOCK, steps - 1)
        db = d[: e - b]
        sub(k, rows[b:e, :, None], db)  # exact
        np.divide(db, sx, db)
        sub(db, sx, db)
        mul(db, g_row[b:e, :, None], db)
        mul(db, own[b:e], db)
        for dr, behind, cur, ahead in zip(db.reshape(e - b, 2 * n), views[b:], views[b + 1 :], views[b + 2 :]):
            mul(dr, cur, ahead)
            sub(ahead, behind, ahead)
    # scale the backward pass to the forward one on (V_centre, V_centre+1)
    at = np.stack([centre - f0, b0 - centre]) + 1
    lanes = np.arange(n)
    (f_c, b_c), (f_c1, b_c1) = v[at, [[0], [1]], lanes], v[at + [[1], [-1]], [[0], [1]], lanes]
    v[:, 1] *= (f_c * b_c + f_c1 * b_c1) / (b_c * b_c + b_c1 * b_c1)
    w = v[1:]
    w *= own
    w *= t_row[:, :, None]  # W = t V on the own steps
    table = np.zeros((we - ws, n))
    lo, hi = max(ws, f0), min(we, f0 + steps)
    if lo < hi:
        table[lo - ws : hi - ws] = w[lo - f0 : hi - f0, 0]
    lo, hi = max(ws, b0 - steps + 1), min(we, b0 + 1)
    if lo < hi:
        table[lo - ws : hi - ws] += w[b0 - lo : (b0 - hi if hi <= b0 else None) : -1, 1]
    w = w.reshape(steps, 2 * n)
    # numpy reduces the first axis of a 2-d array with two or more columns row by row, so
    # each column's sum runs in step order whatever the other columns
    sums = np.add.reduce(np.multiply(w, w, out=w), axis=0)
    table /= np.sqrt(sums[:n] + sums[n:])
    return table


def _cmul(a, b) -> np.ndarray:
    """a * b, broadcast, from real ufuncs: numpy's complex multiply fuses a multiply-add
    in some loops and not in others, which would tie a value's bits to the array shape."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _kernel_block(psi_vec: np.ndarray, cols: int, p, q, lo: int = 0, start: int = 0) -> tuple:
    """(ws, c): c[j - ws, m] = sum_k psi_k <pi(p_m, q_m, 0) h_j, h_k> for ws <= j < we at
    scalar or 1-d p, q, where [ws, we) is the part of [lo, cols) that the rows reach and
    psi_vec holds psi_k for start <= k < start + len(psi_vec) (psi is 0 elsewhere).

    With a = sqrt(pi)(iq - p), x = |a|^2 and u = a/|a|, the entry is u^(k-j) W^(k)_j,
    and each row W^(k) of a nonzero psi_k depends on k and x only. It comes from one
    three-term recurrence in j (_kernel_rows), run over its own extent (_row_extents):
    O(k + band) steps, whatever the window. One row is built for every pair of a nonzero
    psi_k and a distinct x whose extent meets [lo, cols), in passes of at most
    KERNEL_CHUNK history entries. A pass notes each lane's table column in one index
    array (-1 for the lanes of other passes), and every point gathers the columns of its
    x from it, row by row; the points' sums run in increasing k. A row's arithmetic
    depends on neither the window nor the other rows, so every entry has the bits of the
    lo = 0 result, and a point the bits it has alone. Columns outside [ws, we) are 0, and
    so is a point whose rows all lie outside [lo, cols), an overflowing x included; x
    below 1e-200 is taken as 1e-200, where the kernel is the identity to 1e-100. A row
    that reaches past KERNEL_MAX_INDEX, or a block whose 8 float64 entries per block
    entry pass TABLE_BUDGET, raises BudgetExceeded before any row is built.
    """
    p, q = np.atleast_1d(p, q)
    m = len(p)
    size = np.abs(psi_vec)
    ks = start + np.flatnonzero(size > KERNEL_FLOOR * size.max(initial=0.0))  # like the row ends
    nothing = lo, np.zeros((0, m), dtype=np.complex128)
    if not len(ks) or cols <= lo or not m:
        return nothing
    # |a| past 1e6 puts the row past every window; below 1e-100 it is the identity
    x = np.maximum(math.pi * np.minimum(np.hypot(p, q), 1e6) ** 2, 1e-200)
    xs, at = np.unique(x, return_inverse=True)  # the row of x[i] is built at xs[at[i]]
    n = len(xs)
    lane_k, lane_x = np.repeat(ks.astype(float), n), np.tile(xs, len(ks))  # k-major
    first, centre, last = _row_extents(lane_k, lane_x)
    live = np.flatnonzero((first < cols) & (last >= lo))
    if not len(live):
        return nothing
    top = int(last[live].max())
    if top > KERNEL_MAX_INDEX:
        raise BudgetExceeded(f"kernel rows reach index {top}, past {KERNEL_MAX_INDEX}", math.inf)
    ws, we = max(lo, int(first[live].min())), min(cols, top + 1)
    if 8 * (we - ws) * m > TABLE_BUDGET:  # the peak of this block, and of fourier_wigner's sum over it
        raise BudgetExceeded(f"kernel block of {we - ws} columns at {m} points is past {TABLE_BUDGET} entries at 8 each", math.inf)
    # complex products go through real ufuncs, as in _cmul
    theta = np.arctan2(q, -p)
    spin = np.exp(1j * (ks - ks[0])[:, None] * theta)  # u^(k - k0)
    c, s = psi_vec.real[ks - start, None], psi_vec.imag[ks - start, None]
    weight = (c * spin.real - s * spin.imag, c * spin.imag + s * spin.real)  # psi_k u^(k - k0)
    re, im = np.zeros((2, we - ws, m))
    span = int(last[live].max() - first[live].min()) + 2
    step = max(KERNEL_CHUNK // (2 * max(span, we - ws)), 1)
    column = np.full(len(lane_k), -1)  # lane -> its column of the pass's table, -1 outside the pass
    for start in range(0, len(live), step):
        lanes = live[start : start + step]
        table = _kernel_rows(
            lane_k[lanes], lane_x[lanes], first[lanes], centre[lanes], last[lanes], ws, we
        )
        column[lanes] = np.arange(len(lanes))
        for r in range(lanes[0] // n, lanes[-1] // n + 1):  # lanes are k-major: lane r n + i is row r at xs[i]
            col = column[r * n + at]
            pts = np.flatnonzero(col >= 0)
            rows = table[:, col[pts]]
            for acc, w in zip((re, im), weight):
                acc[:, pts] += w[r, pts] * rows
        column[lanes] = -1
    del rows  # up to one float64 an entry: the phase below peaks at 7 with re and im
    turn = np.exp(1j * (ks[0] - np.arange(ws, we))[:, None] * theta)  # u^(k0 - j)
    block = np.empty((we - ws, m), dtype=np.complex128)
    np.multiply(re, turn.real, block.real)
    block.real -= im * turn.imag
    np.add(np.multiply(re, turn.imag, re), np.multiply(im, turn.real, im), block.imag)
    return ws, block


def _kernel_columns(psi_vec: np.ndarray, cols: int, p, q, lo: int = 0, start: int = 0) -> np.ndarray:
    """c[j - lo, m] = sum_k psi_k <pi(p_m, q_m, 0) h_j, h_k> for lo <= j < cols: the
    block of _kernel_block, with zeros where no row reaches."""
    ws, block = _kernel_block(psi_vec, cols, p, q, lo, start)
    out = np.zeros((cols - lo, block.shape[1]), dtype=np.complex128)
    out[ws - lo : ws - lo + len(block)] = block
    return out


def _hermite_series(c: np.ndarray, start: int, x: np.ndarray) -> np.ndarray:
    """sum_k c[k - start] h_k(x) at each point of a 1-d x, for c holding the coefficients
    of start <= k < start + len(c).

    The rows come from hermite_blocks in blocks of SERIES_ROWS, so memory grows with
    len(x) only, and each point sums its terms in increasing k: its bits depend on no
    other point. A point past |x| = _SERIES_REACH is 0. A last nonzero coefficient past
    KERNEL_MAX_INDEX raises BudgetExceeded before any row is built.
    """
    out = np.zeros(len(x), dtype=np.complex128)
    nonzero = np.flatnonzero(c)
    if not len(nonzero):
        return out
    last = start + int(nonzero[-1])
    if last > KERNEL_MAX_INDEX:
        raise BudgetExceeded(f"the Hermite series reaches index {last}, past {KERNEL_MAX_INDEX}", math.inf)
    near = np.flatnonzero(np.abs(x) <= _SERIES_REACH)
    if not len(near):
        return out
    parts = np.stack([c.real, c.imag], axis=1)[:, :, None]
    acc = np.zeros(2 * len(near))  # the real parts of the sums, then the imaginary parts
    for k0, block in hermite_blocks(x[near], last, SERIES_ROWS):
        lo, hi = max(k0, start), k0 + len(block)
        if lo < hi:
            terms = (parts[lo - start : hi - start] * block[lo - k0 :, None, :]).reshape(hi - lo, -1)
            terms[0] += acc
            # rows added one by one, in increasing k, as in _kernel_rows
            acc = np.add.reduce(terms, axis=0)
    out.real[near], out.imag[near] = acc[: len(near)], acc[len(near) :]
    return out


def _delta_phase(p, q) -> np.ndarray:
    """exp(-i pi p q), broadcast, and 0 where p q leaves the float range."""
    with np.errstate(over="ignore"):
        t = -0.5 * p * q
    live = np.isfinite(t)
    return np.where(live, _character(np.where(live, t, 0.0)), 0.0)


def matrix_element(g, j: int, k: int) -> complex:
    """<pi(g) h_j, h_k>: the pointwise coefficient of the basis vectors h_j, h_k at g."""
    return pointwise_coefficient(unit_vector(j), unit_vector(k))(g)


def _reach(r2: float, level: int) -> int:
    """Columns past `level` coupled by group elements with p^2 + q^2 <= r2.

    (p, q, .) couples Hermite levels k across a band of width about
    2 sqrt(s k) + s with s = pi (p^2 + q^2) / 2.
    """
    s = math.pi * r2 / 2.0
    return int(math.ceil(2.6 * math.sqrt(s * (level + 32)) + s)) + 16


def _support_extent(f: HTestFunction) -> tuple:
    """(pm, qm), the largest |p| and |q| of f's support. Smoothing reads Hermite functions
    at p/2 and phases q b, and its rules nodes on the support, which leave the float range
    past |p|, |q| = 1e150: such supports are refused."""
    pm = float(np.max(np.abs(f.support[0])))
    qm = float(np.max(np.abs(f.support[1])))
    if not max(pm, qm) <= 1e150:
        raise PreconditionError(f"test function support reaches |p| or |q| = {max(pm, qm):.3g}, past 1e150")
    return pm, qm


def _displacement_margin(f: HTestFunction, N: int) -> int:
    """Input truncation margin, at least INPUT_MARGIN, scaled to the support's phase-space
    reach (_support_extent). Past p^2 + q^2 = 1e16 the reach is past any table smoothing
    may build, and is taken there."""
    pm, qm = _support_extent(f)
    return max(INPUT_MARGIN, _reach(min(pm * pm + qm * qm, 1e16), N))


def _action_input(v: CoefficientVector, N: int) -> tuple:
    """(start, run): the coefficients a group action reads from a rapid-decay or finitely
    supported v, from index start on.

    A finite v is read as stored. An infinite v is read from 0, at least INPUT_MARGIN
    columns past N, and as far as its envelope certifies the dropped coefficients
    to sum below 1e-14 in modulus: kernel entries are at most 1 in modulus, so
    that bounds every output's truncation error, whatever the group element.
    """
    if not (v.growth is GrowthClass.RAPID_DECAY or v.finite_support):
        raise PreconditionError("group action needs a rapid-decay or finitely supported vector")
    if v.finite_support:
        return v.start, v.prefix
    return 0, v.dense(0, max(N + INPUT_MARGIN, v.abs_tail_extent(1e-14)) - 1)


def act_group(g, phi: HermiteVector, N: int = DEFAULT_QUADRATURE.truncation) -> HermiteVector:
    """First N coefficients of pi(g) phi via the matrix of the action."""
    _require_hermite(phi)
    g = as_element(g)
    if N < 0:
        raise PreconditionError(f"output truncation must be nonnegative, got {N}")
    start, vec = _action_input(phi, N)
    # K(g) = K(g^{-1})^*, so (K(g) v)_k = conj(sum_j conj(v_j) K(g^{-1})[j, k])
    out = _character(g.t) * np.conj(_kernel_columns(np.conj(vec), N, -g.p, -g.q, start=start)[:, 0])
    return vector_from_prefix(IndexDomain.NATURALS, 0, out, GrowthClass.RAPID_DECAY, degree=-8.0)


def dual_act_group(g, psi: HermiteVector, N: int = DEFAULT_QUADRATURE.truncation) -> HermiteVector:
    """Contragredient action: pi*(g) = conj pi(g) = pi(sigma g) in the real Hermite basis,
    with sigma(p, q, t) = (p, -q, -t) the automorphism of _contragredient_element."""
    g = as_element(g)
    return act_group((g.p, -g.q, -g.t), psi, N)


# --------------------------------------------------------------------------
# algebra action by ladder operators
# --------------------------------------------------------------------------


def _algebra_at(d: UEAElement, phi: CoefficientVector, ks: np.ndarray) -> np.ndarray:
    """(pi(d) phi)_k for an index array ks, exact in the stored/tail coefficients.

    Each generator is pulled back to its input at neighbouring indices,

    (pi(P) v)_k = sqrt(pi) (sqrt(k+1) v_{k+1} - sqrt(k) v_{k-1})
    (pi(Q) v)_k = i sqrt(pi) (sqrt(k+1) v_{k+1} + sqrt(k) v_{k-1})
    (pi(Z) v)_k = 2 pi i v_k,

    so the result is sum_o w_o(k) phi_{k+o} over offsets |o| <= degree, with
    phi read once per offset. The clipped square roots vanish below index 0.
    """
    weights: dict[int, np.ndarray | complex] = {}
    for word, c in monomial_words(d):
        cur = {0: complex(c)}
        for letter in word:  # the leftmost letter acts last, so it is pulled back first
            nxt = {}
            for o, w in cur.items():
                if letter == 2:
                    nxt[o] = nxt.get(o, 0j) + 2j * math.pi * w
                    continue
                up = SQRT_PI * np.sqrt(np.maximum(ks + o + 1, 0)) * w
                down = SQRT_PI * np.sqrt(np.maximum(ks + o, 0)) * w
                if letter == 1:
                    up, down = 1j * up, 1j * down
                else:
                    down = -down
                nxt[o + 1] = nxt.get(o + 1, 0j) + up
                nxt[o - 1] = nxt.get(o - 1, 0j) + down
            cur = nxt
        for o, w in cur.items():
            weights[o] = weights.get(o, 0j) + w
    out = np.zeros(ks.shape, dtype=np.complex128)
    for o, w in weights.items():
        out += w * phi.coeffs(ks + o)
    return out


def _algebra_envelope(d: UEAElement, env: GrowthEnvelope) -> GrowthEnvelope:
    """Conservative envelope for pi(d) phi: each ladder step costs (1+k)^(1/2) and 1/ratio."""
    total_c = 0.0
    max_deg = env.degree
    for alpha, c in d.sorted_terms():
        cc = env.constant * abs(c) * (2.0 * math.pi) ** alpha[2]
        r = env.degree
        for _ in range(alpha[0] + alpha[1]):
            cc *= 2.0 * SQRT_PI * 2.0 ** (abs(r) + 1.0) / env.ratio
            r += 0.5
        total_c += cc
        max_deg = max(max_deg, r)
    return GrowthEnvelope(max(total_c, 1e-300), max_deg, env.all_orders, env.ratio)


def act_algebra(d: UEAElement, phi: HermiteVector) -> HermiteVector:
    """Weyl-algebra action of a normal-ordered element on Hermite coefficients."""
    _require_hermite(phi)
    if d.structure.labels != HEISENBERG_STRUCTURE.labels:
        raise PreconditionError("expected an element over the (P, Q, Z) basis")
    deg = d.degree
    out_len = phi.stop + deg
    prefix = _algebra_at(d, phi, np.arange(out_len))
    tail = phi.tail
    if not tail.is_zero:
        tail = Tail.closure(lambda k: _algebra_at(d, phi, k))
    return CoefficientVector(phi.domain, 0, prefix, _algebra_envelope(d, phi.envelope), tail)


def _contragredient_element(d: UEAElement) -> UEAElement:
    """sigma(D) with sigma: P -> P, Q -> -Q, Z -> -Z (an automorphism).

    Under the bilinear dual pairing the P matrix is antisymmetric while Q and
    Z are symmetric, so pi*(X) = -pi(X)^T works out to pi(sigma X); sigma
    respects [P, Q] = Z, hence extends multiplicatively and acts termwise on
    normal forms.
    """
    return UEAElement(
        d.structure,
        {alpha: c * (-1.0) ** (alpha[1] + alpha[2]) for alpha, c in d.terms.items()},
    )


def dual_act_algebra(d: UEAElement, psi: HermiteVector) -> HermiteVector:
    """Contragredient algebra action pi*(D) psi = pi(sigma(D)) psi."""
    return act_algebra(_contragredient_element(d), psi)


# --------------------------------------------------------------------------
# smoothing and generalized matrix coefficients
# --------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _x_rule_size(rows: int, cols: int, q_max: float = 0.0) -> int:
    """Gauss-Hermite count for the midpoint b of smoothing, outputs k < rows, inputs j < cols.

    With n nodes the rule is exact on poly(y) exp(-y^2) to degree 2n - 1, and
    h_j(b + p/2) h_k(b - p/2) is such a product of degree j + k (the shifts by p/2
    cancel in the Gaussian): the base count max(80, (rows + cols) // 2 + 32) covers
    it with margin. The phase exp(2 pi i q b) = exp(i sqrt(2 pi) q y) of the q-kernel
    is the displacement pi(0, q, 0), so on the shorter side it takes h_k to the levels
    of the kernel row W^(k) at x = pi q^2. The rule grows only when the row of that
    side's top function, cut at PHASE_FLOOR of its peak (_row_extents), reaches past
    the degree the longer side leaves, 2n - 1 - (max(rows, cols) - 1); then n is the
    count where it does not, about (max(rows, cols) + (sqrt(k) + sqrt(pi) q_max)^2) / 2.
    """
    n = max(80, (rows + cols) // 2 + 32)
    x = math.pi * min(q_max * q_max, 1e16)  # as in _displacement_margin
    if x > 0.0:
        k = float(min(rows, cols) - 1)
        last = int(_row_extents(np.array([k]), np.array([x]), -2.0 * math.log(PHASE_FLOOR))[2][0])
        n = max(n, (max(rows, cols) + last + 1) // 2)
    return n


def _rule_weights(f: HTestFunction, pn: np.ndarray, pw: np.ndarray, q_box, nodes: int) -> tuple:
    """(qn, weights): the nodes-point Gauss-Legendre rule qn, qw on q_box = (q0, q1), and
    weights = pw F_1(pn, qn) qw on the grid pn x qn. Values past the float range raise
    PreconditionError."""
    qn, qw = legendre_on_interval(*q_box, nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = pw[:, None] * f.central_transform(pn, qn, 1.0) * qw
    if not np.isfinite(weights).all():
        raise PreconditionError("test function values leave the float range on its (p, q) rule")
    return qn, weights


def _smooth_core(f: HTestFunction, phi_vec: np.ndarray, N: int, rule: int, extra: int = 0) -> tuple:
    """(out, gap): the first N coefficients of pi(f) phi from the first len(phi_vec) -
    extra input columns, on the f.nodes (p, q) rule and the rule-node Gauss-Hermite rule
    in b, and how far they move, in output units, with the extra columns and with a
    (p, q) rule CHECK_NODES finer per axis.

    One table of the bounded Hermite functions at b + p/2 serves the input, the output
    (by parity) and the extra columns. The finer rule's q-kernel needs only the closed-
    form central transform; its p-sum is taken over the f.nodes p-nodes through the
    Lagrange interpolation from them to the finer ones (barycentric, Gauss-Legendre
    weights), which the Hermite products, band-limited in p, follow. So the check
    contracts the kernel difference through the same table, and builds no other.
    """
    (p0, p1), (q0, q1) = f.support[:2]
    y, W = gauss_hermite_rule(rule)
    b = y / SQRT_2PI  # kernel midpoints (x + y)/2

    def rule_grid(nodes):
        # the scaled weights W = w exp(y^2) take the bounded h at b -/+ p/2 as they
        # are, and dx = dy / sqrt(2 pi)
        pn, pw = legendre_on_interval(p0, p1, nodes)
        qn, weights = _rule_weights(f, pn, pw / SQRT_2PI, (q0, q1), nodes)
        # b[::-1] == -b, so the phases exp(2 pi i q b) of the upper half are conjugates
        half = np.exp(2j * np.pi * np.outer(qn, b[: (len(b) + 1) // 2]))
        return pn, pw, weights, np.concatenate([half, np.conj(half[:, len(b) // 2 - 1 :: -1])], axis=1)

    pn, pw, weights, phases = rule_grid(f.nodes)
    # the q-integral of F_1(p, q) exp(2 pi i q b) sees b only: a partial Fourier transform
    kernel = weights @ phases
    # one real table at b + p/2, columns p-major like kernel.ravel(); the rule's
    # b[::-1] == -b and parity give h_k(b - p/2) = (-1)^k h_k(b[::-1] + p/2)
    cols = len(phi_vec) - extra
    table = hermite_scaled(np.add.outer(pn / 2.0, b).ravel(), max(N, cols + extra) - 1)

    def at_input(vec, rows):  # sum_j vec_j h_j(b + p/2), as (real, imaginary) rows
        s = np.stack([vec.real, vec.imag]) @ rows
        return s[0] + 1j * s[1]

    def contract(v):  # (-1)^k sum over (p, b) of h_k(b - p/2) v(p, b)
        v = v.reshape(kernel.shape)[:, ::-1].ravel()
        out = table[:N] @ np.stack([v.real, v.imag], axis=1)
        return (out[:, 0] + 1j * out[:, 1]) * (-1.0) ** np.arange(N)

    s = at_input(phi_vec[:cols], table[:cols])
    kw = (kernel * W).ravel()
    out = contract(s * kw)
    # the finer rule, its p-sum pulled back onto pn by the interpolation matrix
    pn2, _, weights2, phases2 = rule_grid(f.nodes + CHECK_NODES)
    x = (2.0 * pn - p0 - p1) / (p1 - p0)
    lam = (-1.0) ** np.arange(f.nodes) * np.sqrt((1.0 - x * x) * pw)
    hit = pn2[:, None] == pn  # an odd count shares the node 0 with the finer rule
    c = lam / np.where(hit, 1.0, pn2[:, None] - pn)
    lagrange = np.where(hit.any(axis=1, keepdims=True), hit, c / c.sum(axis=1, keepdims=True))
    kernel2 = (lagrange.T @ weights2) @ phases2
    moved = s * ((kernel2 * W).ravel() - kw)
    if extra:
        moved += at_input(phi_vec[cols:], table[cols : cols + extra]) * kw
    return out, float(np.max(np.abs(contract(moved))))


def smooth_by(f: HTestFunction, phi: HermiteVector, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> HermiteVector:
    """pi(f) phi = weak integral of f(g) pi(g) phi, coefficient-wise: its first
    N = quad.truncation coefficients (another length is another QuadratureSpec,
    replace(quad, truncation=...)), on the f.nodes (p, q) rule.

    In the Schrodinger model pi(f) is the integral operator whose kernel at the
    midpoint b = (x + y)/2 is int F_1(y - x, q) exp(2 pi i q b) dq (Folland 1.3):
    Gauss-Legendre over the (p, q) support square of the closed-form central
    transform, Gauss-Hermite in b with scaled weights, and one real table of the
    bounded Hermite functions at b + p/2 that serves both sides by parity. The
    input is read only in the band that reaches the output, N plus the support's
    displacement margin. The result is a smooth (rapid-decay) vector from one pass,
    with three guards:

    - the b-rule is sized in advance from the support's max |q| (_x_rule_size), so
      that it resolves the phase exp(2 pi i q b) on top of the Hermite degrees;
    - the (p, q) rule is checked against one CHECK_NODES finer per axis, from the
      central transform and the same Hermite table (_smooth_core), with no second;
    - an input with nonzero coefficients past the band continues the same Hermite
      table by CHECK_COLUMNS rows, and what those columns add is measured.

    A combined gap above quad.check_tol (1 + max |result|) raises
    QuadratureAccuracyError. A table of more than TABLE_BUDGET entries, b-rule
    growth included, raises BudgetExceeded before any is built.
    """
    _require_hermite(phi)
    N = quad.truncation
    if N < 1:
        raise PreconditionError("output truncation must be at least 1")
    # output k < N couples only to inputs below N + margin, also for a long finite phi
    band = N + _displacement_margin(f, N)
    cols = min(max(phi.stop, 1), band) if phi.finite_support else band
    extra = CHECK_COLUMNS if not phi.finite_support or phi.stop > cols else 0
    rule = _x_rule_size(N, cols, float(np.max(np.abs(f.support[1]))))
    entries = max(N, cols + extra) * f.nodes * rule
    if entries > TABLE_BUDGET:
        raise BudgetExceeded(f"smoothing needs a Hermite table of at least {entries:.3g} entries", math.inf)
    out, gap = _smooth_core(f, phi.dense(0, cols + extra - 1), N, rule, extra)
    tol = quad.check_tol * (1.0 + float(np.max(np.abs(out))))
    if not gap <= tol:
        raise QuadratureAccuracyError("smoothing quadrature has not converged", gap, tol, out)
    return vector_from_prefix(IndexDomain.NATURALS, 0, out, GrowthClass.RAPID_DECAY, degree=-8.0)


def gmc_eval(
    phi: HermiteVector,
    psi: HermiteVector,
    f: HTestFunction,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    abs_tol: float = 1e-12,
) -> complex:
    """<pi(f) phi, psi>: smooth phi to quad.truncation coefficients, or to the stop of a
    finitely supported psi that reaches past it, so that the pairing drops no term of
    psi; then pair with psi. The point distribution delta (is_dirac_delta) as phi, against
    a rapid-decay or finite psi or against delta, takes its closed form (_delta_eval)."""
    if is_dirac_delta(phi) and (psi.finite_support or psi.growth is GrowthClass.RAPID_DECAY or is_dirac_delta(psi)):
        return _delta_eval(psi, f, quad, abs_tol)
    if psi.finite_support and psi.stop > quad.truncation:
        quad = replace(quad, truncation=psi.stop)
    return pair(smooth_by(f, phi, quad), psi, abs_tol=abs_tol)


def _delta_eval(psi: HermiteVector, f: HTestFunction, quad: QuadratureSpec, abs_tol: float) -> complex:
    """<pi(f) delta, psi> = int int F_1(p, q) exp(-i pi p q) psi(-p) dp dq, with psi(x) =
    sum_k psi_k h_k(x), and <pi(f) delta, delta> = int F_1(0, q) dq (Folland 1.3).

    Both are taken on f's Gauss-Legendre rule and checked, as smoothing is, against the
    rule CHECK_NODES finer per axis: a gap above quad.check_tol (1 + |result|) raises
    QuadratureAccuracyError. One series call gives psi(-p) at both rules' p-nodes. An
    infinite psi is read to where the envelope bounds its dropped |psi_k| by abs_tol /
    (1.3 (1 + sum over p of |the q-sum of weights and phases|)), since |h_k| <= 1.3.
    """
    _support_extent(f)
    (p0, p1), q_box = f.support[:2]
    rules = (f.nodes, f.nodes + CHECK_NODES)
    if is_dirac_delta(psi):
        out, check = (complex(np.sum(_rule_weights(f, np.zeros(1), np.ones(1), q_box, n)[1])) for n in rules)
    else:
        pns, rows = [], []  # per rule, its p-nodes and the q-sums of the weights and phases there
        for nodes in rules:
            pn, pw = legendre_on_interval(p0, p1, nodes)
            qn, weights = _rule_weights(f, pn, pw, q_box, nodes)
            pns.append(pn)
            rows.append(np.sum(weights * _delta_phase(pn[:, None], qn), axis=1))
        if psi.finite_support:
            start, vec = psi.start, psi.prefix
        else:
            scale = 1.3 * (1.0 + float(np.sum(np.abs(rows[0]))))
            start, vec = 0, psi.dense(0, psi.abs_tail_extent(abs_tol / scale) - 1)
        series = _hermite_series(vec, start, -np.concatenate(pns))
        out, check = complex(rows[0] @ series[: f.nodes]), complex(rows[1] @ series[f.nodes :])
    gap, tol = abs(out - check), quad.check_tol * (1.0 + abs(out))
    if not gap <= tol:
        raise QuadratureAccuracyError("smoothing quadrature has not converged", gap, tol, out, check)
    return out


def fourier_wigner(phi: HermiteVector, psi: HermiteVector, p, q) -> complex | np.ndarray:
    """Pointwise coefficient sum_{j,k} phi_j psi_k <pi(p,q,0) h_j, h_k>.

    p, q are broadcast scalars or arrays, and so is the result. psi must be
    rapid-decay; phi may be any class. The point distribution delta (is_dirac_delta)
    as phi gives exp(-i pi p q) sum_k psi_k h_k(-p) (Folland 1.3), one Hermite series
    per distinct p (_hermite_series). Any other phi reads the kernel, built once as
    one block of the columns j the sum reads (_kernel_block): a finite phi's from its
    first nonzero index to its stop, an infinite phi's on every column a row of psi
    reaches at any point. Past its last index a row is below KERNEL_FLOOR of its peak
    and decays faster than any power of j, so an infinite phi gives the bits of its
    truncation there. The terms are summed in increasing j (or k), so a point has the
    bits it has alone. Rows past KERNEL_MAX_INDEX, or a block of more than
    TABLE_BUDGET / 8 entries, raise BudgetExceeded before any row is built.
    """
    _require_hermite(phi)
    _require_hermite(psi)
    if psi.growth is not GrowthClass.RAPID_DECAY:
        raise PreconditionError("pointwise evaluation needs a rapid-decay second argument")
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    ps, qs = p.ravel(), q.ravel()
    if not (np.all(np.isfinite(ps)) and np.all(np.isfinite(qs))):
        raise PreconditionError("displacements p and q must be finite")
    if psi.finite_support:
        start, psi_vec = psi.start, psi.prefix
    else:
        start, psi_vec = 0, psi.dense(0, psi.abs_tail_extent(FW_ABS_TOL / 8.0) - 1)
    if is_dirac_delta(phi):
        x, at = np.unique((-ps).view(np.int64), return_inverse=True)  # distinct bits: -0.0 is not 0.0
        total = _cmul(_delta_phase(ps, qs), _hermite_series(psi_vec, start, x.view(float))[at])
        return complex(total[0]) if p.ndim == 0 else total.reshape(p.shape)

    if phi.finite_support:
        top, nonzero = max(phi.stop, 1), np.flatnonzero(phi.prefix)
        lo = phi.start + int(nonzero[0]) if len(nonzero) else 0
    else:
        lo, top = 0, 1 << 62
    ws, kernel = _kernel_block(psi_vec, top, ps, qs, lo, start=start)
    we = ws + len(kernel)
    terms = _cmul(phi.dense(ws, we - 1)[:, None], kernel)
    total = np.zeros(len(ps), dtype=np.complex128)
    if we > ws:  # cumsum adds in increasing j, where sum would add a lone point's terms pairwise
        total += np.cumsum(terms, axis=0)[-1]
    bad = int(np.count_nonzero(~np.isfinite(total)))
    if bad:
        message = f"pointwise coefficient at {we} columns is not finite at {bad} points"
        raise QuadratureAccuracyError(message, bad, 0.0, total, None)
    return complex(total[0]) if p.ndim == 0 else total.reshape(p.shape)


def pointwise_coefficient(phi: HermiteVector, psi: HermiteVector) -> Callable:
    """g -> <pi(g) phi, psi> = exp(2 pi i t) * fourier_wigner(phi, psi, p, q).

    g is one group element, or an (..., 3) array of (p, q, t) rows: that takes one
    fourier_wigner call and gives an (...) array, each value with the bits of its
    single-element call.
    """
    if psi.growth is not GrowthClass.RAPID_DECAY:
        raise PreconditionError("pointwise view requires a rapid-decay partner")

    def view(g):
        g = np.asarray(tuple(g) if isinstance(g, HeisenbergElement) else g, dtype=float)
        if g.shape[-1:] != (3,):
            raise PreconditionError(f"group elements are (p, q, t) rows, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise PreconditionError("group element coordinates must be finite")
        value = _cmul(_character(g[..., 2]), fourier_wigner(phi, psi, g[..., 0], g[..., 1]))
        return complex(value) if g.ndim == 1 else value

    return view


# --------------------------------------------------------------------------
# standard vectors
# --------------------------------------------------------------------------


def unit_vector(k: int) -> HermiteVector:
    return CoefficientVector(
        IndexDomain.NATURALS, _hermite_index(k), np.array([1.0 + 0j]), GrowthEnvelope(1.0, 0.0, all_orders=True)
    )


def dirac_delta(prefix_len: int = 64) -> HermiteVector:
    """Tempered-distribution delta at the origin: c_k = h_k(0)."""
    return formula_vector(IndexDomain.NATURALS, 0, prefix_len, "hermite_zero")


def gaussian_vector(sigma: float = 0.75, nmax: int = 48) -> HermiteVector:
    """Hermite coefficients of the L2-normalized Gaussian of width sigma (Mehler):

    c_{2m} = sqrt(2 sigma/(1 + sigma^2)) (-r)^m sqrt((2m)!)/(2^m m!), c_{2m+1} = 0,
    with r = (1 - sigma^2)/(1 + sigma^2), built by the ratio -r sqrt((2m-1)/(2m)).
    The prefix runs to index nmax, or further until the dropped l2 norm is below
    1e-13, so a pairing that reads the prefix as exact is off by at most that: as
    c_0^2 = sqrt(1 - r^2) and C(2m, m)/4^m <= 1, the norm is at most |r|^m / c_0
    past m even terms. A width that needs indices past GAUSSIAN_MAX_INDEX = 13000
    (sigma below about 0.049 or above about 20.4) raises BudgetExceeded.
    """
    if not 0.0 < sigma < math.inf:
        raise PreconditionError("gaussian width must be positive and finite")
    r = (1.0 - sigma * sigma) / (1.0 + sigma * sigma)
    c0 = math.sqrt(2.0 * sigma / (1.0 + sigma * sigma))
    if not abs(r) < 1.0:  # sigma^2 rounds away next to 1, or overflows
        raise BudgetExceeded(f"gaussian width {sigma!r} needs an unbounded prefix", 1.0)
    terms = 1 if r == 0.0 else math.floor(math.log(1e-13 * c0) / math.log(abs(r))) + 1
    if 2 * (terms - 1) > GAUSSIAN_MAX_INDEX:
        dropped = min(abs(r) ** (GAUSSIAN_MAX_INDEX // 2 + 1) / c0, 1.0)
        raise BudgetExceeded(f"gaussian width {sigma!r} needs indices past {GAUSSIAN_MAX_INDEX}", dropped)
    nmax = max(nmax, 2 * (terms - 1))
    ratios = np.concatenate([[1.0], -r * np.sqrt(1.0 - 0.5 / np.arange(1, nmax // 2 + 1))])
    coeffs = np.zeros(nmax + 1, dtype=np.complex128)
    coeffs[::2] = c0 * np.cumprod(ratios)
    return vector_from_prefix(IndexDomain.NATURALS, 0, coeffs, GrowthClass.RAPID_DECAY, degree=-8.0)


def poly_growth_vector(r: float, prefix_len: int = 64) -> HermiteVector:
    return formula_vector(IndexDomain.NATURALS, 0, prefix_len, "shifted_power", float(r))


# --------------------------------------------------------------------------
# the model bundle
# --------------------------------------------------------------------------


HEISENBERG = GroupModel(
    name="heisenberg",
    structure=HEISENBERG_STRUCTURE,
    inverse=group_inv,
    smooth_by=smooth_by,
    gmc_eval=gmc_eval,
    pointwise_coefficient=pointwise_coefficient,
    # the oscillator 1 - (P^2 + Q^2) / 4 pi acts on h_k by k + 3/2 >= 1 + k
    laplacian=Laplacian(
        UEAElement(
            HEISENBERG_STRUCTURE, {(0, 0, 0): 1.0, (2, 0, 0): -1.0 / (4.0 * math.pi), (0, 2, 0): -1.0 / (4.0 * math.pi)}
        ),
        lambda k: k + 1.5, 1.0, 1.0, IndexDomain.NATURALS,
    ),
)


def with_quadrature(quad: QuadratureSpec) -> GroupModel:
    """The Heisenberg model whose smoothing and pairing hooks run at quad (HEISENBERG
    itself at the default). The hooks look smooth_by and gmc_eval up when called."""
    if quad == DEFAULT_QUADRATURE:
        return HEISENBERG
    return replace(
        HEISENBERG,
        smooth_by=lambda f, phi: smooth_by(f, phi, quad),
        gmc_eval=lambda phi, psi, f: gmc_eval(phi, psi, f, quad),
    )
