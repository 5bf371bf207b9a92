"""Schrodinger representation of the 3-dimensional Heisenberg group.

Group elements are exponential coordinates (p, q, t) with law
(p1,q1,t1)(p2,q2,t2) = (p1+p2, q1+q2, t1+t2+(p1 q2 - q1 p2)/2), and the
representation on L^2(R) is

    (pi(p,q,t) f)(x) = exp(2 pi i (t + q x + p q / 2)) f(x + p),

realized here entirely in Hermite coefficients: smooth vectors are
rapid-decay sequences, tempered distributions polynomial-growth ones. The
generators act by ladder operators (P as d/dx, Q as 2 pi i x, Z as 2 pi i)
and group elements through quadrature matrix elements

    <pi(g) h_j, h_k> = int exp(2 pi i (t + q x + p q/2)) h_j(x+p) h_k(x) dx,

the Fourier-Wigner kernel of the Hermite pair. The Gaussian factors of the
integrand cancel the Gauss-Hermite weight exactly, so only Gaussian-free
Hermite values enter the rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from .config import DEFAULT_QUADRATURE, QuadratureSpec
from .errors import BudgetExceeded, PreconditionError, QuadratureAccuracyError
from .groups import GroupModel
from .hermite import (
    gauss_hermite_rule,
    hermite_at_zero,
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


def _require_hermite(v: CoefficientVector) -> None:
    if v.domain is not IndexDomain.NATURALS:
        raise PreconditionError("Hermite vectors are indexed by the natural numbers")


# --------------------------------------------------------------------------
# group elements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HeisenbergElement:
    p: float
    q: float
    t: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.q, self.t])

    def __iter__(self):
        return iter((self.p, self.q, self.t))


IDENTITY = HeisenbergElement(0.0, 0.0, 0.0)


def as_element(g) -> HeisenbergElement:
    if isinstance(g, HeisenbergElement):
        return g
    p, q, t = (float(v) for v in g)
    return HeisenbergElement(p, q, t)


def group_mul(g, h) -> HeisenbergElement:
    g, h = as_element(g), as_element(h)
    return HeisenbergElement(
        g.p + h.p, g.q + h.q, g.t + h.t + 0.5 * (g.p * h.q - g.q * h.p)
    )


def group_inv(g) -> HeisenbergElement:
    g = as_element(g)
    return HeisenbergElement(-g.p, -g.q, -g.t)


def _mul_arrays(g: HeisenbergElement, p, q, t, left: bool):
    """g*(p,q,t) when left else (p,q,t)*g, vectorized over coordinate arrays."""
    if left:
        return (
            g.p + p,
            g.q + q,
            g.t + t + 0.5 * (g.p * q - g.q * p),
        )
    return (
        p + g.p,
        q + g.q,
        t + g.t + 0.5 * (p * g.q - q * g.p),
    )


def _exp_generator(i: int, s: float) -> HeisenbergElement:
    coords = [0.0, 0.0, 0.0]
    coords[i] = s
    return HeisenbergElement(*coords)


# --------------------------------------------------------------------------
# test functions: compactly supported closures with box quadrature
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HTestFunction:
    """Smooth compactly supported function given as a vectorized closure.

    evaluator takes coordinate arrays (p, q, t) and returns complex values;
    it must vanish outside support (a (3, 2) box). nodes is the per-axis
    Gauss-Legendre count, fd_step the base step for finite-difference Lie
    derivatives (one Richardson level). analytic maps (side, generator) to an
    evaluator transformer and overrides the finite differences when present.
    """

    evaluator: Callable
    support: np.ndarray
    nodes: int = DEFAULT_QUADRATURE.box_nodes
    fd_step: float = DEFAULT_QUADRATURE.fd_step
    analytic: Optional[Mapping] = field(default=None, repr=False)

    def __post_init__(self):
        box = np.asarray(self.support, dtype=float).reshape(3, 2).copy()
        box.flags.writeable = False
        object.__setattr__(self, "support", box)

    def __call__(self, g):
        g = as_element(g)
        val = self.evaluator(np.array([g.p]), np.array([g.q]), np.array([g.t]))
        return complex(np.asarray(val).ravel()[0])

    def axis_rule(self, axis: int, nodes: int | None = None):
        a, b = self.support[axis]
        return legendre_on_interval(a, b, nodes or self.nodes)

    def integral(self, nodes: int | None = None) -> complex:
        pn, pw = self.axis_rule(0, nodes)
        qn, qw = self.axis_rule(1, nodes)
        tn, tw = self.axis_rule(2, nodes)
        P, Q, T = np.meshgrid(pn, qn, tn, indexing="ij")
        vals = self.evaluator(P, Q, T)
        return complex(np.einsum("a,b,c,abc->", pw, qw, tw, vals))

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "HTestFunction") -> "HTestFunction":
        box = np.stack(
            [
                np.minimum(self.support[:, 0], other.support[:, 0]),
                np.maximum(self.support[:, 1], other.support[:, 1]),
            ],
            axis=1,
        )
        f1, f2 = self.evaluator, other.evaluator
        return HTestFunction(
            lambda p, q, t: f1(p, q, t) + f2(p, q, t),
            box,
            max(self.nodes, other.nodes),
            min(self.fd_step, other.fd_step),
        )

    def __rmul__(self, scalar) -> "HTestFunction":
        f = self.evaluator
        return replace(self, evaluator=lambda p, q, t: scalar * f(p, q, t), analytic=self.analytic)

    # -- group translations ---------------------------------------------------

    def left_translate(self, h) -> "HTestFunction":
        """(L(h) f)(g) = f(h^{-1} g)."""
        h = as_element(h)
        hinv = group_inv(h)
        f = self.evaluator

        def ev(p, q, t):
            return f(*_mul_arrays(hinv, p, q, t, left=True))

        box = _translate_box(self.support, h, left=True)
        return replace(
            self, evaluator=ev, support=box, nodes=self._sheared_nodes(box), analytic=None
        )

    def right_translate(self, h) -> "HTestFunction":
        """(R(h) f)(g) = f(g h)."""
        h = as_element(h)
        f = self.evaluator

        def ev(p, q, t):
            return f(*_mul_arrays(h, p, q, t, left=False))

        box = _translate_box(self.support, group_inv(h), left=False)
        return replace(
            self, evaluator=ev, support=box, nodes=self._sheared_nodes(box), analytic=None
        )

    def _sheared_nodes(self, new_box: np.ndarray) -> int:
        """Grow the rule with the central-axis widening caused by the shear."""
        old = self.support[2, 1] - self.support[2, 0]
        new = new_box[2, 1] - new_box[2, 0]
        ratio = new / old if old > 0 else 1.0
        return int(math.ceil(self.nodes * max(1.0, ratio)))

    # -- Lie derivatives -------------------------------------------------------

    def _derive_letter(self, evaluator, letter: int, side: str):
        if self.analytic and (side, letter) in self.analytic:
            return self.analytic[(side, letter)](evaluator)
        h = self.fd_step

        def at(s):
            # g -> f(exp(s X) g) for the left action, g -> f(g exp(s X)) for the right
            shift = _exp_generator(letter, s)
            left = side == "L"
            return lambda p, q, t: evaluator(*_mul_arrays(shift, p, q, t, left=left))

        # L(X)f(g) = d/ds f(exp(-sX) g), R(X)f(g) = d/ds f(g exp(sX)); one
        # Richardson level on the central difference.
        sgn = -1.0 if side == "L" else 1.0
        f_fwd, f_bwd = at(sgn * h), at(-sgn * h)
        f_fwd2, f_bwd2 = at(sgn * h / 2.0), at(-sgn * h / 2.0)

        def ev(p, q, t):
            d_h = (f_fwd(p, q, t) - f_bwd(p, q, t)) / (2.0 * h)
            d_h2 = (f_fwd2(p, q, t) - f_bwd2(p, q, t)) / h
            return (4.0 * d_h2 - d_h) / 3.0

        return ev

    def _derive(self, d: UEAElement, side: str) -> "HTestFunction":
        if d.structure.labels != HEISENBERG_STRUCTURE.labels:
            raise PreconditionError("expected an element over the (P, Q, Z) basis")
        parts = []
        max_deg = d.degree
        for word, c in monomial_words(d):
            ev = self.evaluator
            for letter in reversed(word):
                ev = self._derive_letter(ev, letter, side)
            parts.append((c, ev))

        def ev_total(p, q, t):
            acc = None
            for c, ev in parts:
                term = c * ev(p, q, t)
                acc = term if acc is None else acc + term
            return acc if acc is not None else np.zeros_like(p, dtype=complex)

        pad = _fd_padding(self.support, max_deg * self.fd_step)
        # derivatives sharpen the integrand; grow the rule with the order
        return replace(
            self, evaluator=ev_total, support=pad, nodes=self.nodes + 16 * max_deg, analytic=None
        )

    def left_derive(self, d: UEAElement) -> "HTestFunction":
        return self._derive(d, "L")

    def right_derive(self, d: UEAElement) -> "HTestFunction":
        return self._derive(d, "R")


def _translate_box(box: np.ndarray, h: HeisenbergElement, left: bool) -> np.ndarray:
    """Bounding box of h.box (left) or box.h^{-1} written as {g h}: see callers."""
    p0, p1 = box[0]
    q0, q1 = box[1]
    t0, t1 = box[2]
    if left:
        np0, np1 = p0 + h.p, p1 + h.p
        nq0, nq1 = q0 + h.q, q1 + h.q
        mix = 0.5 * (abs(h.p) * max(abs(q0), abs(q1)) + abs(h.q) * max(abs(p0), abs(p1)))
        nt0, nt1 = t0 + h.t - mix, t1 + h.t + mix
    else:
        # {g * h : g in box} with h already inverted by the caller
        np0, np1 = p0 + h.p, p1 + h.p
        nq0, nq1 = q0 + h.q, q1 + h.q
        mix = 0.5 * (max(abs(p0), abs(p1)) * abs(h.q) + max(abs(q0), abs(q1)) * abs(h.p))
        nt0, nt1 = t0 + h.t - mix, t1 + h.t + mix
    return np.array([[np0, np1], [nq0, nq1], [nt0, nt1]])


def _fd_padding(box: np.ndarray, h: float) -> np.ndarray:
    reach = abs(h) * (1.0 + 0.5 * float(np.max(np.abs(box[:2])) + abs(h)))
    pad = np.array([abs(h), abs(h), reach])
    return np.stack([box[:, 0] - pad, box[:, 1] + pad], axis=1)


# --------------------------------------------------------------------------
# matrix elements and the group action
# --------------------------------------------------------------------------


def _x_rule_size(x_nodes: int, rows: int, cols: int) -> int:
    """Gauss-Hermite count able to integrate degree rows+cols exactly, plus margin."""
    return max(x_nodes, (rows + cols) // 2 + 32)


def _matrix_block(
    p: float, q: float, rows: int, cols: int, x_nodes: int
) -> np.ndarray:
    """K[k, j] = <pi(p, q, 0) h_j, h_k> for k < rows, j < cols."""
    y, w = gauss_hermite_rule(_x_rule_size(x_nodes, rows, cols))
    x = y / SQRT_2PI - p / 2.0
    xp = y / SQRT_2PI + p / 2.0
    hk = hermite_scaled(x, rows - 1)
    hj = hermite_scaled(xp, cols - 1)
    osc = np.exp(2j * np.pi * q * x) * w
    scale = math.exp(-math.pi * p * p / 2.0) / SQRT_2PI
    return scale * ((hk * osc) @ hj.T)


@lru_cache(maxsize=4096)
def _matrix_block_cached(p: float, q: float, rows: int, cols: int, x_nodes: int):
    out = _matrix_block(p, q, rows, cols, x_nodes)
    out.flags.writeable = False
    return out


def matrix_element(
    g,
    j: int,
    k: int,
    x_nodes: int = DEFAULT_QUADRATURE.x_nodes,
    check: bool = DEFAULT_QUADRATURE.self_check,
    check_tol: float = DEFAULT_QUADRATURE.check_tol,
) -> complex:
    """<pi(g) h_j, h_k> by Gauss-Hermite-type quadrature, self-checked."""
    g = as_element(g)
    phase = np.exp(2j * np.pi * (g.t + g.p * g.q / 2.0))
    coarse = phase * _matrix_block_cached(g.p, g.q, k + 1, j + 1, x_nodes)[k, j]
    if check:
        fine = phase * _matrix_block_cached(g.p, g.q, k + 1, j + 1, x_nodes + 32)[k, j]
        if abs(coarse - fine) > check_tol * (1.0 + abs(fine)):
            raise QuadratureAccuracyError(
                f"matrix element ({j}, {k}) quadrature has not converged", coarse, fine
            )
    return complex(coarse)


def _input_extent(phi: CoefficientVector, minimum: int, margin: int) -> int:
    if phi.finite_support:
        return max(phi.stop, 1)
    return max(phi.stop, minimum + margin)


def _displacement_margin(f: HTestFunction, N: int, base: int) -> int:
    """Input truncation margin scaled to the support's phase-space reach.

    A group element (p, q, .) couples Hermite levels across a band of width
    about 2 sqrt(s k) + s with s = pi (p^2 + q^2) / 2, so distributions need
    that many extra columns beyond the output truncation.
    """
    pm = float(np.max(np.abs(f.support[0])))
    qm = float(np.max(np.abs(f.support[1])))
    s = math.pi * (pm * pm + qm * qm) / 2.0
    reach = int(math.ceil(2.6 * math.sqrt(s * (N + 32)) + s)) + 16
    return max(base, reach)


def act_group(
    g,
    phi: HermiteVector,
    N: int = DEFAULT_QUADRATURE.truncation,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> HermiteVector:
    """First N coefficients of pi(g) phi via the matrix of the action."""
    _require_hermite(phi)
    g = as_element(g)
    if not (phi.growth is GrowthClass.RAPID_DECAY or phi.finite_support):
        raise PreconditionError("group action needs a rapid-decay or finitely supported vector")
    if N < phi.stop and not _tail_negligible(phi, N):
        raise PreconditionError(
            f"truncation N={N} is below the stored support extent {phi.stop}"
        )
    cols = _input_extent(phi, N, quad.input_margin)
    vec = phi.dense(0, cols - 1)
    phase = np.exp(2j * np.pi * (g.t + g.p * g.q / 2.0))
    out = phase * (_matrix_block_cached(g.p, g.q, N, cols, quad.x_nodes) @ vec)
    return vector_from_prefix(IndexDomain.NATURALS, 0, out, GrowthClass.RAPID_DECAY, degree=-8.0)


def dual_act_group(
    g,
    psi: HermiteVector,
    N: int = DEFAULT_QUADRATURE.truncation,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> HermiteVector:
    """Contragredient action: (pi*(g) psi)_k = <psi, pi(g^{-1}) h_k>."""
    _require_hermite(psi)
    ginv = group_inv(as_element(g))
    rows = _input_extent(psi, N, quad.input_margin)
    vec = psi.dense(0, rows - 1)
    phase = np.exp(2j * np.pi * (ginv.t + ginv.p * ginv.q / 2.0))
    out = phase * (vec @ _matrix_block_cached(ginv.p, ginv.q, rows, N, quad.x_nodes))
    return vector_from_prefix(IndexDomain.NATURALS, 0, out, GrowthClass.RAPID_DECAY, degree=-8.0)


def _tail_negligible(phi: CoefficientVector, N: int, tol: float = 1e-14) -> bool:
    return bool(np.all(np.abs(phi.dense(N, phi.stop - 1)) < tol)) if N < phi.stop else True


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
    """Conservative envelope for pi(d) phi: each ladder step costs (1+k)^(1/2)."""
    total_c = 0.0
    max_deg = env.degree
    for alpha, c in d.sorted_terms():
        steps = alpha[0] + alpha[1]
        cc = env.constant * abs(c) * (2.0 * math.pi) ** alpha[2]
        r = env.degree
        for _ in range(steps):
            cc *= 2.0 * SQRT_PI * 2.0 ** (abs(r) + 1.0)
            r += 0.5
        total_c += cc
        max_deg = max(max_deg, r)
    return GrowthEnvelope(max(total_c, 1e-300), max_deg, env.all_orders)


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
    envelope = _algebra_envelope(d, phi.envelope)
    ladder_steps = max(
        (alpha[0] + alpha[1] for alpha, _ in d.sorted_terms()), default=0
    )
    if ladder_steps == 0:
        growth = phi.growth
    elif phi.growth is GrowthClass.RAPID_DECAY:
        growth = GrowthClass.RAPID_DECAY
    else:
        growth = GrowthClass.POLYNOMIAL_GROWTH
    return CoefficientVector(phi.domain, 0, prefix, envelope, growth, tail)


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


def _smooth_core(
    f: HTestFunction, phi_vec: np.ndarray, N: int, box_nodes: int, x_nodes: int
) -> np.ndarray:
    pn, pw = f.axis_rule(0, box_nodes)
    qn, qw = f.axis_rule(1, box_nodes)
    tn, tw = f.axis_rule(2, box_nodes)
    P, Q, T = np.meshgrid(pn, qn, tn, indexing="ij")
    vals = np.asarray(f.evaluator(P, Q, T), dtype=np.complex128)
    # central variable integrates against the pure phase exp(2 pi i t)
    f1 = vals @ (tw * np.exp(2j * np.pi * tn))

    y, w = gauss_hermite_rule(_x_rule_size(x_nodes, N, len(phi_vec)))
    base = y / SQRT_2PI
    X = base[None, :] - pn[:, None] / 2.0
    XP = base[None, :] + pn[:, None] / 2.0
    cols = len(phi_vec)
    hj = hermite_scaled(XP.ravel(), cols - 1).reshape(cols, len(pn), len(y))
    hk = hermite_scaled(X.ravel(), N - 1).reshape(N, len(pn), len(y))
    s = np.einsum("j,jai->ai", phi_vec, hj)
    osc = np.exp(2j * np.pi * np.einsum("b,ai->bai", qn, X))
    r = np.einsum("kai,bai,ai,i->kab", hk, osc, s, w, optimize=True)
    wgrid = (
        pw[:, None]
        * qw[None, :]
        * f1
        * np.exp(1j * np.pi * np.outer(pn, qn))
        * (np.exp(-np.pi * pn * pn / 2.0) / SQRT_2PI)[:, None]
    )
    return np.einsum("kab,ab->k", r, wgrid)


def smooth_by(
    f: HTestFunction,
    phi: HermiteVector,
    N: int = DEFAULT_QUADRATURE.truncation,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> HermiteVector:
    """pi(f) phi = weak integral of f(g) pi(g) phi, coefficient-wise.

    Tensor Gauss-Legendre over the support box; the result is a smooth
    (rapid-decay) vector. The computation self-checks against a finer rule
    and a longer input truncation unless disabled.
    """
    _require_hermite(phi)
    if N < 1:
        raise PreconditionError("output truncation must be at least 1")
    cols = _input_extent(phi, N, _displacement_margin(f, N, quad.input_margin))
    vec = phi.dense(0, cols - 1)
    box_nodes = f.nodes or quad.box_nodes
    out = _smooth_core(f, vec, N, box_nodes, quad.x_nodes)
    if quad.self_check:
        cols2 = cols + 24
        vec2 = phi.dense(0, cols2 - 1)
        out2 = _smooth_core(f, vec2, N, box_nodes + 8, quad.x_nodes)
        err = float(np.max(np.abs(out - out2)))
        if err > quad.check_tol * (1.0 + float(np.max(np.abs(out2)))):
            raise QuadratureAccuracyError(
                "smoothing quadrature has not converged", out, out2
            )
    return vector_from_prefix(IndexDomain.NATURALS, 0, out, GrowthClass.RAPID_DECAY, degree=-8.0)


def gmc_eval(
    phi: HermiteVector,
    psi: HermiteVector,
    f: HTestFunction,
    N: int = DEFAULT_QUADRATURE.truncation,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    abs_tol: float = 1e-12,
) -> complex:
    """<pi(f) phi, psi>: smooth phi first, then pair with psi."""
    smoothed = smooth_by(f, phi, N=N, quad=quad)
    return pair(smoothed, psi, abs_tol=abs_tol)


def fourier_wigner(
    phi: HermiteVector,
    psi: HermiteVector,
    p: float,
    q: float,
    x_nodes: int = DEFAULT_QUADRATURE.x_nodes,
    abs_tol: float = 1e-10,
    max_cols: int = 1024,
) -> complex:
    """Pointwise coefficient sum_{j,k} phi_j psi_k <pi(p,q,0) h_j, h_k>.

    psi must be rapid-decay; phi may be any class (the inner contraction
    against psi decays rapidly in j). Adaptive in the phi truncation.
    """
    _require_hermite(phi)
    _require_hermite(psi)
    if psi.growth is not GrowthClass.RAPID_DECAY:
        raise PreconditionError("pointwise evaluation needs a rapid-decay second argument")
    rows = psi.stop
    if not psi.finite_support:
        rows = _extent_for_abs_tail(psi, abs_tol / 8.0)
    psi_vec = psi.dense(0, rows - 1)
    central_phase = np.exp(1j * np.pi * p * q)

    cols = max(phi.stop, 32)
    total = 0j
    while True:
        block = _matrix_block(p, q, rows, cols, x_nodes)
        c = psi_vec @ block  # c_j = sum_k psi_k K[k, j]
        phis = phi.dense(0, cols - 1)
        total = complex(central_phase * np.sum(phis * c))
        tail_block = float(np.sum(np.abs(phis[-32:] * c[-32:])))
        if phi.finite_support and cols >= phi.stop:
            break
        if tail_block < abs_tol / 4.0:
            break
        cols *= 2
        if cols > max_cols:
            raise BudgetExceeded(
                "pointwise coefficient needs more basis columns than budgeted",
                tail_block,
            )
    return total


def _extent_for_abs_tail(v: CoefficientVector, tol: float) -> int:
    env = v.envelope
    s, c = env.degree, env.constant
    if s >= -1.0:
        from .vectors import steepen_envelope

        env = steepen_envelope(v, -3.0)
        s, c = env.degree, env.constant
    n = max(v.stop, 8)
    while c * (1.0 + n) ** (s + 1.0) / (-(s + 1.0)) > tol:
        n *= 2
        if n > (1 << 22):
            raise BudgetExceeded("tail extent exceeds budget", float("inf"))
    return n


def pointwise_coefficient(phi: HermiteVector, psi: HermiteVector) -> Callable:
    """g -> <pi(g) phi, psi> = exp(2 pi i t) * fourier_wigner(phi, psi, p, q)."""
    if psi.growth is not GrowthClass.RAPID_DECAY:
        raise PreconditionError("pointwise view requires a rapid-decay partner")

    def view(g) -> complex:
        g = as_element(g)
        central = np.exp(2j * np.pi * (g.t))
        return complex(central * fourier_wigner(phi, psi, g.p, g.q))

    return view


# --------------------------------------------------------------------------
# standard vectors
# --------------------------------------------------------------------------


def unit_vector(k: int) -> HermiteVector:
    prefix = np.zeros(k + 1, dtype=np.complex128)
    prefix[k] = 1.0
    return CoefficientVector(
        IndexDomain.NATURALS,
        0,
        prefix,
        GrowthEnvelope(1.0, 0.0, all_orders=True),
        GrowthClass.RAPID_DECAY,
    )


def dirac_delta(prefix_len: int = 64) -> HermiteVector:
    """Tempered-distribution delta at the origin: c_k = h_k(0)."""
    return CoefficientVector(
        IndexDomain.NATURALS,
        0,
        hermite_at_zero(prefix_len - 1).astype(np.complex128),
        GrowthEnvelope(1.2, 0.0),
        GrowthClass.POLYNOMIAL_GROWTH,
        Tail.formula("hermite_zero"),
    )


def gaussian_vector(sigma: float = 0.75, nmax: int = 48, x_nodes: int = 160) -> HermiteVector:
    """Hermite coefficients of the L2-normalized Gaussian of width sigma."""
    if sigma <= 0:
        raise PreconditionError("gaussian width must be positive")
    rate = math.pi * (1.0 + sigma**-2)
    y, w = gauss_hermite_rule(x_nodes)
    x = y / math.sqrt(rate)
    hs = hermite_scaled(x, nmax)
    amp = 2.0**0.25 / math.sqrt(sigma)
    coeffs = (hs @ w) * amp / math.sqrt(rate)
    coeffs[np.abs(coeffs) < 1e-300] = 0.0
    return vector_from_prefix(
        IndexDomain.NATURALS, 0, coeffs.astype(np.complex128), GrowthClass.RAPID_DECAY, degree=-8.0
    )


def poly_growth_vector(r: float, prefix_len: int = 64) -> HermiteVector:
    ks = np.arange(prefix_len)
    vals = ((1.0 + ks) ** r).astype(np.complex128)
    return CoefficientVector(
        IndexDomain.NATURALS,
        0,
        vals,
        GrowthEnvelope(1.0 + 1e-12, float(r)),
        GrowthClass.POLYNOMIAL_GROWTH,
        Tail.formula("shifted_power", float(r)),
    )


# --------------------------------------------------------------------------
# factorization through the harmonic-oscillator element
# --------------------------------------------------------------------------


def factorize_heisenberg(phi: HermiteVector) -> tuple[UEAElement, HermiteVector]:
    """phi = pi(D) u with D = (1 - (P^2+Q^2)/(4 pi))^m and u_k = phi_k/(k+3/2)^m.

    The oscillator element acts diagonally with eigenvalue k + 3/2, so the
    identity holds termwise; m = floor(r + 1/2) + 1 > r + 1/2 makes u
    square-summable.
    """
    _require_hermite(phi)
    r = phi.envelope.degree
    m = int(math.floor(r + 0.5)) + 1
    scale = -1.0 / (4.0 * math.pi)
    osc = UEAElement(
        HEISENBERG_STRUCTURE,
        {(0, 0, 0): 1.0, (2, 0, 0): scale, (0, 2, 0): scale},
    )
    D = osc**m

    ks = np.arange(phi.start, phi.stop)
    prefix = phi.prefix / (ks + 1.5) ** m
    tail = phi.tail
    if not tail.is_zero:
        tail = Tail.closure(lambda k, _b=phi.tail.fn: _b(k) / (k + 1.5) ** m)
    envelope = GrowthEnvelope(phi.envelope.constant, r - m, phi.envelope.all_orders)
    u = CoefficientVector(
        phi.domain, phi.start, prefix, envelope, GrowthClass.SQUARE_SUMMABLE, tail
    )
    return D, u


# --------------------------------------------------------------------------
# the model bundle
# --------------------------------------------------------------------------


def _haar(box: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule over a coordinate box (Haar = Lebesgue here)."""
    box = np.asarray(box, dtype=float).reshape(3, 2)
    axes = [legendre_on_interval(a, b, nodes) for a, b in box]
    P, Q, T = np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij")
    W = np.einsum("a,b,c->abc", axes[0][1], axes[1][1], axes[2][1])
    pts = np.stack([P.ravel(), Q.ravel(), T.ravel()], axis=1)
    return pts, W.ravel()


def _distance(a, b) -> float:
    a, b = as_element(a), as_element(b)
    return max(abs(a.p - b.p), abs(a.q - b.q), abs(a.t - b.t))


HEISENBERG = GroupModel(
    name="heisenberg",
    dim=3,
    structure=HEISENBERG_STRUCTURE,
    identity=IDENTITY,
    multiply=group_mul,
    inverse=group_inv,
    exp=lambda x: HeisenbergElement(*np.asarray(x, dtype=float)),
    haar=_haar,
    modular_function=lambda g: 1.0,
    act_group=act_group,
    act_algebra=act_algebra,
    dual_act_group=dual_act_group,
    dual_act_algebra=dual_act_algebra,
    smooth_by=smooth_by,
    gmc_eval=gmc_eval,
    pointwise_coefficient=pointwise_coefficient,
    factorization=factorize_heisenberg,
    distance=_distance,
)
