"""Normal ordering, transpose, and antipode in the enveloping algebra."""
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmc import heisenberg as hb
from gmc import torus as tr
from gmc.errors import BasisMismatch
from gmc.groups import factorize
from gmc.uea import (
    LieStructure,
    UEAElement,
    uea_antipode,
    uea_multiply,
    uea_transpose,
)
from gmc.vectors import GrowthClass, IndexDomain, vector_from_prefix

TS = tr.TORUS_STRUCTURE
HS = hb.HEISENBERG_STRUCTURE

X = UEAElement.generator(TS, "X")
P = UEAElement.generator(HS, "P")
Q = UEAElement.generator(HS, "Q")
Z = UEAElement.generator(HS, "Z")
ONE_H = UEAElement.one(HS)


def _random_element(structure, rng, degree=3, span=4):
    """Small-integer coefficients keep products exactly representable."""
    terms = {}
    for _ in range(span):
        alpha = tuple(int(rng.integers(0, degree + 1)) for _ in structure.labels)
        if sum(alpha) <= degree:
            terms[alpha] = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
    return UEAElement(structure, terms)


def test_structure_antisymmetry_enforced():
    with pytest.raises(ValueError):
        LieStructure(labels=("A", "B"), brackets={(1, 0): {0: 1.0}})


def test_bracket_lookup_is_antisymmetric():
    assert HS.bracket(0, 1) == {2: 1.0}
    assert HS.bracket(1, 0) == {2: -1.0}
    assert HS.bracket(2, 2) == {}


def test_zero_coefficients_dropped():
    e = UEAElement(HS, {(1, 0, 0): 0.0, (0, 1, 0): 2.0})
    assert (1, 0, 0) not in e.terms
    assert e.coefficient((0, 1, 0)) == 2.0


def test_basis_mismatch_raises():
    with pytest.raises(BasisMismatch):
        uea_multiply(X, P)


def test_torus_square_is_commutative():
    assert X * X == UEAElement.monomial(TS, (2,))


def test_heisenberg_qp_normal_orders_to_pq_minus_z():
    got = Q * P
    assert got == UEAElement(HS, {(1, 1, 0): 1.0, (0, 0, 1): -1.0})


def test_qp_rewrite_verified_through_representation(rng):
    """Apply QP and its normal form PQ - Z to vectors; pi(P) acts first in QP."""
    qp = Q * P
    for _ in range(10):
        vals = rng.normal(size=10) + 1j * rng.normal(size=10)
        phi = vector_from_prefix(IndexDomain.NATURALS, 0, vals, GrowthClass.RAPID_DECAY)
        direct = hb.act_algebra(Q, hb.act_algebra(P, phi))
        rewritten = hb.act_algebra(qp, phi)
        resid = max(abs(direct.coeff(k) - rewritten.coeff(k)) for k in range(14))
        assert resid < 1e-10


def test_central_factor_normal_form():
    got = P * (Q * Z)
    assert got == UEAElement(HS, {(1, 1, 1): 1.0})


def test_transpose_single_generator():
    assert uea_transpose(X) == -1.0 * X
    assert uea_transpose(X * X) == X * X


def test_transpose_heisenberg_product():
    # t(PQ) = (-Q)(-P) = QP = PQ - Z
    got = uea_transpose(P * Q)
    assert got == UEAElement(HS, {(1, 1, 0): 1.0, (0, 0, 1): -1.0})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_transpose_involution_and_antiautomorphism(seed):
    g = np.random.default_rng(seed)
    a = _random_element(HS, g)
    b = _random_element(HS, g)
    assert uea_transpose(uea_transpose(a)) == a
    assert uea_transpose(uea_multiply(a, b)) == uea_multiply(
        uea_transpose(b), uea_transpose(a)
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_normal_ordering_confluence(seed):
    g = np.random.default_rng(seed)
    a, b, c = (_random_element(HS, g, degree=2) for _ in range(3))
    left = uea_multiply(uea_multiply(a, b), c)
    right = uea_multiply(a, uea_multiply(b, c))
    assert left == right


def test_antipode_unimodular_equals_transpose():
    for e in (X, X * X):
        assert uea_antipode(e) == uea_transpose(e)
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = _random_element(HS, rng)
        assert uea_antipode(e) == uea_transpose(e)
    # float coefficients, exponents up to 3: both come from one pass, so they agree to the last bit
    for structure in (HS, TS):
        for _ in range(30):
            terms = {tuple(rng.integers(0, 4, structure.dim)): complex(*rng.normal(size=2)) for _ in range(6)}
            e = UEAElement(structure, terms)
            assert uea_antipode(e) == uea_transpose(e)


def test_transpose_on_commuting_generators_flips_signs_only():
    # an abelian structure: X^alpha reversed is X^alpha, so tX^alpha = (-1)^|alpha| X^alpha
    ab = LieStructure(labels=("X", "Y"))
    rng = np.random.default_rng(8)
    for _ in range(20):
        e = _random_element(ab, rng)
        expected = UEAElement(ab, {a: (-1) ** sum(a) * c for a, c in e.terms.items()})
        assert uea_transpose(e) == expected == uea_antipode(e)
        f = _random_element(ab, rng)
        assert uea_transpose(uea_multiply(e, f)) == uea_multiply(uea_transpose(f), uea_transpose(e))


def test_antipode_identity_and_generator():
    assert uea_antipode(ONE_H) == ONE_H
    assert uea_antipode(P) == -1.0 * P
    got = uea_antipode(P * Q)
    assert got == UEAElement(HS, {(1, 1, 0): 1.0, (0, 0, 1): -1.0})


def test_antipode_with_modular_derivative():
    # on a non-unimodular table A(X) = -X - delta(X)
    s = LieStructure(labels=("A",), delta=(2.0,))
    a = UEAElement.generator(s, "A")
    got = uea_antipode(a)
    assert got == UEAElement(s, {(1,): -1.0, (0,): -2.0})


def uea_conj_transpose(d: UEAElement) -> UEAElement:
    """Conjugate transpose: the transpose with conjugated coefficients (reference helper)."""
    t = uea_transpose(d)
    return UEAElement(t.structure, {a: c.conjugate() for a, c in t.terms.items()})


def test_conj_transpose_conjugates_coefficients():
    e = UEAElement(HS, {(1, 0, 0): 1 + 2j})
    got = uea_conj_transpose(e)
    assert got == UEAElement(HS, {(1, 0, 0): -1 + 2j})


def test_weyl_relation_through_representation(rng):
    comm = P * Q - Q * P
    assert comm == Z
    vals = rng.normal(size=12) + 1j * rng.normal(size=12)
    phi = vector_from_prefix(IndexDomain.NATURALS, 0, vals, GrowthClass.RAPID_DECAY)
    lhs = hb.act_algebra(comm, phi)
    rhs = hb.act_algebra(Z, phi)
    resid = max(abs(lhs.coeff(k) - rhs.coeff(k)) for k in range(16))
    assert resid < 1e-12


# sl2: [E, F] = H, [E, H] = -2E, [F, H] = 2F; not nilpotent, so a bracket can raise a letter
SL2 = LieStructure(labels=("E", "F", "H"), brackets={(0, 1): {2: 1.0}, (0, 2): {0: -2.0}, (1, 2): {1: 2.0}})
# the ax+b algebra, [A, B] = B, with modular derivative delta(A) = 1 (zero on [g, g])
AXB = LieStructure(labels=("A", "B"), brackets={(0, 1): {1: 1.0}}, delta=(1.0, 0.0))


def _weyl_product(alpha, beta):
    """P^b1 Q^a1 Z^c1 P^b2 Q^a2 Z^c2 from Q^a P^b = sum_k C(a,k) C(b,k) k! (-Z)^k P^(b-k) Q^(a-k)."""
    (b1, a1, c1), (b2, a2, c2) = alpha, beta
    terms = {}
    for k in range(min(a1, b2) + 1):
        terms[(b1 + b2 - k, a1 + a2 - k, c1 + c2 + k)] = (-1) ** k * math.comb(a1, k) * math.comb(b2, k) * math.factorial(k)
    return UEAElement(HS, terms)


@settings(max_examples=40, deadline=None)
@given(alpha=st.tuples(*[st.integers(0, 7)] * 3), beta=st.tuples(*[st.integers(0, 7)] * 3))
def test_heisenberg_monomial_products_match_the_weyl_closed_form(alpha, beta):
    got = uea_multiply(UEAElement.monomial(HS, alpha), UEAElement.monomial(HS, beta))
    assert got == _weyl_product(alpha, beta)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_sl2_products_are_associative_and_transposed_exactly(seed):
    g = np.random.default_rng(seed)
    a, b, c = (_random_element(SL2, g) for _ in range(3))
    assert uea_multiply(uea_multiply(a, b), c) == uea_multiply(a, uea_multiply(b, c))
    assert uea_transpose(uea_multiply(a, b)) == uea_multiply(uea_transpose(b), uea_transpose(a))
    assert uea_transpose(uea_transpose(a)) == a


def test_sl2_relation_table():
    E, F, H = (UEAElement.generator(SL2, x) for x in "EFH")
    assert F * E == E * F - H
    assert H * E == E * H + 2.0 * E
    assert H * F == F * H - 2.0 * F


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_antipode_with_a_modular_derivative_is_an_involutive_antiautomorphism(seed):
    g = np.random.default_rng(seed)
    a, b = _random_element(AXB, g), _random_element(AXB, g)
    assert uea_antipode(uea_multiply(a, b)) == uea_multiply(uea_antipode(b), uea_antipode(a))
    assert uea_antipode(uea_antipode(a)) == a
    A = UEAElement.generator(AXB, "A")
    assert uea_antipode(A) == UEAElement(AXB, {(1, 0): -1.0, (0, 0): -1.0}) != uea_transpose(A)


def test_high_laplacian_powers_are_fast():
    # the bubble-rewrite took 15.5 s for L^20 and did not finish L^30 in 100 s
    t0 = time.perf_counter()
    L20 = hb.HEISENBERG.laplacian.element**20
    assert time.perf_counter() - t0 < 1.0
    assert len(L20.terms) == 1661
    t0 = time.perf_counter()
    D, u = factorize(hb.poly_growth_vector(30.0), hb.HEISENBERG)
    assert time.perf_counter() - t0 < 5.0
    assert D.degree == 62


@pytest.mark.parametrize("k", [1000, 5000])
def test_moving_a_letter_across_a_long_run_needs_no_deep_stack(k):
    # Q^k P = P Q^k - k Q^(k-1) Z on a structure with no products kept yet; a rewrite
    # that recursed once per moved letter overflowed the interpreter's stack at k = 1000
    fresh = LieStructure(HS.labels, HS.brackets, HS.delta)
    got = UEAElement.monomial(fresh, (0, k, 0)) * UEAElement.generator(fresh, "P")
    assert got == UEAElement(fresh, {(1, k, 0): 1.0, (0, k - 1, 1): -k})


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: LieStructure(labels=("A", "B"), delta=(1.0,)), ValueError),
        (lambda: LieStructure(labels=("A",), brackets={(0, 3): {0: 1.0}}), ValueError),
        (lambda: HS.index("W"), KeyError),
        (lambda: UEAElement(HS, {(1, 0): 1.0}), ValueError),
        (lambda: UEAElement(HS, {(1, -1, 0): 1.0}), ValueError),
        (lambda: P ** -1, ValueError),
    ],
    ids=["delta-length", "bracket-index", "unknown-label", "multi-index-length", "negative-exponent", "negative-power"],
)
def test_malformed_structures_and_elements_raise(call, error):
    with pytest.raises(error):
        call()
