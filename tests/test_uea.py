"""Normal ordering, transpose, and antipode in the enveloping algebra."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmc import heisenberg as hb
from gmc import torus as tr
from gmc.errors import BasisMismatch
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
