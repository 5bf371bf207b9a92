"""Group-model bundles: laws, modular data, generic factorization dispatch."""
import numpy as np
import pytest

from gmc import heisenberg as hb
from gmc import torus as tr
from gmc.errors import PreconditionError, UnsupportedOperation
from gmc.groups import GroupModel, factorize
from gmc.uea import LieStructure, UEAElement
from gmc.vectors import CoefficientVector, GrowthClass, GrowthEnvelope, IndexDomain


def _gap(a, b) -> float:
    return max(abs(a.p - b.p), abs(a.q - b.q), abs(a.t - b.t))


def test_torus_inverse(rng):
    for s in rng.uniform(-1.0, 1.0, 32):
        assert s + tr.TORUS.inverse(s) == 0.0


def test_heisenberg_group_law_and_inverse(rng):
    worst_assoc, worst_inv = 0.0, 0.0
    for _ in range(32):
        g, h, k = (hb.HeisenbergElement(*rng.uniform(-1.0, 1.0, 3)) for _ in range(3))
        lhs, rhs = hb.group_mul(hb.group_mul(g, h), k), hb.group_mul(g, hb.group_mul(h, k))
        worst_assoc = max(worst_assoc, _gap(lhs, rhs))
        g_inv = hb.HEISENBERG.inverse(g)
        assert g_inv == hb.group_inv(g)
        for e in (hb.group_mul(g, g_inv), hb.group_mul(g_inv, g)):
            worst_inv = max(worst_inv, _gap(e, hb.IDENTITY))
    assert worst_assoc < 1e-14
    assert worst_inv < 1e-15


def test_heisenberg_basic_products():
    g = hb.group_mul((1, 0, 0), (0, 1, 0))
    assert (g.p, g.q, g.t) == (1.0, 1.0, 0.5)
    e = hb.group_mul(g, hb.group_inv(g))
    assert _gap(e, hb.IDENTITY) == 0
    assert hb.group_mul(g, hb.IDENTITY) == g


def test_modular_function_is_one():
    # both models are unimodular: the differential of the modular function vanishes
    assert tr.TORUS.structure.delta == (0.0,)
    assert hb.HEISENBERG.structure.delta == (0.0, 0.0, 0.0)


def test_factorize_dispatch_trivial_for_smooth():
    v = tr.geometric(0.5)
    D, u = factorize(v, tr.TORUS)
    assert D == UEAElement.one(tr.TORUS_STRUCTURE)
    assert u is v


def test_factorize_dispatch_uses_model_strategy():
    a = tr.poly(2)
    D, u = factorize(a, tr.TORUS)
    assert u.growth is GrowthClass.SQUARE_SUMMABLE
    assert D.degree == 4  # (1 - X^2/4pi^2)^2


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_factorize_heisenberg_oscillator(r):
    phi = hb.poly_growth_vector(float(r))
    D, u = factorize(phi, hb.HEISENBERG)
    assert u.growth is GrowthClass.SQUARE_SUMMABLE
    out = hb.act_algebra(D, u)
    for k in range(60):
        expected = phi.coeff(k)
        assert abs(out.coeff(k) - expected) / abs(expected) < 1e-12
    extent = u.cauchy_extent(1e-8)
    assert u.l2_tail_bound(extent) < 1e-8


def test_factorize_without_strategy_errors():
    bare = GroupModel(name="bare", structure=LieStructure(labels=("X",)), inverse=lambda a: -a)
    with pytest.raises(UnsupportedOperation):
        factorize(tr.poly(1), bare)


@pytest.mark.parametrize("model", [tr.TORUS, hb.HEISENBERG], ids=lambda m: m.name)
def test_laplacian_eigenvalues_meet_their_stated_bound(model):
    # u's envelope is checked only on its stored prefix, so lambda(k) >= (1+|k|)^s / c
    # is what certifies the tail of a factorization
    lap = model.laplacian
    big = np.array([2**20, 2**40], dtype=np.int64)
    if lap.domain is IndexDomain.INTEGERS:
        ks = np.concatenate([np.arange(-1000, 1001), big, -big])
    else:
        ks = np.concatenate([np.arange(0, 1001), big])
    assert np.all(lap.eigenvalue(ks) >= (1.0 + np.abs(ks)) ** lap.order / lap.constant)


@pytest.mark.parametrize("model", [tr.TORUS, hb.HEISENBERG], ids=lambda m: m.name)
def test_laplacian_element_acts_by_its_eigenvalue(model):
    lap = model.laplacian
    act, unit = (tr.act_algebra, tr.unit) if model is tr.TORUS else (hb.act_algebra, hb.unit_vector)
    for k in range(12):
        ks = np.arange(k - 4, k + 5)
        expected = np.where(ks == k, lap.eigenvalue(np.array([k]))[0], 0.0)
        assert np.allclose(act(lap.element, unit(k)).coeffs(ks), expected, rtol=1e-13, atol=1e-13)


def test_factorize_past_the_float_range_is_a_typed_error():
    # m = 1051 and c = 2: 2^1051 is past the float range, and D is never built
    v = CoefficientVector(IndexDomain.INTEGERS, 0, [1.0], GrowthEnvelope(1.0, 2100.0))
    with pytest.raises(PreconditionError, match="degree 2100"):
        factorize(v, tr.TORUS)


def test_factorize_refuses_a_vector_of_the_other_model():
    with pytest.raises(PreconditionError, match="integers"):
        factorize(hb.poly_growth_vector(1.0), tr.TORUS)
    with pytest.raises(PreconditionError, match="naturals"):
        factorize(tr.poly(1), hb.HEISENBERG)


@pytest.mark.parametrize("model", [tr.TORUS, hb.HEISENBERG], ids=lambda m: m.name)
def test_factorize_keeps_the_envelope_ratio(model):
    # a polynomial-growth envelope with ratio below 1 keeps it through the division
    lap = model.laplacian
    start = -3 if lap.domain is IndexDomain.INTEGERS else 0
    ks = np.arange(start, 60)
    values = (1.0 + np.abs(ks)) * 0.9 ** np.abs(ks)
    _, u = factorize(CoefficientVector(lap.domain, start, values, GrowthEnvelope(1.0, 1.0, ratio=0.9)), model)
    assert u.envelope.ratio == 0.9 and u.growth is GrowthClass.SQUARE_SUMMABLE
    assert np.all(np.abs(u.prefix) <= u.envelope.bound(ks) * (1 + 1e-12))
