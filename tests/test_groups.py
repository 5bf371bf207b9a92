"""Group-model bundles: laws, modular data, generic factorization dispatch."""
import pytest

from gmc import heisenberg as hb
from gmc import torus as tr
from gmc.errors import UnsupportedOperation
from gmc.groups import GroupModel, factorize
from gmc.uea import LieStructure, UEAElement
from gmc.vectors import GrowthClass


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
