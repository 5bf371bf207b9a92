"""Coefficient vectors, growth envelopes, and the bilinear pairing."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmc.errors import (
    BudgetExceeded,
    EnvelopeViolation,
    PreconditionError,
    SpecParseError,
    UnpairedDistributions,
)
from gmc.vectors import (
    CoefficientVector,
    GrowthClass,
    GrowthEnvelope,
    IndexDomain,
    Tail,
    fitted_decay_exponent,
    pair,
    steepen_envelope,
    vector_from_prefix,
)
from gmc import torus as tr
from gmc.hermite import hermite_at_zero


def test_envelope_rejects_nonpositive_constant():
    with pytest.raises(ValueError):
        GrowthEnvelope(0.0, 1.0)
    with pytest.raises(ValueError):
        GrowthEnvelope(-2.0, 1.0)


def test_envelope_violation_detected_at_construction():
    with pytest.raises(EnvelopeViolation):
        CoefficientVector(
            IndexDomain.INTEGERS,
            -1,
            np.array([1.0, 5.0, 1.0]),
            GrowthEnvelope(1.0, 0.0),
            GrowthClass.POLYNOMIAL_GROWTH,
        )


def test_naturals_cannot_start_negative():
    with pytest.raises(PreconditionError):
        CoefficientVector(
            IndexDomain.NATURALS,
            -2,
            np.array([1.0]),
            GrowthEnvelope(1.0, 0.0),
            GrowthClass.RAPID_DECAY,
        )


def test_prefix_is_immutable():
    v = tr.unit(3)
    with pytest.raises(ValueError):
        v.prefix[0] = 2.0


def test_coeff_lookup_prefix_tail_and_zero():
    v = tr.comb(extent=4)
    assert v.coeff(0) == 1
    assert v.coeff(4) == 1
    assert v.coeff(100) == 1  # tail formula
    u = tr.unit(2)
    assert u.coeff(2) == 1
    assert u.coeff(3) == 0


# --- pairing ---------------------------------------------------------------


def test_pair_unit_vectors():
    assert pair(tr.unit(3), tr.unit(3)) == 1
    assert pair(tr.unit(3), tr.unit(4)) == 0


def test_pair_comb_with_exponential_decay():
    # closed-form geometric series: sum_n e^{-|n|} = (1+e^{-1})/(1-e^{-1})
    expected = (1 + math.exp(-1)) / (1 - math.exp(-1))
    got = pair(tr.comb(), tr.geometric(math.exp(-1)))
    assert abs(got - expected) < 1e-12


def test_pair_rejects_two_distributions():
    with pytest.raises(UnpairedDistributions):
        pair(tr.comb(), tr.poly(2))


def test_pair_domain_mismatch():
    from gmc import heisenberg as hb

    with pytest.raises(PreconditionError):
        pair(tr.comb(), hb.unit_vector(0))


def test_pair_budget_error_reports_bound():
    # an envelope pair whose product degree cannot certify convergence
    slow = CoefficientVector(
        IndexDomain.INTEGERS,
        0,
        np.array([1.0]),
        GrowthEnvelope(1.0, -0.8),
        GrowthClass.SQUARE_SUMMABLE,
        Tail.formula("shifted_power", -0.8),
    )
    with pytest.raises(BudgetExceeded):
        pair(tr.comb(), slow)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    beta=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**16),
)
def test_pair_bilinearity(alpha, beta, seed):
    g = np.random.default_rng(seed)
    a1 = vector_from_prefix(
        IndexDomain.INTEGERS, -5, g.normal(size=11) + 1j * g.normal(size=11),
        GrowthClass.POLYNOMIAL_GROWTH, degree=0.5,
    )
    a2 = vector_from_prefix(
        IndexDomain.INTEGERS, -5, g.normal(size=11) + 1j * g.normal(size=11),
        GrowthClass.POLYNOMIAL_GROWTH, degree=0.5,
    )
    v = tr.geometric(0.4, extent=16)
    combo = vector_from_prefix(
        IndexDomain.INTEGERS,
        -5,
        alpha * a1.prefix + beta * a2.prefix,
        GrowthClass.POLYNOMIAL_GROWTH,
        degree=0.5,
    )
    lhs = pair(combo, v)
    rhs = alpha * pair(a1, v) + beta * pair(a2, v)
    assert abs(lhs - rhs) < 1e-10


def test_pair_deterministic():
    a, v = tr.comb(), tr.geometric(0.5)
    assert pair(a, v) == pair(a, v)


def test_square_summable_cauchy():
    u = tr.inverse_quadratic(1)
    sums = u.norm_sq_partial([16, 32, 64])
    assert abs(sums[2] - sums[1]) < abs(sums[1] - sums[0])
    assert abs(sums[2] - sums[1]) < 1e-4


def test_steepen_envelope_certifies_sampled_bound():
    v = tr.geometric(0.5)
    env = steepen_envelope(v, -12.0)
    assert env.degree == -12.0
    for k in (0, 3, 10, 40):
        assert abs(v.coeff(k)) <= env.bound(k) * (1 + 1e-6)


def test_fitted_decay_exponent_on_geometric():
    v = tr.geometric(0.2, extent=24)
    assert fitted_decay_exponent(v) < -4.0


# --- serialization -----------------------------------------------------------


def test_json_round_trip():
    v = tr.geometric(0.5, extent=8)
    payload = json.loads(json.dumps(v.to_json()))
    w = CoefficientVector.from_json(payload)
    assert w.domain == v.domain and w.start == v.start
    assert np.allclose(w.prefix, v.prefix)
    assert w.coeff(30) == v.coeff(30)
    assert w.growth == v.growth
    assert w.envelope.all_orders == v.envelope.all_orders
    assert w.envelope.degree == v.envelope.degree


def test_concurrent_evaluation_is_safe():
    # pure operations on immutable values: identical results from many threads
    from concurrent.futures import ThreadPoolExecutor

    a, v = tr.comb(), tr.geometric(0.5)
    expected = pair(a, v)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: pair(a, v), range(32)))
    assert all(r == expected for r in results)


def test_json_rejects_derived_tails():
    v = tr.act_group(0.3, tr.comb())
    with pytest.raises(PreconditionError):
        v.to_json()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("envelope"),
        lambda p: p.update(index_domain="reals"),
        lambda p: p.update(coefficients=[[1.0]]),
        lambda p: p.update(tail={"name": "no_such_formula"}),
        lambda p: p.update(envelope={"constant": -1.0, "degree": 0.0}),
    ],
)
def test_json_malformed_payload_is_a_parse_error(mutate):
    payload = json.loads(json.dumps(tr.geometric(0.5, extent=4).to_json()))
    mutate(payload)
    with pytest.raises(SpecParseError):
        CoefficientVector.from_json(payload)


def test_unknown_tail_formula_is_a_parse_error():
    with pytest.raises(SpecParseError, match="nope"):
        Tail.formula("nope")


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_prefix_is_rejected(bad):
    with pytest.raises(PreconditionError, match="index 3"):
        CoefficientVector(
            IndexDomain.INTEGERS, 2, [1.0, bad], GrowthEnvelope(2.0, 0.0), GrowthClass.POLYNOMIAL_GROWTH
        )
    with pytest.raises(PreconditionError):
        vector_from_prefix(IndexDomain.NATURALS, 0, [bad, 0.5], GrowthClass.RAPID_DECAY)


def test_fitted_decay_exponent_is_minus_inf_below_three_points():
    # two usable points: decays faster than any power, the steepest possible fit
    v = vector_from_prefix(IndexDomain.INTEGERS, -1, [0.5, 1.0, 0.5], GrowthClass.RAPID_DECAY)
    assert fitted_decay_exponent(v) == -math.inf
    assert fitted_decay_exponent(tr.unit(0)) == -math.inf


# --- array reads agree exactly with single-index reads --------------------------

_FORMULA_PARAMS = {
    "const": [(2.5,)],
    "geometric": [(0.5,), (-0.7,)],
    "power": [(0.0,), (2.0,), (-1.0,), (0.5,)],
    "shifted_power": [(-0.8,), (1.5,)],
    "inv_quadratic": [(1,), (2,)],
    "hermite_zero": [()],
    "alternating": [()],
}


def _scalar_power(e):
    def fn(k):
        if k == 0:
            return 1.0 if e == 0 else 0.0
        return float(k) ** e if k > 0 or e == int(e) else abs(k) ** e

    return fn


# per-index definitions, the reference for the array-valued formulas
_SCALAR_FORMULAS = {
    "const": lambda v: lambda k: v,
    "geometric": lambda r: lambda k: r ** abs(k),
    "power": _scalar_power,
    "shifted_power": lambda e: lambda k: (1.0 + abs(k)) ** e,
    "inv_quadratic": lambda p: lambda k: (1.0 + k * k) ** (-p),
    "hermite_zero": lambda: hermite_at_zero(300).__getitem__,  # the recurrence, k <= 300
    "alternating": lambda: lambda k: (-1.0) ** k,
}


@pytest.mark.parametrize(
    "name,params", [(n, p) for n, ps in _FORMULA_PARAMS.items() for p in ps]
)
def test_array_formulas_match_scalar_definitions(name, params):
    ks = np.arange(0 if name == "hermite_zero" else -300, 301)
    got = Tail.formula(name, *params).fn(ks)
    assert got.dtype == np.complex128 and got.shape == ks.shape
    expected = np.array([_SCALAR_FORMULAS[name](*params)(int(k)) for k in ks], dtype=complex)
    # a few ulp: numpy's vector pow may round differently from the C library's
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


def _formula_vectors():
    from gmc.vectors import TAIL_FORMULAS

    assert set(_FORMULA_PARAMS) == set(TAIL_FORMULAS)
    out = []
    for name, param_sets in _FORMULA_PARAMS.items():
        for params in param_sets:
            tail = Tail.formula(name, *params)
            domains = [(IndexDomain.NATURALS, 0)]
            if name != "hermite_zero":  # h_k(0) is indexed by k >= 0 only
                domains.append((IndexDomain.INTEGERS, -3))
            for domain, start in domains:
                out.append(
                    CoefficientVector(
                        domain, start, np.full(7, 0.25 + 0.5j), GrowthEnvelope(1.0, 0.0),
                        GrowthClass.POLYNOMIAL_GROWTH, tail,
                    )
                )
    return out


def _derived_vectors():
    from gmc import heisenberg as hb
    from gmc.uea import UEAElement

    X = UEAElement.generator(tr.TORUS_STRUCTURE, "X")
    HS = hb.HEISENBERG_STRUCTURE
    P, Q, Z = (UEAElement.generator(HS, g) for g in "PQZ")
    a = tr.geometric(-0.6, extent=4)
    b = tr.poly(2, extent=4)
    phi = hb.dirac_delta(prefix_len=6)
    psi = hb.poly_growth_vector(1.5, prefix_len=5)
    return [
        tr.act_group(0.37, a),
        tr.act_algebra(X * X - 3.0 * X, b),
        tr.dual_act_algebra(X**3, a),
        tr.factorize_torus(b)[1],
        tr.project_subrep(tr.act_group(0.2, b), lambda n: n % 3 != 0),
        hb.act_algebra(P * Q - 2.0 * Z, phi),
        hb.dual_act_algebra(Q * Q * P, psi),
        hb.act_algebra(P, hb.act_algebra(Q * Q, psi)),
        hb.factorize_heisenberg(psi)[1],
    ]


_TAILED = _formula_vectors() + _derived_vectors()


@settings(max_examples=60, deadline=None)
@given(ks=st.lists(st.integers(-400, 400), min_size=1, max_size=40))
def test_array_reads_match_single_reads_exactly(ks):
    # coeff reads one index as a one-element array: every tail must act elementwise
    idx = np.array(ks)
    for v in _TAILED:
        assert not v.finite_support
        got = v.coeffs(idx)
        expected = np.array([v.coeff(k) for k in ks], dtype=np.complex128)
        assert np.array_equal(got, expected)
        assert np.array_equal(v.dense(idx.min(), idx.max()), v.coeffs(np.arange(idx.min(), idx.max() + 1)))
        if v.domain is IndexDomain.NATURALS:
            assert np.all(got[idx < 0] == 0)
