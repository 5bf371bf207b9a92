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
    GmcError,
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
from gmc.groups import factorize
from gmc.hermite import hermite_at_zero


def test_envelope_rejects_nonpositive_constant():
    with pytest.raises(ValueError):
        GrowthEnvelope(0.0, 1.0)
    with pytest.raises(ValueError):
        GrowthEnvelope(-2.0, 1.0)


@pytest.mark.parametrize("degree", [math.inf, -math.inf, math.nan])
def test_envelope_rejects_a_non_finite_degree(degree):
    with pytest.raises(ValueError, match="degree must be finite"):
        GrowthEnvelope(1.0, degree)


def test_envelope_violation_detected_at_construction():
    with pytest.raises(EnvelopeViolation):
        CoefficientVector(
            IndexDomain.INTEGERS,
            -1,
            np.array([1.0, 5.0, 1.0]),
            GrowthEnvelope(1.0, 0.0),
        )


def test_naturals_cannot_start_negative():
    with pytest.raises(PreconditionError):
        CoefficientVector(
            IndexDomain.NATURALS,
            -2,
            np.array([1.0]),
            GrowthEnvelope(1.0, 0.0, all_orders=True),
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


def test_pair_reads_only_the_finite_support():
    # a sum over [-2^62, 2^62] would not finish; the overlap with the support is one term
    assert pair(tr.unit(2**62), tr.comb()) == 1
    assert pair(tr.comb(), tr.unit(-(2**62))) == 1
    assert pair(tr.unit(5), tr.unit(-5)) == 0
    with pytest.raises(PreconditionError):
        tr.unit(2**62 + 1)


def test_pair_comb_with_exponential_decay():
    # closed-form geometric series: sum_n e^{-|n|} = (1+e^{-1})/(1-e^{-1})
    expected = (1 + math.exp(-1)) / (1 - math.exp(-1))
    got = pair(tr.comb(), tr.geometric(math.exp(-1)))
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize(
    "ratio,abs_tol",
    [(0.995, 4.04e22), (0.99, 7.71e21), (0.9, 1e-6), (0.5, 1e-12)],
)
def test_pair_poly_with_geometric_matches_the_polylog(ratio, abs_tol):
    # sum_{n != 0} n^8 r^|n| = 2 Li_{-8}(r). A sampled steepening missed the peak of
    # (1+n)^10.5 r^n (at n ~ 2,100 for r = 0.995), and a polynomial bound alone could
    # not certify r = 0.9 or 0.5 within 2^21 terms
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(2 * mpmath.polylog(-8, mpmath.mpf(ratio)))
    got = pair(tr.poly(8), tr.geometric(ratio), abs_tol=abs_tol)
    assert abs(got - exact) <= abs_tol + 1e-13 * abs(exact)


def test_pair_past_the_float_range_is_a_typed_error():
    # poly(170) against 0.5^|n|: the steepened constant at degree -172 is e^777
    with pytest.raises(BudgetExceeded, match="leaves the float range"):
        pair(tr.poly(170), tr.geometric(0.5))


@pytest.mark.parametrize("ratio", [0.5, -0.5, 0.9, 0.995, 1e-3, -0.999])
def test_geometric_tail_equals_pow_bit_for_bit(ratio):
    # the zeros past the underflow are written, not computed, with pow's sign of zero
    k = np.arange(-200_000, 200_001)
    want = (ratio ** np.abs(k).astype(float)).astype(np.complex128)
    assert Tail.formula("geometric", ratio).fn(k).tobytes() == want.tobytes()


def test_geometric_ratio_shortens_the_pointwise_extent(monkeypatch):
    # |n^2 0.7^n| past n = 128 sums below 1e-12; the degree -8 bound alone needed 8192
    seen = []
    dense = CoefficientVector.dense

    def spy(self, lo, hi):
        seen.append(hi)
        return dense(self, lo, hi)

    monkeypatch.setattr(CoefficientVector, "dense", spy)
    pair(tr.act_group(0.3, tr.poly(2)), tr.geometric(0.7))
    assert seen[-1] == 128


def _tailed_payload(tail, envelope, index_domain="integers"):
    return {
        "index_domain": index_domain, "start": 0, "coefficients": [[1.0, 0.0]],
        "tail": tail, "envelope": envelope,
    }


@pytest.mark.parametrize(
    "tail,envelope",
    [
        # 0.999^k breaks (1+k)^-4 from k = 1 on: paired with 1 it read 241.17, not 1999
        ({"name": "geometric", "params": [0.999]}, {"constant": 1.0, "degree": -4.0}),
        # a tail that does not decay, claimed to all orders
        ({"name": "const", "params": [1.0]}, {"constant": 1.0, "degree": 0.0, "all_orders": True}),
        ({"name": "const", "params": [1.0]}, {"constant": 1.0, "degree": 0.0, "all_orders": True, "ratio": 0.5}),
        # a ratio of 1 or more
        ({"name": "geometric", "params": [1.0]}, {"constant": 1.0, "degree": 0.0}),
        ({"name": "geometric", "params": [-1.5]}, {"constant": 1.0, "degree": 0.0}),
        ({"name": "zero"}, {"constant": 1.0, "degree": 0.0, "ratio": 1.5}),
        # a stated ratio below the formula's
        ({"name": "geometric", "params": [0.9]}, {"constant": 1.0, "degree": 0.0, "all_orders": True, "ratio": 0.8}),
    ],
)
def test_json_envelope_must_bound_its_tail_formula(tail, envelope):
    with pytest.raises(SpecParseError):
        CoefficientVector.from_json(_tailed_payload(tail, envelope))


def test_json_envelope_above_its_tail_formula_is_accepted():
    # a looser constant, a higher degree or a ratio closer to 1 still bounds the formula
    for envelope in (
        {"constant": 1.0, "degree": 0.0, "all_orders": True, "ratio": 0.9},
        {"constant": 3.0, "degree": 2.0, "all_orders": True, "ratio": 0.95},
        {"constant": 1.0, "degree": 0.0},
    ):
        v = CoefficientVector.from_json(_tailed_payload({"name": "geometric", "params": [0.9]}, envelope))
        assert v.envelope.ratio == envelope.get("ratio", 1.0)


def test_an_infinite_vector_claims_all_orders_only_below_ratio_one():
    tail = Tail.formula("shifted_power", -3.0)
    with pytest.raises(PreconditionError, match="ratio below 1"):
        CoefficientVector(IndexDomain.NATURALS, 0, [1.0], GrowthEnvelope(1.0, -3.0, all_orders=True), tail)
    # a finitely supported vector needs no ratio
    finite = CoefficientVector(IndexDomain.NATURALS, 0, [1.0], GrowthEnvelope(1.0, 0.0, True))
    assert finite.growth is GrowthClass.RAPID_DECAY
    with pytest.raises(ValueError):
        GrowthEnvelope(1.0, 0.0, True, 0.0)


def test_envelope_bound_neither_underflows_nor_warns():
    # 1e200 (1+k)^-8 0.5^k at k = 1500 is about 1e-275, while 0.5^1500 alone underflows
    env = GrowthEnvelope(1e200, -8.0, True, 0.5)
    expected = 1e200 * 2.0**-800 * 2.0**-700 * 1501.0**-8  # staged, so no factor underflows
    assert 1e-278 < expected < 1e-276
    assert env.bound(1500) == pytest.approx(expected, rel=1e-12)
    v = CoefficientVector(IndexDomain.NATURALS, 1500, [1e-280], env)
    assert v.envelope is env
    # a bound past the float range is inf, with no overflow warning, at either ratio
    for ratio in (1.0, 0.999):
        far = GrowthEnvelope(1e300, 50.0, False, ratio)
        assert far.bound(1000) == math.inf
        assert CoefficientVector(IndexDomain.NATURALS, 1000, [1.0], far).envelope is far


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


def test_steepen_envelope_certifies_closed_form_bound():
    # the constant is the peak of (1+k)^12 0.5^k, at k = 12 / log 2 - 1 = 16.3, times the
    # slack 1 + 1e-9: it bounds every coefficient
    v = tr.geometric(0.5)
    env = steepen_envelope(v, -12.0)
    assert env.degree == -12.0 and env.all_orders
    ks = np.arange(-10**5, 10**5 + 1)
    ratios = np.abs(v.coeffs(ks)) * (1.0 + np.abs(ks)) ** 12.0
    assert np.all(ratios <= env.constant)
    assert env.constant == pytest.approx(ratios.max() * (1 + 1e-9), rel=1e-12)
    # past a start beyond the peak the constant is the value at the start
    late = steepen_envelope(v, -12.0, start=100)
    assert late.constant == pytest.approx(101.0**12 * 0.5**100 * (1 + 1e-9), rel=1e-12)
    assert np.all(ratios[np.abs(ks) >= 100] <= late.constant)



@pytest.mark.parametrize("domain", ["circle", "heisenberg"])
def test_l2_tail_bound_of_a_finite_all_orders_vector_inside_its_support(domain):
    # steepen_envelope's finite branch: the largest stored |c_k| (1+|k|) past the extent
    from gmc import heisenberg as hb
    from gmc import mollify as mo

    if domain == "circle":
        v = mo.mollify(tr.comb(), 4, tr.TORUS)
    else:
        v = hb.smooth_by(mo.standard_mollifier(hb.HEISENBERG, 2, 0.8), hb.dirac_delta())
    assert v.finite_support and v.envelope.all_orders
    ks = np.arange(v.start, v.stop)
    for extent in (0, 3, 10, 30):
        assert extent < max(abs(v.start), abs(v.stop - 1))
        exact = math.fsum(np.abs(v.prefix[np.abs(ks) > extent]) ** 2)
        assert 0.0 < exact <= v.l2_tail_bound(extent)


def test_steepen_envelope_refuses_a_vector_not_claiming_all_orders():
    v = CoefficientVector(IndexDomain.NATURALS, 0, np.ones(4), GrowthEnvelope(1.0, 0.0))
    with pytest.raises(PreconditionError, match="only all-orders"):
        steepen_envelope(v, -1.0)

def test_cauchy_extent_of_a_geometric_vector_reads_its_ratio():
    # the envelope (1, 0, ratio 0.5) bounds no L2 tail by its degree; steepened past the
    # extent to degree -1 it certifies the first probe, as the degree -8 envelope did
    v = tr.geometric(0.5)
    n = v.cauchy_extent(1e-12)
    assert n == 64
    assert 2 * math.fsum(0.25**k for k in range(n + 1, 400)) <= v.l2_tail_bound(n) <= 1e-12


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
    assert w.envelope == v.envelope and w.envelope.ratio == 0.5


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
            IndexDomain.INTEGERS, 2, [1.0, bad], GrowthEnvelope(2.0, 0.0)
        )
    with pytest.raises(PreconditionError):
        vector_from_prefix(IndexDomain.NATURALS, 0, [bad, 0.5], GrowthClass.RAPID_DECAY)


def test_construction_messages_name_the_first_offender():
    env = GrowthEnvelope(2.0, 0.0)
    # finiteness is checked before the envelope, and the first offender is named
    with pytest.raises(PreconditionError, match=r"^coefficient at index 4 is not finite$"):
        CoefficientVector(IndexDomain.INTEGERS, 2, [1.0, 5.0, math.nan, math.inf], env)
    with pytest.raises(EnvelopeViolation) as err:
        CoefficientVector(IndexDomain.INTEGERS, -1, [1.0, 2.5, 1.0, 9.0], env)
    assert str(err.value) == "coefficient at index 0 has |c|=2.500000e+00, envelope allows 2.000000e+00"
    # a finite coefficient whose modulus overflows breaks the envelope, not finiteness
    with pytest.raises(EnvelopeViolation, match=r"index 1 has \|c\|=inf"):
        CoefficientVector(IndexDomain.INTEGERS, 0, [1.0, complex(1.5e308, 1.5e308)], env)


def test_pairing_past_the_float_range_is_a_typed_error():
    big = vector_from_prefix(IndexDomain.INTEGERS, 0, [1e300], GrowthClass.POLYNOMIAL_GROWTH)
    with pytest.raises(PreconditionError):
        pair(big, vector_from_prefix(IndexDomain.INTEGERS, 0, [1e300], GrowthClass.RAPID_DECAY))
    three = vector_from_prefix(IndexDomain.INTEGERS, 0, [1e300] * 3, GrowthClass.POLYNOMIAL_GROWTH)
    with pytest.raises(PreconditionError):
        pair(three, vector_from_prefix(IndexDomain.INTEGERS, 0, [1e8] * 3, GrowthClass.RAPID_DECAY))


def test_dense_reads_match_element_reads():
    from gmc import heisenberg as hb

    rng = np.random.default_rng(11)
    vectors = [
        vector_from_prefix(IndexDomain.INTEGERS, -5, rng.normal(size=11) + 1j, GrowthClass.POLYNOMIAL_GROWTH),
        vector_from_prefix(IndexDomain.NATURALS, 3, rng.normal(size=6) + 0j, GrowthClass.RAPID_DECAY),
        tr.geometric(-0.4, extent=6),
        hb.dirac_delta(20),
    ]
    for v in vectors:
        # runs inside the prefix, runs leaving it on either side, empty runs, indices below 0
        runs = [(v.start, v.stop - 1), (v.start + 1, v.stop - 2), (v.start - 4, v.start + 2)]
        runs += [(v.stop - 2, v.stop + 3), (v.start + 2, v.start + 1), (-9, -2)]
        for lo, hi in runs:
            got = v.dense(lo, hi)
            assert got.tobytes() == np.array([v.coeff(k) for k in range(lo, hi + 1)], np.complex128).tobytes()
            assert got.flags.writeable and not np.shares_memory(got, v.prefix)
        ks = np.array([[v.start - 2, v.start], [v.stop - 1, v.stop + 1]])
        assert np.array_equal(v.coeffs(ks), np.array([[v.coeff(k) for k in row] for row in ks]))


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
                        domain, start, np.full(7, 0.25 + 0.5j), GrowthEnvelope(1.0, 0.0), tail,
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
        factorize(b, tr.TORUS)[1],
        tr.project_subrep(tr.act_group(0.2, b), lambda n: n % 3 != 0),
        hb.act_algebra(P * Q - 2.0 * Z, phi),
        hb.dual_act_algebra(Q * Q * P, psi),
        hb.act_algebra(P, hb.act_algebra(Q * Q, psi)),
        factorize(psi, hb.HEISENBERG)[1],
        # |k + 1/2| <= 1 + |k|: one more degree, the same ratio
        a.map(lambda c, k: c * (k + 0.5), GrowthEnvelope(1.0, 1.0, True, 0.6)),
        b.map(lambda c, k: np.where(k % 2 == 0, c, -c)),
        phi.map(lambda c, k: np.conj(c) * k, GrowthEnvelope(1.2, 1.0)),
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


_SOUNDNESS_PARAMS = dict(
    _FORMULA_PARAMS,
    const=[(2.5,), (-0.3 + 0.4j,), (0.0,)],
    geometric=[(0.5,), (-0.7,), (0.999,), (1e-3,)],
    power=[(0.0,), (2.0,), (-1.0,), (0.5,), (-2.5,), (7.0,)],
    inv_quadratic=[(0,), (1,), (2,)],
)


@pytest.mark.parametrize("name,params", [(n, p) for n, ps in _SOUNDNESS_PARAMS.items() for p in ps])
def test_formula_envelopes_bound_their_formulas(name, params):
    # each formula's own envelope holds at every |k| up to 10^5, which holds the peak of
    # |c_k| for every formula here, and at indices out to 2^62
    tail = Tail.formula(name, *params)
    lo = 0 if name == "hermite_zero" else -(10**5)
    ks = np.concatenate([np.arange(lo, 10**5 + 1), [10**9, 10**15, 2**62]])
    assert np.all(np.abs(tail.fn(ks)) <= tail.envelope.bound(ks) * (1 + 1e-12))


@pytest.mark.parametrize("power", [-1, -3])
def test_inverse_quadratic_envelope_holds_for_negative_powers(power):
    # (1+k^2)^|p| <= (1+|k|)^(2|p|): constant 1, where 2^p broke the bound at k = 0
    tail = Tail.formula("inv_quadratic", power)
    ks = np.concatenate([np.arange(-(10**4), 10**4 + 1), [10**9, -(10**15)]])
    assert np.all(np.abs(tail.fn(ks)) <= tail.envelope.bound(ks) * (1 + 1e-12))
    assert tr.inverse_quadratic(power).envelope == tail.envelope


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Tail.formula("power", -2000.0), "power formula of degree -2000 "),
        (lambda: Tail.formula("inv_quadratic", 1100), "inv_quadratic formula of degree -2200 "),
        (lambda: tr.inverse_quadratic(2000), "inv_quadratic formula of degree -4000 "),
    ],
    ids=["power", "inv_quadratic", "torus-inverse_quadratic"],
)
def test_envelope_constant_past_the_float_range_is_a_typed_error(make, message):
    with pytest.raises(PreconditionError, match=message):
        make()


def test_json_envelope_constant_past_the_float_range_is_a_parse_error():
    payload = {
        "index_domain": "integers", "start": 0, "coefficients": [[0.0, 0.0]],
        "tail": {"name": "power", "params": [-2000.0]},
        "envelope": {"constant": 1.0, "degree": -2000.0},
    }
    with pytest.raises(SpecParseError, match="power formula of degree -2000"):
        CoefficientVector.from_json(payload)



@pytest.mark.parametrize(
    "name, param",
    [
        ("power", math.inf), ("power", math.nan),
        ("shifted_power", math.inf), ("shifted_power", math.nan),
        ("const", math.inf), ("const", math.nan),
    ],
)
def test_non_finite_tail_parameter_is_a_typed_error_naming_the_formula(name, param):
    with pytest.raises(PreconditionError, match=f"the {name} formula needs finite parameters"):
        Tail.formula(name, param)


def test_json_non_finite_tail_parameter_is_a_parse_error():
    payload = {
        "index_domain": "integers", "start": 0, "coefficients": [[0.0, 0.0]],
        "tail": {"name": "shifted_power", "params": [math.nan]},
        "envelope": {"constant": 1.0, "degree": 0.0},
    }
    with pytest.raises(SpecParseError, match="shifted_power formula needs finite parameters"):
        CoefficientVector.from_json(json.loads(json.dumps(payload)))

def _rapid_decay_inputs(domain, rho):
    """A geometric vector under its formula's envelope, and a JSON payload whose prefix
    sits near a looser stated envelope (1.5, 1, all orders, rho)."""
    start = -3 if domain is IndexDomain.INTEGERS else 0
    ks = np.arange(start, 4)
    tail = Tail.formula("geometric", rho)
    prefix = 1.4 * (1.0 + np.abs(ks)) * rho ** np.abs(ks) * np.exp(1j * ks)
    payload = {
        "index_domain": domain.value, "start": start,
        "coefficients": [[c.real, c.imag] for c in prefix],
        "tail": {"name": "geometric", "params": [rho]},
        "envelope": {"constant": 1.5, "degree": 1.0, "all_orders": True, "ratio": rho},
    }
    own = CoefficientVector(domain, start, tail.fn(ks), tail.envelope, tail)
    return [own, CoefficientVector.from_json(json.loads(json.dumps(payload)))]


def _assert_envelope_holds(v, ks):
    mags, bounds = np.abs(v.coeffs(ks)), v.envelope.bound(ks)
    assert np.all(mags <= bounds * (1 + 1e-12)), int(ks[np.argmax(mags - bounds)])


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.999])
def test_operator_envelopes_bound_their_outputs(rho):
    from gmc import heisenberg as hb
    from gmc.uea import UEAElement

    X = UEAElement.generator(tr.TORUS_STRUCTURE, "X")
    P, Q, Z = (UEAElement.generator(hb.HEISENBERG_STRUCTURE, g) for g in "PQZ")
    for a in _rapid_decay_inputs(IndexDomain.INTEGERS, rho):
        for out in (
            tr.act_algebra(X * X - 3.0 * X, a),
            tr.dual_act_algebra(X**3, a),
            factorize(a, tr.TORUS)[1],
            tr.project_subrep(a, lambda n: n % 3 != 0),
        ):
            assert out.envelope.ratio == rho and out.growth is GrowthClass.RAPID_DECAY
            _assert_envelope_holds(out, np.arange(-900, 901))
    for phi in _rapid_decay_inputs(IndexDomain.NATURALS, rho):
        for out in (
            hb.act_algebra(P, phi),
            hb.act_algebra(P * Q - 2.0 * Z, phi),
            hb.act_algebra(Q * Q * P, phi),
            factorize(phi, hb.HEISENBERG)[1],
        ):
            assert out.envelope.ratio == rho and out.growth is GrowthClass.RAPID_DECAY
            _assert_envelope_holds(out, np.arange(0, 901))


def test_factorizing_a_square_summable_vector_takes_no_derivative():
    # an envelope degree below -1/2 gives D = 1 and u = phi; it asked for a negative
    # power of the algebra element (a ValueError) for the gauss vector and smoothed outputs
    from gmc import heisenberg as hb

    for model, phi in (
        (hb.HEISENBERG, hb.gaussian_vector()),
        (tr.TORUS, tr.smooth_by(tr.band(3), tr.comb())),
        (tr.TORUS, tr.inverse_quadratic(2)),
    ):
        D, u = factorize(phi, model)
        assert list(D.sorted_terms()) == list(D.one(D.structure).sorted_terms())
        assert u.envelope.degree == phi.envelope.degree and u.prefix.tobytes() == phi.prefix.tobytes()


def _formula_constructors():
    from gmc import heisenberg as hb

    return {
        "comb": tr.comb(),
        "poly-0": tr.poly(0),
        "poly-3": tr.poly(3),
        "geometric-0.5": tr.geometric(0.5),
        "geometric-neg": tr.geometric(-0.3),
        "inverse-quadratic": tr.inverse_quadratic(2),
        "alternating": tr.alternating(),
        "delta": hb.dirac_delta(),
        "delta-700": hb.dirac_delta(700),
        "poly-growth": hb.poly_growth_vector(1.5),
    }


@pytest.mark.parametrize("name", list(_formula_constructors()))
def test_formula_constructors_store_their_tail_formula(name):
    # the prefix is the tail formula on the stored indices, bit for bit
    v = _formula_constructors()[name]
    assert not v.finite_support
    assert v.prefix.tobytes() == v.tail.fn(np.arange(v.start, v.stop)).tobytes()


def test_map_applies_one_function_to_prefix_and_tail():
    a = tr.geometric(-0.6, extent=4)
    fn = lambda c, k: c * np.exp(0.3j * k) / (2.0 + k * k)
    mapped = a.map(fn)
    assert (mapped.start, mapped.stop) == (a.start, a.stop)
    assert mapped.envelope == a.envelope and mapped.growth is a.growth
    ks = np.arange(-40, 41)
    assert mapped.coeffs(ks).tobytes() == fn(a.coeffs(ks), ks).tobytes()
    # a given envelope replaces the old one, and its class is the mapped vector's
    env = GrowthEnvelope(a.envelope.constant, a.envelope.degree - 2.0)
    moved = a.map(fn, env)
    assert moved.envelope == env and moved.growth is GrowthClass.SQUARE_SUMMABLE
    assert vector_from_prefix(IndexDomain.INTEGERS, 0, [1.0], GrowthClass.RAPID_DECAY).map(fn).finite_support


def test_project_subrep_reads_its_predicate_on_index_arrays():
    seen = []

    def keep(k):
        seen.append(type(k))
        return k % 3 == 1

    v = tr.project_subrep(tr.poly(2, extent=5), keep)
    ks = np.arange(-30, 31)
    assert np.array_equal(v.coeffs(ks), np.where(ks % 3 == 1, ks.astype(float) ** 2, 0.0))
    assert seen and all(t is np.ndarray for t in seen)


# --- growth class from the envelope ------------------------------------------------


def test_growth_class_is_read_off_the_envelope():
    below, above = math.nextafter(-0.5, -math.inf), math.nextafter(-0.5, math.inf)
    assert GrowthEnvelope(1.0, below).growth is GrowthClass.SQUARE_SUMMABLE
    assert GrowthEnvelope(1.0, -0.5).growth is GrowthClass.POLYNOMIAL_GROWTH
    assert GrowthEnvelope(1.0, above).growth is GrowthClass.POLYNOMIAL_GROWTH
    for degree in (below, -0.5, above, -8.0, 3.0):
        assert GrowthEnvelope(1.0, degree, all_orders=True).growth is GrowthClass.RAPID_DECAY
    v = CoefficientVector(IndexDomain.INTEGERS, 0, [1.0], GrowthEnvelope(1.0, below))
    assert v.growth is v.envelope.growth is GrowthClass.SQUARE_SUMMABLE


def test_vector_from_prefix_refuses_a_degree_of_another_class():
    vals = [1.0, 0.5, 0.25]
    for growth, degree in [
        (GrowthClass.POLYNOMIAL_GROWTH, -1.0),
        (GrowthClass.SQUARE_SUMMABLE, -0.5),
        (GrowthClass.SQUARE_SUMMABLE, 0.0),
    ]:
        with pytest.raises(PreconditionError, match=f"{growth.value}"):
            vector_from_prefix(IndexDomain.NATURALS, 0, vals, growth, degree=degree)
    for growth, degree in [
        (GrowthClass.POLYNOMIAL_GROWTH, -0.5),
        (GrowthClass.SQUARE_SUMMABLE, -0.75),
        (GrowthClass.RAPID_DECAY, 2.0),
        (GrowthClass.RAPID_DECAY, None),
        (GrowthClass.SQUARE_SUMMABLE, None),
        (GrowthClass.POLYNOMIAL_GROWTH, None),
    ]:
        assert vector_from_prefix(IndexDomain.NATURALS, 0, vals, growth, degree=degree).growth is growth


@pytest.mark.parametrize(
    "v", [tr.geometric(0.5, extent=4), tr.inverse_quadratic(1, extent=4), tr.comb(extent=4)]
)
def test_json_growth_is_the_envelope_class(v):
    payload = json.loads(json.dumps(v.to_json()))
    assert payload["growth"] == v.growth.value
    assert CoefficientVector.from_json(payload).growth is v.growth
    del payload["growth"]
    w = CoefficientVector.from_json(payload)
    assert w.growth is v.growth and w.envelope == v.envelope


def test_json_growth_that_contradicts_the_envelope_is_a_parse_error():
    payload = tr.comb(extent=4).to_json()
    payload["growth"] = "rapid_decay"
    with pytest.raises(SpecParseError, match="'rapid_decay'.*'polynomial_growth'"):
        CoefficientVector.from_json(payload)
    payload["growth"] = "smooth"
    with pytest.raises(SpecParseError, match="malformed"):
        CoefficientVector.from_json(payload)


# --- certified extents -------------------------------------------------------------
# Reference loops for the three certified extents, each written out on its own:
# pair's infinite branch (at most 2^21 terms), cauchy_extent (extents to 2^62) and
# abs_tail_extent (one-sided, extents to 2^22). The library computes all three through
# one loop; these pin every extent, message and reported bound to the written-out rules.


def _ref_pair_extent(constant, s, start, tol, two_sided):
    from gmc.vectors import _tail_integral_bound

    extent = start
    if (2 * extent + 1 if two_sided else extent + 1) > 1 << 21:
        raise BudgetExceeded(f"pairing needs more than {1 << 21} terms for abs_tol={tol}", math.inf)
    while _tail_integral_bound(constant, s, extent, two_sided) > tol:
        extent *= 2
        terms = 2 * extent + 1 if two_sided else extent + 1
        if terms > 1 << 21:
            raise BudgetExceeded(
                f"pairing needs more than {1 << 21} terms for abs_tol={tol}",
                _tail_integral_bound(constant, s, extent // 2, two_sided),
            )
    return extent


def _ref_cauchy_extent(v, tol):
    n = max(abs(v.start), abs(v.stop - 1), 8)
    if n > 1 << 62:
        raise BudgetExceeded("envelope cannot certify an L2 tail below tolerance", math.inf)
    while v.l2_tail_bound(n) > tol:
        n *= 2
        if n > 1 << 62:
            raise BudgetExceeded("envelope cannot certify an L2 tail below tolerance", v.l2_tail_bound(n // 2))
    return n


def _ref_abs_tail_bound(v):
    """n -> the bound on sum_{k>n} |c_k|: the envelope's, or for an all-orders v the
    envelope steepened to degree -2 past n."""
    from gmc.vectors import _tail_integral_bound

    env = v.envelope
    if env.all_orders:
        return lambda n: _tail_integral_bound(steepen_envelope(v, -2.0, n + 1).constant, -2.0, n, False)
    return lambda n: _tail_integral_bound(env.constant, env.degree, n, False)


def _ref_abs_tail_extent(v, tol):
    bound_at = _ref_abs_tail_bound(v)
    n = max(v.stop, 8)
    if n > 1 << 22:
        raise BudgetExceeded("tail extent exceeds budget", math.inf)
    while (bound := bound_at(n)) > tol:
        if 2 * n > 1 << 22:
            raise BudgetExceeded("tail extent exceeds budget", bound)
        n *= 2
    return n


def _outcome(fn):
    """("ok", extent), or the error's type, message and reported bound, compared bit for bit."""
    try:
        return ("ok", fn())
    except GmcError as exc:
        return (type(exc).__name__, str(exc), repr(getattr(exc, "achieved_bound", None)))


def _edge_tols(bound, start, cap):
    """Fixed tolerances, plus the bound itself and its float neighbours at the extents
    around the cap, where the loop stops exactly or runs out of budget."""
    tols = [1.0, 1e-6, 1e-12, 1e-300, 0.0]
    probes = [start << j for j in range(70) if start << j <= 4 * max(cap, start)]
    for n in probes[:2] + probes[-4:]:
        b = bound(n)
        tols += [b, math.nextafter(b, 0.0), math.nextafter(b, math.inf)]
    return tols


def _quiet_tail():
    return Tail.formula("const", 0.0)  # zeros: an infinite vector that costs nothing to read


def test_pair_extent_matches_the_reference_loop(monkeypatch):
    from gmc.vectors import _tail_integral_bound

    seen = []

    def dense(self, lo, hi):
        seen.append(hi)
        return np.zeros(1, dtype=np.complex128)

    monkeypatch.setattr(CoefficientVector, "dense", dense)
    compared = budget = 0
    for two_sided in (True, False):
        domain = IndexDomain.INTEGERS if two_sided else IndexDomain.NATURALS
        cap = (1 << 20) - 1 if two_sided else (1 << 21) - 1
        for start in (8, 100, cap // 2, cap // 2 + 1, cap - 1, cap, cap + 1, 2 * cap):
            for constant in (1e-6, 1.0, 1e12):
                for s in (-1.0001, -1.5, -2.0, -9.0):
                    bound = lambda n: _tail_integral_bound(constant, s, n, two_sided)
                    phi = CoefficientVector(domain, start, [0j], GrowthEnvelope(constant, s), _quiet_tail())
                    v = CoefficientVector(domain, 0, [0j], GrowthEnvelope(1.0, 0.0), _quiet_tail())
                    for tol in _edge_tols(bound, start, cap):
                        seen.clear()
                        got = _outcome(lambda: (pair(phi, v, abs_tol=tol), seen[-1])[1])
                        want = _outcome(lambda: _ref_pair_extent(constant, s, start, tol, two_sided))
                        assert got == want, (two_sided, start, constant, s, tol)
                        compared += 1
                        budget += got[0] != "ok"
    assert budget and budget < compared


def test_cauchy_and_abs_tail_extents_match_the_reference_loops():
    from gmc.vectors import _tail_integral_bound

    compared = budget = 0
    for constant in (1e-6, 1.0, 1e12):
        envelopes = [(-0.51, False, 1.0), (-0.75, False, 1.0), (-1.5, False, 1.0), (-4.0, False, 1.0)]
        for degree, all_orders, ratio in envelopes + [(-0.5, True, 0.5), (3.0, True, 0.999999)]:
            env = GrowthEnvelope(constant, degree, all_orders, ratio)
            l2 = lambda n: _tail_integral_bound(constant**2, 2.0 * degree, n, True)
            for start in (8, 1000, (1 << 61) - 1, 1 << 61, (1 << 62) - 1, 1 << 62):
                for domain in IndexDomain:
                    v = CoefficientVector(domain, start, [0j], env, _quiet_tail())
                    for tol in _edge_tols(l2, start, 1 << 62):
                        got = _outcome(lambda: v.cauchy_extent(tol))
                        assert got == _outcome(lambda: _ref_cauchy_extent(v, tol)), (constant, degree, start, tol)
                        compared += 1
                        budget += got[0] != "ok"
            cap = 1 << 22
            for stop in (1, 8, 9, 1000, cap // 2, cap - 1, cap, cap + 1, 2 * cap):
                v = CoefficientVector(IndexDomain.NATURALS, stop - 1, [0j], env, _quiet_tail())
                for tol in _edge_tols(_ref_abs_tail_bound(v), max(stop, 8), cap):
                    got = _outcome(lambda: v.abs_tail_extent(tol))
                    assert got == _outcome(lambda: _ref_abs_tail_extent(v, tol)), (constant, degree, stop, tol)
                    compared += 1
                    budget += got[0] != "ok"
    # a finitely supported vector certifies a zero L2 tail past its stored indices
    finite = vector_from_prefix(IndexDomain.INTEGERS, -3, [1.0] * 7, GrowthClass.POLYNOMIAL_GROWTH)
    for tol in (0.0, 1e-12, 1.0):
        assert _outcome(lambda: finite.cauchy_extent(tol)) == _outcome(lambda: _ref_cauchy_extent(finite, tol))
    assert budget and budget < compared


@pytest.mark.parametrize("domain", list(IndexDomain))
def test_a_stored_index_past_the_extent_cap_is_refused_before_reading(domain, monkeypatch):
    # an infinite vector stored at index 10^9 used to get that index as its extent, with
    # no budget: pair asked dense(-10^9, 10^9) of both sides, 32 GB each
    def dense(self, lo, hi):
        raise AssertionError(f"dense({lo}, {hi}) should not be read")

    monkeypatch.setattr(CoefficientVector, "dense", dense)
    far = CoefficientVector(domain, 10**9, [0j], GrowthEnvelope(1.0, -8.0), _quiet_tail())
    partner = CoefficientVector(domain, 0, [0j], GrowthEnvelope(1.0, 0.0), _quiet_tail())
    with pytest.raises(BudgetExceeded, match="pairing needs more than") as err:
        pair(far, partner)
    assert err.value.achieved_bound == math.inf
    tail = Tail.formula("geometric", 0.5)
    geometric = CoefficientVector(IndexDomain.NATURALS, 10**9, [0j], tail.envelope, tail)
    with pytest.raises(BudgetExceeded, match="tail extent exceeds budget"):
        geometric.abs_tail_extent(1e-14)
