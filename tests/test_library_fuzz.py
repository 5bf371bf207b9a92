"""A fuzz of the library entry points' robustness contract.

Coefficients are drawn log-uniform up to 1e308, algebra words up to degree 160, group
coordinates up to 1e8 in modulus, and Heisenberg bumps are scaled the same way,
translated and from 1e-3 to 10 in radius. Smoothing alone is drawn on workload-sized
bumps, translated and derived, against unit vectors, Gaussians, delta, polynomial growth
and scaled geometric vectors. Whatever the input, each call returns finite values or
raises a GmcError, and it warns nothing: a result past the float range is a
PreconditionError, never inf, nan or a numpy warning.
"""
import cmath
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gmc import heisenberg as hb
from gmc import mollify as mo
from gmc import torus as tr
from gmc.config import QuadratureSpec
from gmc.errors import GmcError
from gmc.uea import UEAElement
from gmc.vectors import CoefficientVector, GrowthEnvelope, IndexDomain, formula_vector, pair

EXAMPLES = 60
MAX_DEGREE = 160

magnitude = st.floats(-30.0, 308.0).map(lambda e: 10.0**e)
coefficient = st.one_of(
    st.just(0.0), st.builds(lambda m, unit: m * unit, magnitude, st.sampled_from((1.0, -1.0, 1j, -1j)))
)
coordinate = st.one_of(
    st.just(0.0), st.builds(lambda e, sign: sign * 10.0**e, st.floats(-3.0, 8.0), st.sampled_from((1.0, -1.0)))
)


def _finite(domain, start, values):
    values = np.array(values, dtype=np.complex128)
    constant = max(float(np.max(np.abs(values))) * (1 + 1e-9), 1e-300)
    return CoefficientVector(domain, start, values, GrowthEnvelope(constant, 0.0, all_orders=True))


def _scaled(v, s):
    """s v, with its envelope constant scaled too: s is cut so that the constant and every
    coefficient the envelope admits up to index KERNEL_MAX_INDEX stay below 1e308."""
    env = v.envelope
    top = max(env.bound(0), env.bound(hb.KERNEL_MAX_INDEX), float(np.max(np.abs(v.prefix), initial=0.0)))
    s = min(s, 1e308 / top)
    return v.map(lambda c, k: s * c, replace(v.envelope, constant=v.envelope.constant * s))


def vectors(domain, infinite):
    """Finite vectors of up to six drawn coefficients, and scaled infinite ones."""
    lo = 0 if domain is IndexDomain.NATURALS else -8
    finite = st.builds(_finite, st.just(domain), st.integers(lo, 8), st.lists(coefficient, min_size=1, max_size=6))
    return st.one_of(finite, st.builds(_scaled, infinite, magnitude))


hermite_vector = vectors(
    IndexDomain.NATURALS,
    st.one_of(
        st.floats(0.3, 3.0).map(hb.gaussian_vector),
        st.just(hb.dirac_delta()),
        st.sampled_from((-2.0, 0.0, 1.0, 2.5)).map(hb.poly_growth_vector),
    ),
)
hermite_vector_or_delta = st.one_of(hermite_vector, st.just(hb.dirac_delta()))
torus_vector = vectors(
    IndexDomain.INTEGERS,
    st.one_of(
        st.just(tr.comb()),
        st.integers(0, 3).map(tr.poly),
        st.sampled_from((0.25, -0.5, 0.9)).map(tr.geometric),
        st.integers(1, 2).map(tr.inverse_quadratic),
        st.just(tr.alternating()),
    ),
)


def _split(n, dim):
    """Exponent tuples of dim letters and total degree n."""
    if dim == 1:
        return st.just((n,))
    return st.integers(0, n).flatmap(lambda a: _split(n - a, dim - 1).map(lambda rest: (a, *rest)))


def algebra(structure):
    monomial = st.integers(0, MAX_DEGREE).flatmap(lambda n: _split(n, structure.dim))
    return st.dictionaries(monomial, coefficient, min_size=1, max_size=2).map(lambda terms: UEAElement(structure, terms))


bump = st.builds(
    lambda radius, s, h: s * mo.standard_mollifier(hb.HEISENBERG, 1, radius).left_translate(h),
    st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    magnitude,
    st.tuples(coordinate, coordinate, coordinate),
)


def _moved(n, radius, left, h, word):
    """A bump J_n of the given radius, translated to h on the left or the right, and
    derived by at most one generator on the same side."""
    f = mo.standard_mollifier(hb.HEISENBERG, n, radius)
    f = f.left_translate(h) if left else f.right_translate(h)
    if word:
        d = UEAElement.generator(hb.HEISENBERG_STRUCTURE, word)
        f = f.left_derive(d) if left else f.right_derive(d)
    return f


moved_bump = st.builds(
    _moved,
    st.integers(1, 4),
    st.floats(0.1, 1.0),
    st.booleans(),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
    st.sampled_from(("", "P", "Q", "Z")),
)
smoothed_vector = st.one_of(
    st.integers(0, 60).map(hb.unit_vector),
    st.floats(0.3, 3.0).map(hb.gaussian_vector),
    st.just(hb.dirac_delta()),
    st.floats(0.0, 2.5).map(hb.poly_growth_vector),
    st.builds(
        lambda ratio, s: _scaled(formula_vector(IndexDomain.NATURALS, 0, 16, "geometric", ratio), s),
        st.floats(0.05, 0.95),
        magnitude,
    ),
)
band = st.integers(0, 6).flatmap(lambda B: st.lists(coefficient, min_size=2 * B + 1, max_size=2 * B + 1)).map(
    tr.TorusTestFunction
)


def _holds(call, *args):
    """call(*args) gives finite values or a GmcError, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*args)
        except GmcError:
            return
    if isinstance(out, CoefficientVector):
        assert np.isfinite(out.prefix).all()
    else:
        assert cmath.isfinite(complex(out))


@settings(max_examples=EXAMPLES, deadline=None)
@given(g=st.tuples(coordinate, coordinate, coordinate), phi=hermite_vector)
def test_heisenberg_act_group_is_finite_or_typed(g, phi):
    _holds(hb.act_group, g, phi)


@settings(max_examples=EXAMPLES, deadline=None)
@given(d=algebra(hb.HEISENBERG_STRUCTURE), phi=hermite_vector)
def test_heisenberg_act_algebra_is_finite_or_typed(d, phi):
    _holds(hb.act_algebra, d, phi)


@settings(max_examples=EXAMPLES, deadline=None)
@given(phi=hermite_vector_or_delta, psi=hermite_vector, p=coordinate, q=coordinate)
def test_fourier_wigner_is_finite_or_typed(phi, psi, p, q):
    _holds(hb.fourier_wigner, phi, psi, p, q)


@settings(max_examples=EXAMPLES, deadline=None)
@given(phi=hermite_vector_or_delta, psi=hermite_vector_or_delta, f=bump)
def test_heisenberg_gmc_eval_is_finite_or_typed(phi, psi, f):
    _holds(hb.gmc_eval, phi, psi, f)


@settings(max_examples=30, deadline=None)  # a smoothing costs up to 0.1 s: 30 draws keep it near 1 s
@given(f=moved_bump, phi=smoothed_vector, N=st.sampled_from((8, 40)))
def test_heisenberg_smooth_by_is_finite_or_typed(f, phi, N):
    _holds(hb.smooth_by, f, phi, QuadratureSpec(truncation=N))


@settings(max_examples=EXAMPLES, deadline=None)
@given(d=algebra(tr.TORUS_STRUCTURE), a=torus_vector)
def test_torus_act_algebra_is_finite_or_typed(d, a):
    _holds(tr.act_algebra, d, a)


@settings(max_examples=EXAMPLES, deadline=None)
@given(a=torus_vector, b=torus_vector, f=band)
def test_torus_gmc_eval_is_finite_or_typed(a, b, f):
    _holds(tr.gmc_eval, a, b, f)


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data(), domain=st.sampled_from((IndexDomain.NATURALS, IndexDomain.INTEGERS)))
def test_pair_is_finite_or_typed(data, domain):
    vector = hermite_vector_or_delta if domain is IndexDomain.NATURALS else torus_vector
    _holds(pair, data.draw(vector), data.draw(vector))
