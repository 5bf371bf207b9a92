"""Acceptance gate: every shipped claim at its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion;
each test prints PASS only after its assertions held within the stated
runtime budget.
"""
import time

import numpy as np

from gmc import heisenberg as hb
from gmc import torus as tr
from gmc.cli import main as cli_main
from gmc.config import DEFAULT_QUADRATURE, ToleranceTable
from gmc.groups import factorize
from gmc.hermite import hermite_scaled
from gmc.suites import (
    suite_mollifier,
    suite_smoothing,
    suite_structure,
    suite_torus_covariance,
    suite_uea,
)
from gmc.vectors import GrowthClass, _fsum

SEED = 20260808
TOL = ToleranceTable()


class _budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget"
            print(f"PASS {self.name} ({elapsed:.2f} s)")
        return False


def test_criterion_1_uea_exactness():
    with _budget("criterion-1 enveloping-algebra exactness", 1.0):
        results = suite_uea(SEED, TOL)
        for r in results:
            assert r.passed, r.line()
        weyl = [r for r in results if r.name == "weyl-relation-representation"]
        assert weyl[0].bound == 1e-12


def test_criterion_2_torus_covariance():
    with _budget("criterion-2 torus covariance (200 cases)", 5.0):
        results = suite_torus_covariance(SEED, TOL)
        assert all(r.bound == 1e-13 for r in results)
        for r in results:
            assert r.passed, r.line()


def test_criterion_3_fourier_series_theorems():
    with _budget("criterion-3 Fourier-series results", 1.0):
        rng = np.random.default_rng(SEED)
        for B in (3, 8, 16):
            coeffs = rng.uniform(-1, 1, 2 * B + 1) + 1j * rng.uniform(-1, 1, 2 * B + 1)
            f = tr.TorusTestFunction(coeffs)
            a = tr.poly(1)
            # definitional agreement, exact: same products, correctly rounded sum
            via_smoothing = tr.gmc_eval(a, tr.comb(), f)
            direct = _fsum(np.array([a.coeff(n) * f.fhat(-n) for n in range(-B, B + 1)]))
            assert via_smoothing == direct
            # partial sums stabilize at the bandwidth, bit-identically
            for m in range(B, B + 3):
                assert tr.series_partial_sum(a, m, f) == via_smoothing
            # Dirac comb pairs to evaluation at the identity
            real_f = tr.band(B, "fejer")
            assert abs(tr.gmc_eval(tr.comb(), tr.comb(), real_f) - real_f(0.0)) < 1e-13


def test_criterion_4_factorization():
    with _budget("criterion-4 constructive factorization", 1.0):
        for r in (0, 1, 2, 3):
            a = tr.poly(r)
            D, u = factorize(a, tr.TORUS)
            assert u.growth is GrowthClass.SQUARE_SUMMABLE
            out = tr.act_algebra(D, u)
            for n in range(-40, 41):
                expected = a.coeff(n)
                if expected == 0:
                    assert abs(out.coeff(n)) < 1e-12
                else:
                    assert abs(out.coeff(n) - expected) / abs(expected) < 1e-12
            assert u.l2_tail_bound(u.cauchy_extent(1e-8)) < 1e-8

            phi = hb.poly_growth_vector(float(r))
            Dh, uh = factorize(phi, hb.HEISENBERG)
            outh = hb.act_algebra(Dh, uh)
            for k in range(50):
                assert abs(outh.coeff(k) - phi.coeff(k)) / abs(phi.coeff(k)) < 1e-12
            assert uh.l2_tail_bound(uh.cauchy_extent(1e-8)) < 1e-8


def test_criterion_5_heisenberg_health():
    with _budget("criterion-5 Schrodinger representation health", 60.0):
        rng = np.random.default_rng(SEED)
        e0 = hb.unit_vector(0)
        worst_hom, worst_unit = 0.0, 0.0
        for _ in range(8):
            g = hb.HeisenbergElement(*rng.uniform(-1, 1, 3))
            h = hb.HeisenbergElement(*rng.uniform(-1, 1, 3))
            lhs = hb.act_group(g, hb.act_group(h, e0, N=40), N=40)
            rhs = hb.act_group(hb.group_mul(g, h), e0, N=40)
            worst_hom = max(
                worst_hom,
                float(np.max(np.abs(lhs.dense(0, 39) - rhs.dense(0, 39)))),
            )
            worst_unit = max(
                worst_unit,
                abs(np.linalg.norm(hb.act_group(g, e0, N=40).dense(0, 39)) - 1.0),
            )
        assert worst_hom < 1e-6
        assert worst_unit < 1e-6

        # Fourier-Wigner modulus against the direct x-space quadrature oracle
        x = np.linspace(-9, 9, 120001)
        h0 = hermite_scaled(x, 0)[0]
        worst_fw = 0.0
        for p in np.linspace(-1, 1, 5):
            h0p = hermite_scaled(x + p, 0)[0]
            for q in np.linspace(-1, 1, 5):
                oracle = np.trapezoid(np.exp(2j * np.pi * (q * x + p * q / 2)) * h0p * h0, x)
                got = abs(hb.fourier_wigner(e0, e0, float(p), float(q)))
                worst_fw = max(worst_fw, abs(got - abs(oracle)))
        assert worst_fw < 1e-6


def test_criterion_6_smoothing_theorem():
    with _budget("criterion-6 smoothing identities", 120.0):
        results = suite_smoothing(SEED, TOL, DEFAULT_QUADRATURE)
        for r in results:
            assert r.passed, r.line()
        route_bounds = [r.bound for r in results if "route" in r.name]
        assert route_bounds and all(b == 5e-5 for b in route_bounds)
        assert sum("certificate" in r.name for r in results) == 4  # two truncations each


def test_criterion_7_mollifier_theorems():
    with _budget("criterion-7 mollifier approximation", 120.0):
        results = suite_mollifier(SEED, TOL, DEFAULT_QUADRATURE)
        by_name = {r.name: r for r in results}
        assert by_name["mollifier-unit-mass"].bound == 1e-10
        assert by_name["torus-pairing-residual-n64"].bound == 1e-6
        for r in results:
            assert r.passed, r.line()


def test_criterion_8_structure_witnesses():
    with _budget("criterion-8 structure witnesses", 60.0):
        results = suite_structure(SEED, TOL, DEFAULT_QUADRATURE)
        by_name = {r.name: r for r in results}
        assert by_name["torus-semi-invariance"].bound == 1e-13
        assert by_name["heisenberg-delta-semi-invariance"].bound == 5e-5
        assert by_name["torus-disjoint-orthogonality"].value == 0.0
        assert by_name["torus-projection-commutation"].value == 0.0
        assert by_name["injectivity-witness-search"].kind == "min"
        for r in results:
            assert r.passed, r.line()


def test_criterion_9_cli_contract(tmp_path):
    with _budget("criterion-9 CLI determinism and exit codes", 10.0):
        import contextlib
        import io

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(list(argv))
            return code, out.getvalue()

        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.csv"
            code, _ = run(
                "torus-series", "poly:2", "band:6:fejer", "--m-max", "9",
                "--output", str(path),
            )
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

        code1, out1 = run("verify", "uea", "--seed", "11")
        code2, out2 = run("verify", "uea", "--seed", "11")
        assert code1 == code2 == 0 and out1 == out2

        # forced failure: absurd tolerance must flip the exit code to 1
        code_fail, report = run(
            "verify", "torus-covariance", "--tol", "torus_exact=1e-20"
        )
        assert code_fail == 1 and "FAIL" in report
        # usage errors exit 2
        assert run("verify", "no-such-suite")[0] == 2
        assert run("torus-series", "nope", "band:2:ones", "--m-max", "1")[0] == 2
