"""CLI contract: CSV schemas, exit codes, determinism."""
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gmc
from gmc.cli import main
from gmc.errors import GmcError
from gmc.suites import run_suite


def run_cli(*argv):
    """In-process invocation; returns (exit code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


# --- torus-series ---------------------------------------------------------------


def test_series_comb_residual_hits_zero_at_band(tmp_path):
    out = tmp_path / "series.csv"
    code, _, _ = run_cli(
        "torus-series", "comb", "band:4:fejer", "--m-max", "7", "--output", str(out)
    )
    assert code == 0
    header, rows = _parse_csv(out.read_text())
    assert header == ["m", "partial_sum_re", "partial_sum_im", "residual_vs_limit"]
    assert len(rows) == 8
    for m, _, _, resid in rows:
        if m >= 4:
            assert resid == 0.0
    assert rows[0][3] > 0


def test_series_unit_zero_constant_column():
    code, stdout, _ = run_cli("torus-series", "unit:0", "band:3:gauss", "--m-max", "5")
    assert code == 0
    _, rows = _parse_csv(stdout)
    f0 = rows[0][1]
    assert all(row[1] == f0 and row[3] == 0.0 for row in rows)


def test_series_poly_residual_nonincreasing_beyond_band():
    code, stdout, _ = run_cli("torus-series", "poly:1", "band:5:fejer", "--m-max", "9")
    assert code == 0
    _, rows = _parse_csv(stdout)
    resid = [row[3] for row in rows]
    assert all(x >= y - 1e-15 for x, y in zip(resid[5:], resid[6:]))
    assert resid[-1] == 0.0


def test_series_parse_failure_names_token():
    code, _, err = run_cli("torus-series", "combz", "band:4:fejer", "--m-max", "3")
    assert code == 2
    assert "combz" in err


@pytest.mark.parametrize("token", ["nan", "inf", "-infj"])
def test_series_non_finite_band_coefficient_names_token(token):
    code, _, err = run_cli("torus-series", "comb", f"band:1:1,{token},1", "--m-max", "1")
    assert code == 2
    assert f"bad coefficient token {token!r}" in err


def test_series_sum_past_the_float_range_exits_2():
    code, _, err = run_cli("torus-series", "comb", "band:1:1e308,1e308,1e308", "--m-max", "1")
    assert code == 2
    assert err.startswith("error:") and "envelope" not in err


def test_series_geometric_ratio_near_one_runs():
    # the envelope constant comes from the peak of |r|^n (1+n)^8, not from a scan to it
    code, stdout, err = run_cli("torus-series", "geometric:0.9999999", "band:4:fejer", "--m-max", "3")
    assert code == 0, err
    assert len(_parse_csv(stdout)[1]) == 4


def test_series_index_past_int64_exits_2():
    code, _, err = run_cli("torus-series", "unit:999999999999999999999", "band:4:fejer", "--m-max", "3")
    assert code == 2
    assert "2^62" in err




def test_series_table_and_band_past_their_limits_exit_2():
    # neither is built: 10^20 rows would never finish, and 2 10^20 + 1 coefficients
    # are past numpy's array size
    big = str(10**20)
    for argv in (
        ("torus-series", "comb", "band:4:fejer", f"--m-max={big}"),
        ("torus-series", "comb", f"band:{big}:ones", "--m-max=1"),
        ("mollify", "--group", "torus", "comb", "comb", f"band:{big}:gauss", "--n=2"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_series_table_to_the_bandwidth_is_one_pass(tmp_path):
    # each row is a running sum, not a sum afresh: 32,001 rows in well under a second
    out = tmp_path / "series.csv"
    t0 = time.perf_counter()
    code, _, _ = run_cli("torus-series", "comb", "band:32000:ones", "--m-max", "32000", "--output", str(out))
    elapsed = time.perf_counter() - t0
    assert code == 0 and elapsed < 3.0
    rows = out.read_text().splitlines()
    assert len(rows) == 32002 and rows[-1] == "32000,64001,0,0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("torus-series", "comb", "band:4:fejer", "--m-max", "-1"), "--m-max must be nonnegative"),
        (("verify", "uea", "--tol", "torus_exact"), "--tol takes KEY=VALUE"),
        (("verify", "uea", "--tol", "torus_exact=tight"), "bad tolerance value"),
        (("--config", "{dir}", "verify", "uea"), "cannot load config"),
    ],
    ids=["negative-m-max", "tol-without-value", "tol-not-a-number", "config-unreadable"],
)
def test_bad_flag_or_file_exits_2_with_one_error_line(tmp_path, argv, message):
    code, out, err = run_cli(*(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "phi, psi", [("e:99999999999999999999", "e:0"), ("e:0", "e:4611686018427387909")], ids=["phi", "psi"]
)
def test_wigner_hermite_index_past_2_62_exits_2(phi, psi):
    code, out, err = run_cli("wigner", phi, psi, "--grid=0:0:1,0:0:1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "2^62" in err


@pytest.mark.parametrize("phi, psi", [("e:30000000", "e:0"), ("e:0", "e:30000000")])
def test_wigner_high_unit_vector_reads_only_its_stored_index(phi, psi):
    # a unit vector stores one coefficient, so this reads no 30-million-entry array
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run_cli("wigner", phi, psi, "--grid=0:1:2,0:1:2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out == "p,q,re,im,abs\n0,0,0,0,0\n0,1,0,0,0\n1,0,0,0,0\n1,1,0,0,0\n"
    assert peak < 1 << 20


def test_wigner_high_unit_vectors_answer_up_to_the_kernel_index_cap():
    code, out, _ = run_cli("wigner", "e:10000000", "e:10000003", "--grid=0:1:2,0:1:2")
    assert code == 0
    # the bits at (0, 1), where the kernel rows are live: 1.9e-10 from the exact
    # 3.1566758159683789e-05, as was the value of the cumulative scaling products (see
    # test_kernel_entries_match_exact_laguerre_values_at_high_index)
    assert _parse_csv(out)[1][1][4] == 3.1566758165721626e-05
    for phi, psi in (("e:30000000", "e:30000003"), ("e:1000000000", "e:1000000003")):
        code, out, err = run_cli("wigner", phi, psi, "--grid=0:1:2,0:1:2")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and str(1 << 24) in err


def test_wigner_high_unit_vectors_keep_the_scaling_table_to_their_rows():
    # the kernel rows' scaling table holds the indices its rows read: 3.6 MiB traced here,
    # where a table from index 0 to 10^7 peaked at 229 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, _ = run_cli("wigner", "e:10000000", "e:10000003", "--grid=0:1:2,0:1:2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 8 << 20


# --- wigner -----------------------------------------------------------------------


def test_wigner_gaussian_grid(tmp_path):
    out = tmp_path / "w.csv"
    # --grid=VALUE form: a leading dash would otherwise read as a flag
    code, _, _ = run_cli(
        "wigner", "e:0", "e:0", "--grid=-1:1:5,-1:1:5", "--output", str(out)
    )
    assert code == 0
    header, rows = _parse_csv(out.read_text())
    assert header == ["p", "q", "re", "im", "abs"]
    assert len(rows) == 25
    for p, q, _, _, mag in rows:
        assert abs(mag - math.exp(-math.pi * (p * p + q * q) / 2)) < 1e-6


def test_wigner_grid_contains_origin_unit_value():
    code, stdout, _ = run_cli("wigner", "e:0", "e:0", "--grid", "0:0:1,0:0:1")
    assert code == 0
    _, rows = _parse_csv(stdout)
    assert abs(rows[0][4] - 1.0) < 1e-12


def test_wigner_json_vector_missing_key_exits_2(tmp_path):
    from gmc import heisenberg as hb

    payload = hb.unit_vector(0).to_json()
    del payload["envelope"]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli("wigner", f"json:{path}", "e:0", "--grid", "0:0:1,0:0:1")
    assert code == 2
    assert "envelope" in err


def test_wigner_distribution_requires_mollify():
    code, _, err = run_cli("wigner", "e:0", "delta", "--grid", "0:1:2,0:1:2")
    assert code == 2
    assert "--mollify" in err


def test_wigner_accepts_mollifier_spec_string():
    code, stdout, _ = run_cli(
        "wigner", "delta", "e:0", "--grid", "0:0:1,0:0:1",
        "--mollify", "mollifier:n=8:radius=0.5",
    )
    assert code == 0
    _, rows = _parse_csv(stdout)
    assert np.isfinite(rows[0][4])
    code2, _, err = run_cli(
        "wigner", "delta", "e:0", "--grid", "0:0:1,0:0:1", "--mollify", "soon"
    )
    assert code2 == 2 and "soon" in err


def test_wigner_mollifies_every_side_that_is_not_rapid_decay(tmp_path):
    from gmc import heisenberg as hb

    grid = ("--grid", "0:0.5:2,0:0:1")
    code, _, err = run_cli("wigner", "e:0", "poly-growth:-0.6", *grid)
    assert code == 2 and "needs --mollify" in err
    code, mollified, _ = run_cli("wigner", "poly-growth:-0.6", "e:0", *grid, "--mollify", "2")
    assert code == 0
    # the same square-summable vector from a file: smoothed under --mollify, read as is without
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(hb.poly_growth_vector(-0.6).to_json()))
    assert json.loads(path.read_text())["growth"] == "square_summable"
    assert run_cli("wigner", f"json:{path}", "e:0", *grid, "--mollify", "2") == (0, mollified, "")
    code, plain, _ = run_cli("wigner", f"json:{path}", "e:0", *grid)
    assert code == 0 and plain != mollified


def test_wigner_stored_index_past_the_tail_budget_exits_2(tmp_path, monkeypatch):
    # one zero coefficient at index 10^9 and a geometric tail: the tail extent starts
    # past its cap, so the budget refuses it before a 10^9-entry array is asked for
    from gmc.vectors import CoefficientVector

    dense = CoefficientVector.dense

    def bounded(self, lo, hi):
        assert hi - lo < 1 << 22, (lo, hi)
        return dense(self, lo, hi)

    monkeypatch.setattr(CoefficientVector, "dense", bounded)
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "index_domain": "naturals", "start": 10**9, "coefficients": [[0.0, 0.0]],
        "tail": {"name": "geometric", "params": [0.5]},
        "envelope": {"constant": 1.0, "degree": 0.0, "all_orders": True, "ratio": 0.5},
    }))
    code, out, err = run_cli("wigner", "e:0", f"json:{path}", "--grid=0:1:2,0:1:2")
    assert (code, out) == (2, "")
    assert err.startswith("error: tail extent exceeds budget")


def test_wigner_geometric_json_tail_matches_its_finite_prefix(tmp_path):
    # psi_k = 0.995^k under its envelope (1, 0, all orders, ratio 0.995): the ratio
    # certifies a tail extent within budget (the degree alone exhausted it), and the rows
    # equal those of the first 12,000 coefficients stored as a finite vector, bit for bit
    from gmc.vectors import Tail

    tail = {"name": "geometric", "params": [0.995]}
    infinite = {
        "index_domain": "naturals", "start": 0, "coefficients": [[1.0, 0.0]], "tail": tail,
        "envelope": {"constant": 1.0, "degree": 0.0, "all_orders": True, "ratio": 0.995},
    }
    values = Tail.formula("geometric", 0.995).fn(np.arange(12000))
    finite = {
        "index_domain": "naturals", "start": 0, "coefficients": [[c.real, 0.0] for c in values],
        "envelope": {"constant": 1.0, "degree": 0.0, "all_orders": True},
    }
    outputs = []
    for name, payload in (("inf.json", infinite), ("fin.json", finite)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        code, out, err = run_cli("wigner", "e:3", f"json:{path}", "--grid=0:1:2,0:1:2")
        assert (code, err) == (0, ""), err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1] == "0,0,0.98507487500000002,0,0.98507487500000002"  # 0.995^3


def test_wigner_mollified_delta_converges(tmp_path):
    values = {}
    for n in (8, 16):
        out = tmp_path / f"w{n}.csv"
        code, _, _ = run_cli(
            "wigner",
            "delta",
            "e:0",
            "--grid",
            "0:0.5:2,0:0.5:2",
            "--mollify",
            str(n),
            "--output",
            str(out),
        )
        assert code == 0
        _, rows = _parse_csv(out.read_text())
        values[n] = np.array(rows)
    assert np.all(np.isfinite(values[8])) and np.all(np.isfinite(values[16]))
    # finer mollification moves toward the unmollified pointwise values
    from gmc import heisenberg as hb

    target = np.array(
        [
            abs(hb.fourier_wigner(hb.dirac_delta(), hb.unit_vector(0), p, q))
            for p, q, *_ in values[8]
        ]
    )
    err8 = np.max(np.abs(values[8][:, 4] - target))
    err16 = np.max(np.abs(values[16][:, 4] - target))
    assert err16 < err8


# --- mollify -----------------------------------------------------------------------


def test_mollify_torus_residuals_decrease(tmp_path):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(
        "mollify",
        "--group",
        "torus",
        "comb",
        "comb",
        "band:6:fejer",
        "--n",
        "2,4,8",
        "--output",
        str(out),
    )
    assert code == 0
    header, rows = _parse_csv(out.read_text())
    assert header == ["n", "value_re", "value_im", "residual"]
    resid = [row[3] for row in rows]
    assert resid[0] > resid[1] > resid[2]


def test_mollify_zero_partner_all_zero_residuals():
    code, stdout, _ = run_cli(
        "mollify", "--group", "torus", "comb", "unit:30", "band:3:ones", "--n", "1,2"
    )
    assert code == 0
    _, rows = _parse_csv(stdout)
    assert all(row[3] == 0 for row in rows)


def test_mollify_heisenberg_delta(tmp_path):
    out = tmp_path / "mh.csv"
    code, _, _ = run_cli(
        "mollify",
        "--group",
        "heisenberg",
        "delta",
        "e:0",
        "bump3:center=(0,0,0):radius=0.4:mass=1",
        "--n",
        "2,4",
        "--radius",
        "0.5",
        "--output",
        str(out),
    )
    assert code == 0
    _, rows = _parse_csv(out.read_text())
    assert rows[0][3] > rows[1][3] > 0


_MOLLIFY_HEISENBERG = ("mollify", "--group", "heisenberg", "delta", "e:0", "bump3:radius=0.4", "--n", "2,4")


@pytest.mark.parametrize(
    "argv, lengths",
    [
        (("verify", "heisenberg-covariance"), {64, 80}),
        (("verify", "smoothing"), {64, 67, 80}),
        (("verify", "mollifier"), {64, 80}),
        (("verify", "structure"), {64}),
        (_MOLLIFY_HEISENBERG, {64}),
    ],
    ids=["heisenberg-covariance", "smoothing", "mollifier", "structure", "mollify"],
)
def test_every_smoothing_runs_at_the_configured_truncation(tmp_path, monkeypatch, argv, lengths):
    # the truncation is quad.truncation, and the suites' other lengths are 64 + 3 and
    # 64 + 16; none may fall back to the default of 40
    from gmc import heisenberg as hb

    seen = []
    core = hb._smooth_core

    def spy(f, phi_vec, N, *args):
        seen.append(N)
        return core(f, phi_vec, N, *args)

    monkeypatch.setattr(hb, "_smooth_core", spy)
    cfg = tmp_path / "n64.json"
    cfg.write_text(json.dumps({"quadrature": {"truncation": 64}}))
    code, _, err = run_cli("--config", str(cfg), *argv)
    assert code == 0, err
    assert seen and set(seen) == lengths


def test_mollify_partner_past_the_truncation_is_paired_in_full(tmp_path):
    # e:50 stores past the default truncation of 40, so smoothing runs to its stop and
    # the pairing drops no term (at the default length both rows read exactly 0)
    argv = ("mollify", "--group", "heisenberg", "e:0", "e:50", "bump3:center=(0,3.5,0):radius=0.4", "--n", "1,2")
    code, stdout, err = run_cli(*argv)
    assert code == 0, err
    cfg = tmp_path / "n160.json"
    cfg.write_text(json.dumps({"quadrature": {"truncation": 160}}))
    code, reference, err = run_cli("--config", str(cfg), *argv)
    assert code == 0, err
    rows, reference_rows = _parse_csv(stdout)[1], _parse_csv(reference)[1]
    assert [row[0] for row in rows] == [row[0] for row in reference_rows] == [1, 2]
    for row, ref in zip(rows, reference_rows):
        assert abs(row[1]) > 0.04
        assert max(abs(a - b) for a, b in zip(row[1:], ref[1:])) < 1e-12


def _mollify_row(*argv):
    code, out, err = run_cli("mollify", "--group", "torus", *argv)
    assert (code, err) == (0, "")
    (row,) = _parse_csv(out)[1]
    return row


def test_mollify_check_columns_share_an_exact_b_rule():
    # smoothing reads the check columns of an infinite input from its one Hermite table, so
    # the b-rule is sized on them too; sized on the input band alone this fails its own check
    bump = "bump3:center=(-0.25,-0.25,0.25):radius=0.6:mass=0.875"
    code, _, err = run_cli("mollify", "--group", "heisenberg", "poly-growth:0.125", "e:5", bump, "--n", "2")
    assert (code, err) == (0, "")


def test_mollify_torus_row_reads_eta_on_the_band_only():
    # J_2's band reaches |n| = 1058, where n^150 overflows; the row needs |n| <= 4 only.
    # The partner is the comb and fejer is real, so the row is the sum over |m| <= 4 of
    # m^150 (1 - |m| / 5) Jhat_2(m), here with Jhat_2 from the pushforward's FFT table
    from gmc import mollify as mo
    from gmc import torus as tr

    _, value, imag, residual = _mollify_row("poly:150", "comb", "band:4:fejer", "--n", "2")
    jn = mo.push_forward(mo.BumpProfile.standard(0.25).scaled(2), tr.TORUS)
    terms = [float(m) ** 150 * (1 - abs(m) / 5) * jn.fhat(m).real for m in range(-4, 5)]
    assert imag == 0.0
    assert abs(value - math.fsum(terms)) <= 1e-14 * math.fsum(map(abs, terms))
    base = math.fsum(float(m) ** 150 * (1 - abs(m) / 5) for m in range(-4, 5))
    assert abs(residual - abs(value - base)) <= 1e-14 * base


def test_mollify_torus_row_past_the_fft_cap():
    # J_n at n = 10^5 needs an FFT past 2^22 samples, which the row never takes. For
    # lam = m rho <= 10^-5 the transform is 1 - 2 pi^2 lam^2 mu_2 to 1e-19, with mu_2 the
    # unit bump's second moment over its mass
    from scipy.integrate import quad

    bump = lambda u: math.exp(-1.0 / (1.0 - u * u))
    mu_2 = quad(lambda u: u * u * bump(u), -1, 1)[0] / quad(bump, -1, 1)[0]
    _, value, imag, residual = _mollify_row("comb", "comb", "band:4:fejer", "--n", "100000", "--radius", "0.25")
    support = 0.25 / 100_000
    terms = [(1 - abs(m) / 5) * (1 - 2 * math.pi**2 * (m * support) ** 2 * mu_2) for m in range(-4, 5)]
    assert imag == 0.0
    assert abs(value - math.fsum(terms)) <= 1e-14 * (1 + math.fsum(terms))
    assert 0 < residual and abs(residual - (5.0 - math.fsum(terms))) <= 1e-14 * 6


def test_mollify_injectivity_violation_exits_2():
    code, _, err = run_cli(
        "mollify", "--group", "torus", "comb", "comb", "band:2:ones",
        "--n", "1", "--radius", "1.2",
    )
    assert code == 2
    assert "n >= 3" in err


# --- verify ------------------------------------------------------------------------


def test_verify_uea_passes():
    code, stdout, _ = run_cli("verify", "uea")
    assert code == 0
    assert "7/7 properties passed" in stdout


def test_verify_unknown_suite():
    code, _, err = run_cli("verify", "everything")
    assert code == 2
    assert "everything" in err


def test_unknown_names_raise_typed_errors():
    # typed, so the CLI reports bad input without catching every KeyError a suite raises
    with pytest.raises(GmcError, match="nope"):
        run_suite("nope", 1)


def test_verify_tightened_tolerance_fails():
    code, stdout, _ = run_cli(
        "verify", "torus-covariance", "--tol", "torus_exact=1e-20"
    )
    assert code == 1
    assert "FAIL" in stdout


def test_verify_bad_tolerance_key():
    code, _, err = run_cli("verify", "uea", "--tol", "nope=1")
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_verify_non_positive_tolerance_is_bad_input(value):
    # the same rule as config-file tolerances: bad input (2), not a failed property (1)
    code, out, err = run_cli("verify", "torus-covariance", "--tol", f"torus_exact={value}")
    assert code == 2
    assert "torus_exact" in err and "must be positive" in err
    assert out == ""


def test_verify_seed_changes_draws_but_not_verdict():
    code1, out1, _ = run_cli("verify", "torus-covariance", "--seed", "1")
    code2, out2, _ = run_cli("verify", "torus-covariance", "--seed", "2")
    assert code1 == code2 == 0
    assert out1 != out2


# --- config file ---------------------------------------------------------------------


def test_config_file_tolerance_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"torus_exact": 1e-20}}))
    code, stdout, _ = run_cli("--config", str(cfg), "verify", "torus-covariance")
    assert code == 1
    # flags override the file
    code2, _, _ = run_cli(
        "--config", str(cfg), "verify", "torus-covariance", "--tol", "torus_exact=1e-13"
    )
    assert code2 == 0


@pytest.mark.parametrize(
    "payload, argv",
    [
        ('{"quadrature": {"truncation": 40.5}}', ("mollify", "--group", "heisenberg", "delta", "e:0",
                                                  "bump3:radius=0.4", "--n", "2")),
        ('{"seed": 1.5}', ("verify", "uea")),
        ('{"seed": "7"}', ("verify", "uea")),
        ('{"quadrature": {"check_tol": Infinity}}', ("verify", "smoothing")),
    ],
    ids=["truncation-float", "seed-float", "seed-string", "check_tol-inf"],
)
def test_config_value_of_wrong_type_is_bad_input(tmp_path, payload, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    code, _, err = run_cli("--config", str(cfg), *argv)
    assert code == 2
    assert "error:" in err


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": True}))
    code, _, err = run_cli("--config", str(cfg), "verify", "uea")
    assert code == 2
    assert "frobnicate" in err


_WIGNER_AT_ORIGIN = ("wigner", "e:0", "e:0", "--grid=0:0:1,0:0:1")

# key (as the error names it) -> (config file payload, command)
_REMOVED_KEYS = {
    "x_nodes": ({"quadrature": {"x_nodes": 80}}, _WIGNER_AT_ORIGIN),
    "box_nodes": ({"quadrature": {"box_nodes": 48}}, _WIGNER_AT_ORIGIN),
    "input_margin": ({"quadrature": {"input_margin": 32}}, _WIGNER_AT_ORIGIN),
    "self_check": ({"quadrature": {"self_check": False}}, _WIGNER_AT_ORIGIN),
    "quadrature_check": ({"tolerances": {"quadrature_check": 1e-7}}, _WIGNER_AT_ORIGIN),
    "pair_abs_tol": ({"tolerances": {"pair_abs_tol": 1e-12}}, _WIGNER_AT_ORIGIN),
    "group": ({"group": "heisenberg"}, _WIGNER_AT_ORIGIN),
    "truncation": ({"truncation": 40}, _WIGNER_AT_ORIGIN),
    "tol-quadrature_check": ({}, ("verify", "uea", "--tol", "quadrature_check=1e-7")),
}


@pytest.mark.parametrize("case", _REMOVED_KEYS)
def test_config_removed_key_rejected(tmp_path, case):
    # keys that changed no result: closed-form kernels need no x-rule, test functions
    # carry their own (p, q) rule, smoothing always self-checks, and the subcommand
    # picks the group
    payload, argv = _REMOVED_KEYS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli("--config", str(cfg), *argv)
    assert code == 2
    assert case.removeprefix("tol-") in err


@pytest.mark.parametrize(
    "argv",
    [
        ("mollify", "--group", "heisenberg", "delta", "e:0", "bump3:radius=nan", "--n", "2"),
        ("mollify", "--group", "torus", "comb", "comb", "band:6:fejer", "--n", "2", "--radius", "nan"),
        ("mollify", "--group", "torus", "comb", "comb", "band:6:fejer", "--n", "2", "--radius", "inf"),
        ("wigner", "e:0", "e:0", "--grid=0:inf:2,0:0:1"),
        # numbers outside a spec's range
        ("torus-series", "comb", "band:-1:ones", "--m-max", "1"),
        ("torus-series", "poly:-1", "band:4:fejer", "--m-max", "2"),
        ("mollify", "--group", "heisenberg", "e:0", "e:0", "bump3:center=(1e200,0,0)", "--n", "2"),
        ("mollify", "--group", "heisenberg", "delta", "e:0", "bump3:center=(1e200,0,0)", "--n", "2"),
        ("mollify", "--group", "heisenberg", "e:0", "e:0", "bump3:center=(1e308,0,0)", "--n", "2"),
        ("mollify", "--group", "heisenberg", "delta", "e:0", "bump3:center=(1e308,0,0)", "--n", "2"),
        ("mollify", "--group", "heisenberg", "e:0", "e:0", "bump3:center=(0,1e308,0)", "--n", "2"),
        ("mollify", "--group", "heisenberg", "delta", "e:0", "bump3:center=(0,1e308,0)", "--n", "2"),
    ],
)
def test_non_finite_number_is_bad_input(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Warning" not in err


@pytest.mark.parametrize(
    "argv, degree",
    [
        (("torus-series", "poly:400", "band:4:ones", "--m-max", "3"), "400"),
        (("wigner", "poly-growth:400", "e:0", "--grid=0:1:2,0:1:2"), "400"),
        (("wigner", "poly-growth:1e6", "e:0", "--grid=0:1:2,0:1:2"), "1e+06"),
        # the band reaches past |n| = 1058, the mollifier's cut, where n^150 overflows
        (("mollify", "--group", "torus", "poly:150", "comb", "band:1100:fejer", "--n", "2"), "150"),
    ],
)
def test_power_formula_past_the_float_range_names_its_degree(argv, degree):
    # the overflow is a typed error that names the formula's degree, with no numpy warning
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Warning" not in err
    assert f"formula of degree {degree} leaves the float range at index" in err


_SMOOTH_ARGV = ("mollify", "--group", "heisenberg", "delta", "e:0")


@pytest.mark.parametrize(
    "argv, cause",
    [
        ((*_SMOOTH_ARGV, "bump3:radius=1e-300", "--n", "2"), "test function values leave the float range"),
        ((*_SMOOTH_ARGV, "bump3:radius=0.4:mass=1e308", "--n", "2"), "test function values leave the float range"),
        (
            ("wigner", "delta", "e:0", "--grid=0:1:2,0:1:2", "--mollify", "mollifier:n=2:radius=1e-300"),
            "test function values leave the float range",
        ),
        # the smoothed output is finite, but its degree -8 envelope constant is not
        ((*_SMOOTH_ARGV, "bump3:radius=0.4:mass=1e300", "--n", "2"), "envelope constant of the coefficients leaves"),
    ],
)
def test_heisenberg_smoothing_past_the_float_range_is_bad_input(argv, cause):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert cause in err


@pytest.mark.parametrize(
    "argv, cause",
    [
        (("wigner", "json:{big}", "e:0", "--grid=0.3:0.3:1,0.2:0.2:1"), "pointwise coefficient leaves the float range"),
        (("mollify", "--group", "heisenberg", "json:{big}", "e:0", "bump3", "--n", "2"), "smoothed coefficients leave the float range"),
    ],
)
def test_heisenberg_results_past_the_float_range_exit_2_with_one_line(tmp_path, argv, cause):
    # finite coefficients of 1.5e308 whose results overflow: these printed numpy warnings,
    # then an accuracy error whose gap was a point count or nan
    big = tmp_path / "big.json"
    coefficients = [[1.5e308, 0], [1.5e308, 0]]
    envelope = {"constant": 1.5e308, "degree": 0.0, "all_orders": True, "ratio": 1.0}
    big.write_text(json.dumps({"index_domain": "naturals", "start": 0, "coefficients": coefficients, "envelope": envelope}))
    code, out, err = run_cli(*(a.format(big=big) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and cause in err


def test_one_node_b_rule_smooths(tmp_path):
    # at truncation 1 a support this narrow in q sizes a one-node b-rule
    cfg = tmp_path / "n1.json"
    cfg.write_text(json.dumps({"quadrature": {"truncation": 1}}))
    code, out, err = run_cli("--config", str(cfg), "mollify", "--group", "heisenberg", "e:0", "e:0", "bump3:radius=1e-150", "--n", "1")
    assert code == 0, err
    _, rows = _parse_csv(out)
    assert len(rows) == 1 and all(math.isfinite(x) for x in rows[0])


@pytest.mark.parametrize("phi", ["e:0", "delta"])
def test_support_narrower_than_the_float_spacing_is_bad_input(phi):
    # the p-interval of this bump rounds to one point: refused, not read as 0
    code, out, err = run_cli("mollify", "--group", "heisenberg", phi, "e:0", "bump3:center=(0.3,0,0):radius=1e-17", "--n", "1")
    assert code == 2 and not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "narrower in p or q than the float spacing" in err


@pytest.mark.parametrize("spec", ["e:-1", "e:2.5", "e:x"])
def test_bad_hermite_index_is_bad_input(spec):
    code, _, err = run_cli("wigner", spec, "e:0", "--grid=0:1:2,0:1:2")
    assert code == 2
    assert err.startswith("error:")


def test_wigner_at_the_edge_of_the_float_range_reads_zero():
    # pi (p^2 + q^2) overflows: the kernel row lies past every column, with no warning
    code, out, _ = run_cli("wigner", "e:0", "e:0", "--grid=1e308:1e308:2,0:1:2")
    assert code == 0
    _, rows = _parse_csv(out)
    assert [row[2:] for row in rows] == [[0.0, 0.0, 0.0]] * 4


def test_quadrature_accuracy_error_reports_the_gap(tmp_path):
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({"quadrature": {"check_tol": 1e-16}}))
    code, _, err = run_cli(
        "--config", str(cfg), "mollify", "--group", "heisenberg", "delta", "e:0", "bump3:radius=0.4", "--n", "2"
    )
    assert code == 2
    line = err.strip()
    assert line.startswith("error: smoothing quadrature has not converged")
    assert "gap " in line and "tolerance " in line
    assert len(line.encode()) < 300


def test_wigner_past_the_former_column_budget_is_the_finite_truncation(tmp_path):
    # the rows of h_900 on this grid reach past 1024 columns, where an infinite phi used to
    # be refused: it prints the bytes of its first 20,000 coefficients stored as a finite vector
    from gmc import heisenberg as hb
    from gmc.vectors import GrowthClass, IndexDomain, vector_from_prefix

    prefix = hb.poly_growth_vector(0.0).dense(0, 19999)
    path = tmp_path / "fin.json"
    path.write_text(json.dumps(vector_from_prefix(IndexDomain.NATURALS, 0, prefix, GrowthClass.POLYNOMIAL_GROWTH).to_json()))
    code, out, err = run_cli("wigner", "poly-growth:0", "e:900", "--grid=-2:2:3,-2:2:3")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 10
    assert run_cli("wigner", f"json:{path}", "e:900", "--grid=-2:2:3,-2:2:3") == (0, out, "")


def test_wigner_blocks_give_the_bytes_of_single_point_calls(monkeypatch):
    import gmc.cli as cli
    from gmc import heisenberg as hb
    from gmc.specs import parse_vector

    argv = ("wigner", "gauss:0.8", "e:3", "--grid=-1.5:1.5:9,-1:1:9")
    code, whole, _ = run_cli(*argv)
    assert code == 0
    monkeypatch.setattr(hb, "POINT_BLOCK", 7)
    monkeypatch.setattr(cli, "CSV_CHUNK", 5)
    code, blocked, _ = run_cli(*argv)
    assert code == 0 and blocked == whole
    phi, psi = parse_vector("heisenberg", "gauss:0.8"), parse_vector("heisenberg", "e:3")
    # a table budget of 8 points on phi's 49 columns: the 81-point block is halved until it fits
    sizes, inner = [], hb._kernel_block

    def spy(psi_vec, cols, p, q, lo=0, start=0):
        sizes.append(len(p))
        return inner(psi_vec, cols, p, q, lo, start)

    monkeypatch.setattr(hb, "_kernel_block", spy)
    monkeypatch.setattr(hb, "POINT_BLOCK", 1 << 13)
    monkeypatch.setattr(hb, "TABLE_BUDGET", 8 * 8 * phi.stop)
    code, split, _ = run_cli(*argv)
    assert code == 0 and split == whole
    assert sizes[:5] == [81, 41, 21, 11, 6] and sum(sizes[4:]) == 81
    for line in whole.splitlines()[1::17]:
        p, q = (float(v) for v in line.split(",")[:2])
        value = hb.fourier_wigner(phi, psi, p, q)
        parts = (p, q, value.real, value.imag, np.abs(value))
        assert line == ",".join(format(float(v), ".17g") for v in parts)


def test_wigner_blocks_read_1024_columns_within_the_table_budget():
    from gmc import heisenberg as hb

    # a kernel block claims 8 float64 entries per block entry
    assert 8 * hb.POINT_BLOCK * 1024 == hb.TABLE_BUDGET


def test_wigner_prints_no_partial_grid_when_a_block_fails(monkeypatch):
    from gmc import heisenberg as hb

    monkeypatch.setattr(hb, "POINT_BLOCK", 2)
    # the block of the two points at p = 1e5 comes last, and its rows reach past the index cap
    code, out, err = run_cli("wigner", "poly-growth:0", "e:5", "--grid=0:1e5:2,0:1:2")
    assert code == 2 and out == ""
    assert err.startswith("error: kernel rows reach index") and str(1 << 24) in err


def test_wigner_grid_holds_no_python_float_per_value(tmp_path):
    # 65,536 points, written CSV_CHUNK lines at a time from the arrays: five Python lists of
    # every value peaked at 13.9 MiB traced here
    import contextlib
    import tracemalloc

    path = tmp_path / "w.csv"
    assert run_cli("wigner", "e:0", "e:0", "--grid=0:1:2,0:1:2")[0] == 0  # caches outside the trace
    with open(path, "w") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["wigner", "e:0", "e:0", "--grid=0:1:256,0:1:256"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 8 << 20
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 256 * 256 and lines[1] == "0,0,1,0,1"


def test_wigner_of_an_infinite_phi_past_the_former_columns_is_its_value():
    # every row of h_2000 at these points starts past the 1024 columns an infinite phi was
    # once read to: that printed four rows of zeros, then exited 2; the value at (0, 0) is
    # phi_2000 = 1
    code, out, err = run_cli("wigner", "poly-growth:0", "e:2000", "--grid=0:1:2,0:1:2")
    assert (code, err) == (0, "")
    rows = _parse_csv(out)[1]
    assert len(rows) == 4 and rows[0][:3] == [0.0, 0.0, 1.0] and rows[0][4] == 1.0


def test_wigner_delta_at_a_high_index_is_the_hermite_function():
    # |<pi(p, q, 0) delta, h_20000>| = |h_20000(-p)|, against mpmath at 40 digits
    code, out, _ = run_cli("wigner", "delta", "e:20000", "--grid=0:1:3,0:1:3")
    assert code == 0
    exact = {0.0: 0.089323825898143993, 0.5: 0.070396141213356459, 1.0: 0.020779128910246388}
    _, rows = _parse_csv(out)
    assert len(rows) == 9
    for p, _, _, _, mag in rows:
        assert abs(mag - exact[p]) < 1e-13


def test_wigner_delta_past_the_former_column_budget_exits_0():
    code, out, err = run_cli("wigner", "delta", "e:900", "--grid=-2:2:3,-2:2:3")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 10


def test_wigner_delta_at_far_points_is_exactly_zero():
    # h_k(-1e300) is below the float range, and so is the point's value: no nan, no warning
    code, out, err = run_cli("wigner", "delta", "e:0", "--grid=-1.5:1e300:2,-1.5:-1.5:1")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "1.0000000000000001e+300,-1.5,0,0,0"
    assert "nan" not in out


def test_wigner_delta_against_a_slow_geometric_partner(tmp_path):
    # psi_k = 0.995^k reads to 8,192 coefficients, past the 1024 columns of the kernel
    # route; delta's series takes them all: sum_m 0.995^(2m) h_2m(0), mpmath at 30 digits
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({
        "index_domain": "naturals", "start": 0, "coefficients": [[1.0, 0.0]],
        "tail": {"name": "geometric", "params": [0.995]},
        "envelope": {"constant": 1.0, "degree": 0.0, "all_orders": True, "ratio": 0.995},
    }))
    code, out, err = run_cli("wigner", "delta", f"json:{path}", "--grid=0:0:1,0:0:1")
    assert (code, err) == (0, "")
    p, q, re, im, mag = (float(v) for v in out.splitlines()[1].split(","))
    assert (p, q, im) == (0.0, 0.0, 0.0) and mag == re
    assert abs(re - 0.73423527108990918933) < 1e-13


def test_csv_values_have_17_significant_digits(tmp_path):
    # one '%' format per row prints what format(float(v), ".17g") prints, integers included
    from gmc.cli import _write_csv

    values = (0, 7, -(2**60), 0.0, -0.0, 0.1, 1 / 3, -2.5e-320, 1.7976931348623157e308, math.inf, -math.inf, math.nan)
    rows = [values[i : i + 4] for i in range(0, len(values), 4)] + [tuple(np.float64([1.25, -3e-9, 2.0, 7.5]))]
    path = tmp_path / "rows.csv"
    _write_csv(str(path), ["a", "b", "c", "d"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1:] == [",".join(format(float(v), ".17g") for v in row) for row in rows]


def test_wigner_past_the_grid_budget_is_bad_input():
    # refused before the grid is built, not a memory error from meshgrid
    code, out, err = run_cli("wigner", "e:0", "e:0", "--grid=0:1:100000,0:1:100000")
    assert code == 2 and out == ""
    assert err.startswith("error: grid of 10000000000 points") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_successive_main_calls_share_no_state():
    # the parser is built once per process; nothing of one call may reach the next
    code, out, _ = run_cli("verify", "torus-covariance", "--tol", "torus_exact=1e-30")
    assert code == 1 and out.endswith("0/4 properties passed\n")
    code, out, _ = run_cli("verify", "torus-covariance")
    src = str(Path(gmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run(
        [sys.executable, "-m", "gmc.cli", "verify", "torus-covariance"], capture_output=True, text=True, env=env
    )
    assert code == 0 and fresh.returncode == 0
    assert out == fresh.stdout
    code, _, err = run_cli("wigner", "e:x", "e:0", "--grid=0:1:2,0:1:2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli("wigner", "e:0")
    assert code == 2 and "required" in err


# --- determinism -----------------------------------------------------------------------


def test_csv_byte_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(
            "wigner", "e:1", "e:0", "--grid=-0.8:0.8:3,-0.8:0.8:3",
            "--output", str(path),
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_report_determinism():
    _, out1, _ = run_cli("verify", "uea", "--seed", "5")
    _, out2, _ = run_cli("verify", "uea", "--seed", "5")
    assert out1 == out2


def test_entry_point_subprocess(tmp_path):
    # the console path: python -m gmc.cli behaves identically; the child
    # imports the same gmc as this process, however pytest found it
    out = tmp_path / "x.csv"
    src = str(Path(gmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gmc.cli", "torus-series", "comb", "band:2:ones",
         "--m-max", "3", "--output", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("m,partial_sum_re")


def test_requests_import_no_scipy():
    # numpy is the only runtime dependency; scipy and mpmath serve as test references only
    src = str(Path(gmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "\n".join([
        "import sys",
        "from gmc.cli import main",
        "for argv in (",
        "    ['mollify', '--group', 'heisenberg', 'delta', 'e:0', 'bump3:radius=0.4', '--n', '2'],",
        "    ['mollify', '--group', 'torus', 'comb', 'poly:2', 'band:9:ones', '--n', '2,58'],",
        "    ['wigner', 'delta', 'e:0', '--grid=0:1:3,0:1:3', '--mollify', '2'],",
        "    ['verify', 'smoothing'],",
        "):",
        "    assert main(argv) == 0, argv",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_readme_library_example_runs():
    # the README's Python block runs as written, its assert included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_readme_examples_exit_0(tmp_path, monkeypatch):
    # every gmc line of the README's command-line block runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("gmc ")]
    assert len(lines) == 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run_cli(*shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
