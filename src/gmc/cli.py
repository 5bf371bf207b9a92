"""Batch command-line front end.

Subcommands build vectors and test functions from spec strings, run the
computation, and emit CSV tables (17 significant digits, deterministic for a
fixed config and seed). Exit codes: 0 success, 1 property failure, 2
usage/parse/precondition error.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import heisenberg as hb
from . import mollify as mo
from . import torus as tr
from .errors import BudgetExceeded, GmcError, SpecParseError
from .specs import (
    GRID_POINTS,
    RunConfig,
    get_model,
    parse_grid,
    parse_mollifier,
    parse_n_list,
    parse_test_function,
    parse_vector,
)
from .suites import run_suite
from .vectors import GrowthClass

# grid points per fourier_wigner call of gmc wigner: bounds the kernel block's memory, so
# that a block within heisenberg.TABLE_BUDGET reads 1,024 columns
GRID_BLOCK = 1 << 13
# CSV lines joined per write
CSV_CHUNK = 4096


def _write_csv(path: str | None, header: Sequence[str], rows: Sequence[tuple]) -> None:
    """Header and rows of numbers as CSV, each value with 17 significant digits, one
    '%' format per row, written in chunks of CSV_CHUNK lines."""
    rows = iter(rows)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    fh = sys.stdout if path is None else open(path, "w", newline="")
    try:
        fh.write(",".join(header) + "\n")
        for chunk in iter(lambda: list(itertools.islice(rows, CSV_CHUNK)), []):
            fh.write("".join(line % row for row in chunk))
    finally:
        if path is not None:
            fh.close()


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "output", None) is not None:
        cfg.output = args.output
    return cfg


def cmd_torus_series(args) -> int:
    cfg = _load_config(args)
    a = parse_vector("torus", args.coeffs)
    f = parse_test_function("torus", args.test_function)
    if args.m_max < 0:
        raise SpecParseError("--m-max must be nonnegative")
    if args.m_max >= GRID_POINTS:
        raise BudgetExceeded(f"--m-max {args.m_max} asks for more than {GRID_POINTS} rows", math.inf)
    limit = tr.gmc_eval(a, tr.comb(), f)
    # from the bandwidth on, a partial sum is the limit bit for bit (series_partial_sum)
    sums = tr.series_partial_sums(a, args.m_max, f)
    sums = itertools.chain(sums, itertools.repeat(limit, args.m_max + 1 - len(sums)))
    rows = ((m, s.real, s.imag, abs(s - limit)) for m, s in enumerate(sums))
    _write_csv(cfg.output, ["m", "partial_sum_re", "partial_sum_im", "residual_vs_limit"], rows)
    return 0


def cmd_wigner(args) -> int:
    cfg = _load_config(args)
    model = hb.with_quadrature(cfg.quadrature_spec())
    phi = parse_vector("heisenberg", args.phi)
    psi = parse_vector("heisenberg", args.psi)
    if args.mollify is not None:
        n, radius = parse_mollifier(args.mollify)
        profile = mo.BumpProfile.standard(radius)
        phi, psi = (
            v if v.growth is GrowthClass.RAPID_DECAY
            else mo.mollify(v, n, model, profile=profile)
            for v in (phi, psi)
        )
    elif psi.growth is not GrowthClass.RAPID_DECAY:
        raise SpecParseError(
            "second vector is not rapid-decay: it needs --mollify <n> to be evaluated pointwise"
        )
    ps, qs = parse_grid(args.grid)
    P, Q = (a.ravel() for a in np.meshgrid(ps, qs, indexing="ij"))
    # a point's value does not depend on the others in its call, so blocks keep its bits;
    # blocks in order of radius share the kernel rows of a radius, and every block is
    # done before any line is written
    order = np.argsort(np.hypot(P, Q), kind="stable")
    vals = np.empty(P.size, dtype=np.complex128)
    for i in range(0, P.size, GRID_BLOCK):
        at = order[i : i + GRID_BLOCK]
        vals[at] = hb.fourier_wigner(phi, psi, P[at], Q[at])
    rows = zip(*(a.tolist() for a in (P, Q, vals.real, vals.imag, np.abs(vals))))
    _write_csv(cfg.output, ["p", "q", "re", "im", "abs"], rows)
    return 0


def cmd_mollify(args) -> int:
    cfg = _load_config(args)
    model = get_model(args.group, cfg.quadrature_spec())
    eta = parse_vector(args.group, args.eta)
    zeta = parse_vector(args.group, args.zeta)
    f = parse_test_function(args.group, args.test_function)
    n_list = parse_n_list(args.n)
    profile = mo.BumpProfile.standard(args.radius)
    rows_raw = mo.gmc_approx(eta, zeta, f, n_list, model, profile=profile)
    rows = [(n, v.real, v.imag, r) for (n, v, r) in rows_raw]
    _write_csv(cfg.output, ["n", "value_re", "value_im", "residual"], rows)
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    overrides = dict(cfg.tolerances)
    for item in args.tol or []:
        key, _, value = item.partition("=")
        if not value:
            raise SpecParseError(f"--tol takes KEY=VALUE, got {item!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise SpecParseError(f"bad tolerance value in {item!r}") from None
    cfg = replace(cfg, tolerances=overrides)  # checked like config-file tolerances
    results = run_suite(args.suite, cfg.seed, cfg.tolerance_table(), cfg.quadrature_spec())
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return 1 if failed else 0


@functools.cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmc",
        description="generalized matrix coefficients: series tables, "
        "pointwise coefficients, mollifier studies, property suites",
    )
    parser.add_argument("--config", help="JSON run configuration (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torus-series", help="partial Fourier sums against a test function")
    p.add_argument("coeffs", help="sequence spec, e.g. comb, unit:3, poly:2, geometric:0.5")
    p.add_argument("test_function", help="test function spec, e.g. band:8:fejer")
    p.add_argument("--m-max", type=int, required=True, help="largest partial-sum order")
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_torus_series)

    p = sub.add_parser("wigner", help="pointwise coefficient table on a (p, q) grid")
    p.add_argument("phi", help="vector spec, e.g. e:0, delta, gauss:0.8")
    p.add_argument("psi", help="vector spec for the pairing side")
    p.add_argument("--grid", required=True, help="grid spec p0:p1:np,q0:q1:nq")
    p.add_argument(
        "--mollify",
        help="smooth distribution inputs with J_n: an index or mollifier:n=<k>:radius=<rho>",
    )
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_wigner)

    p = sub.add_parser("mollify", help="smooth-approximation residual table")
    p.add_argument("--group", choices=("torus", "heisenberg"), required=True)
    p.add_argument("eta", help="vector being mollified")
    p.add_argument("zeta", help="pairing partner vector")
    p.add_argument("test_function", help="test function spec")
    p.add_argument("--n", required=True, help="comma-separated mollifier indices, e.g. 2,4,8")
    p.add_argument("--radius", type=float, default=0.25, help="bump profile radius")
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_mollify)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument(
        "suite",
        help="uea | torus-covariance | heisenberg-covariance | mollifier | smoothing | structure",
    )
    p.add_argument("--seed", type=int, help="seed for the randomized cases")
    p.add_argument("--tol", action="append", help="tolerance override KEY=VALUE (repeatable)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except GmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
