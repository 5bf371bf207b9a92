"""gmc benchmark: seeded request workloads, checked against an independent oracle.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program under test is imported from ./src and nowhere else. One client
sends requests in a closed loop (each waits for the previous one) through
gmc's public entry points: gmc.cli.main in-process, plus gmc.functionals and
gmc.torus library calls where the CLI has no verb. Requests come in whole
blocks of a fixed op mix (see workloads.py), as many as the workload's
nominal block time fits into --seconds. After the timed pass every output is
checked against oracle.py, which shares no code with gmc.

--trace 0 prints the end-to-end metrics; --trace 1 runs a warm-up, an
untraced and a traced pass of a third of the time each and prints the
per-layer metrics (see spans.py). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Tolerances as gmc.config states them for each path at the commit that
# defined this benchmark. They are copied, not imported, so that loosening
# the program's own table cannot loosen the benchmark's check.
TORUS_EXACT = 1e-13  # circle band sums, spectrally exact
PAIR_ABS_TOL = 1e-12  # adaptive pairing cutoff
MASS_TOL = 1e-10  # mollifier pushforward
QUADRATURE_CHECK = 1e-7  # Heisenberg quadrature kernels
HEISENBERG_FD = 5e-5  # Heisenberg smoothing with finite-difference Lie derivatives

SETUP_SPAWNS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# One BLAS thread. On the 2-CPU reference machine, two threads made the same
# seed's pass time vary by 11-20% between repeats, and one thread by about 3%,
# at about the same median.
BLAS_THREADS = 1


def _cap_threads() -> None:
    """Fix BLAS/OpenMP threads for this process and its children (before numpy loads)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for entry in sorted(base.glob("index*")):
        try:
            level = (entry / "level").read_text().strip()
            kind = (entry / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (entry / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


# --------------------------------------------------------------------------
# running requests
# --------------------------------------------------------------------------


class Outcome:
    __slots__ = ("request", "latency", "code", "output", "error")

    def __init__(self, request, latency, code, output, error):
        self.request = request
        self.latency = latency
        self.code = code
        self.output = output
        self.error = error


class Runner:
    """Executes one request and records what it returned."""

    def __init__(self):
        import gmc.cli
        import gmc.functionals
        import gmc.heisenberg
        import gmc.mollify
        import gmc.specs
        import gmc.torus
        import gmc.uea

        self.cli = gmc.cli
        self.fn = gmc.functionals
        self.hb = gmc.heisenberg
        self.mo = gmc.mollify
        self.specs = gmc.specs
        self.tr = gmc.torus
        self.generators = {
            c: gmc.uea.UEAElement.generator(gmc.heisenberg.HEISENBERG_STRUCTURE, c) for c in "PQZ"
        }
        self.one = gmc.uea.UEAElement.one(gmc.heisenberg.HEISENBERG_STRUCTURE)

    def run(self, request) -> Outcome:
        if request.argv:
            return self._run_cli(request)
        return self._run_lib(request)

    def _run_cli(self, request) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(request.argv))
            error = err.getvalue().strip() or None
        except Exception as exc:  # an uncaught exception is a failed request
            code, error = None, _describe(exc)
        latency = time.perf_counter() - start
        return Outcome(request, latency, code, out.getvalue(), error)

    def _run_lib(self, request) -> Outcome:
        start = time.perf_counter()
        try:
            op = self._torus_pointwise if request.op == "lib.torus-pointwise" else self._functional
            value = op(request.params)
            code, error = 0, None
        except Exception as exc:
            value, code, error = None, None, _describe(exc)
        latency = time.perf_counter() - start
        return Outcome(request, latency, code, value, error)

    def _torus_pointwise(self, params):
        a = self.specs.parse_vector("torus", params["a"])
        b = self.specs.parse_vector("torus", params["b"])
        view = self.tr.pointwise_coefficient(a, b)
        return [view(t) for t in params["t"]]

    def _word(self, letters):
        d = self.one
        for c in letters:
            d = d * self.generators[c]
        return d

    def _functional(self, params):
        hb, fn = self.hb, self.fn
        phi = self.specs.parse_vector("heisenberg", params["phi"])
        psi = self.specs.parse_vector("heisenberg", params["psi"])
        F = fn.gmc_functional(phi, psi, hb.HEISENBERG)
        for kind, arg in params["ops"]:
            if kind == "Lt":
                F = fn.left_translate(F, hb.HeisenbergElement(*arg))
            elif kind == "Rt":
                F = fn.right_translate(F, hb.HeisenbergElement(*arg))
            elif kind == "Ld":
                F = fn.left_derive(F, self._word(arg))
            else:
                F = fn.right_derive(F, self._word(arg))
        f = self.mo.standard_mollifier(hb.HEISENBERG, n=params["n"], radius=params["radius"])
        return [F.evaluate(f)]


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    where = f" at {Path(frame.filename).name}:{frame.lineno}" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"


def run_requests(runner, requests, tracer=None) -> tuple[list, float]:
    """Send the requests in a closed loop; returns the outcomes and their total latency."""
    outcomes = []
    elapsed = 0.0
    for request in requests:
        gc.collect()  # the previous request's garbage is not this one's latency
        if tracer is not None:
            tracer.request_id = len(outcomes)
        outcome = runner.run(request)
        elapsed += outcome.latency
        outcomes.append(outcome)
    return outcomes, elapsed


def block_count(workload, seconds: float) -> int:
    """Blocks in a pass: the seconds over the nominal block time, at least one.

    Fixing the count before the pass starts gives every run of a workload
    the same number of requests of each op class, so the percentiles fall
    at the same ranks.
    """
    return max(1, round(seconds / workload.nominal_block_s))


def _clear_caches() -> None:
    """Empty every memo cache in the gmc modules (functools caches)."""
    for name, module in list(sys.modules.items()):
        if name == "gmc" or name.startswith("gmc."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def measure_setup(workload, root: Path) -> tuple[float, list]:
    """Median wall time of fresh interpreters running the smallest canonical request."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    times, outputs = [], []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gmc.cli", *workload.setup.argv],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        outputs.append(Outcome(workload.setup, times[-1], proc.returncode, proc.stdout, proc.stderr.strip() or None))
    return statistics.median(times), outputs


# --------------------------------------------------------------------------
# checking against the oracle
# --------------------------------------------------------------------------


def _csv(text: str, header: list[str]) -> list[list[float]]:
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"unexpected CSV header {lines[:1]}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    return rows


def _close(got: complex, ref: complex, tol: float) -> bool:
    return abs(got - ref) <= tol


def _finite(values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)


def _grid_axes(spec: str):
    import numpy as np

    axes = []
    for part in spec.split(","):
        lo, hi, count = part.split(":")
        axes.append(np.linspace(float(lo), float(hi), int(count)))
    return axes


def check(outcome, oracle) -> str | None:
    """None when the output matches the oracle, else the reason it failed."""
    if outcome.code is None:
        return outcome.error or "uncaught exception"
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.error}"
    op, p = outcome.request.op, outcome.request.params
    if op == "cli.torus-series":
        rows = _csv(outcome.output, ["m", "partial_sum_re", "partial_sum_im", "residual_vs_limit"])
        ref, mass = oracle.torus_series(p["coeffs"], p["band"], p["m_max"])
        tol = TORUS_EXACT * (1.0 + mass)
        return _compare_rows(rows, ref, tol)
    if op == "cli.mollify-torus":
        rows = _csv(outcome.output, ["n", "value_re", "value_im", "residual"])
        ref, mass = oracle.torus_mollify(p["eta"], p["zeta"], p["band"], p["n"], p["radius"])
        tol = TORUS_EXACT * (1.0 + mass) + MASS_TOL * mass
        return _compare_rows(rows, ref, tol)
    if op == "lib.torus-pointwise":
        values = outcome.output
        if not _finite(values):
            return "non-finite value"
        for t, got in zip(p["t"], values):
            ref, mass = oracle.torus_pointwise(p["a"], p["b"], t)
            if not _close(got, ref, PAIR_ABS_TOL + TORUS_EXACT * mass):
                return f"t={t}: got {got!r}, reference {ref!r}"
        return None
    if op.startswith("lib.functional-deg"):
        (got,) = outcome.output
        if not _finite([got]):
            return "non-finite value"
        ref = oracle.functional_value(p["phi"], p["psi"], p["n"], p["radius"], p["ops"])
        if not _close(got, ref, HEISENBERG_FD * (1.0 + abs(ref))):
            return f"got {got!r}, reference {ref!r}"
        return None
    if op == "cli.mollify-heisenberg":
        rows = _csv(outcome.output, ["n", "value_re", "value_im", "residual"])
        base = oracle.mollified_value(p["eta"], p["zeta"], p["center"], p["bump_radius"], p["mass"], None, p["radius"])
        ref = []
        for n in p["n"]:
            v = oracle.mollified_value(p["eta"], p["zeta"], p["center"], p["bump_radius"], p["mass"], n, p["radius"])
            ref.append((n, v, abs(v - base)))
        scale = 1.0 + max(abs(r[1]) for r in ref)
        return _compare_rows(rows, ref, HEISENBERG_FD * scale)
    if op == "cli.wigner":
        rows = _csv(outcome.output, ["p", "q", "re", "im", "abs"])
        ps, qs = _grid_axes(p["grid"])
        ref = oracle.fourier_wigner_grid(p["phi"], p["psi"], ps, qs)
        if len(rows) != ref.size:
            return f"{len(rows)} rows for a grid of {ref.size} points"
        for row, (a, b) in zip(rows, [(a, b) for a in range(len(ps)) for b in range(len(qs))]):
            got = complex(row[2], row[3])
            want = complex(ref[a, b])
            if not _finite([got, row[4]]):
                return f"non-finite value at p={row[0]}, q={row[1]}"
            if row[0] != ps[a] or row[1] != qs[b]:
                return f"grid point ({row[0]}, {row[1]}) out of order"
            tol = QUADRATURE_CHECK * (1.0 + abs(want))
            if not _close(got, want, tol) or abs(row[4] - abs(got)) > tol:
                return f"p={row[0]:.4g}, q={row[1]:.4g}: got {got!r}, reference {want!r}"
        return None
    if op == "cli.verify":
        return _check_suite(outcome.output, EXPECTED_SUITES[p["suite"]])
    raise ValueError(f"no check for op {op!r}")


def _compare_rows(rows, ref, tol) -> str | None:
    if len(rows) != len(ref):
        return f"{len(rows)} rows, expected {len(ref)}"
    for row, (key, value, residual) in zip(rows, ref):
        got = complex(row[1], row[2])
        if not _finite([got, row[3]]):
            return f"non-finite value in row {key}"
        if row[0] != key:
            return f"row key {row[0]}, expected {key}"
        if not _close(got, value, tol) or abs(row[3] - residual) > 2 * tol:
            return f"row {key}: got {got!r} (residual {row[3]!r}), reference {value!r} ({residual!r})"
    return None


def _check_suite(text: str, expected) -> str | None:
    lines = text.strip().splitlines()
    if len(lines) != len(expected) + 1:
        return f"{len(lines) - 1} property lines, expected {len(expected)}"
    for line, (name, relation, bound) in zip(lines, expected):
        head, _, rest = line.partition(": ")
        status, _, got_name = head.partition(" ")
        if got_name != name:
            return f"property {got_name!r}, expected {name!r}"
        value_text, rel, bound_text = rest.split(" ")
        value = float(value_text.split("=")[1])
        got_bound = float(bound_text.split("=")[1])
        if rel != relation or abs(got_bound - bound) > 1e-6 * abs(bound):
            return f"{name}: bound {rel} {got_bound}, expected {relation} {bound}"
        holds = value <= bound if relation == "<=" else value >= bound
        if status != "PASS" or not holds or not math.isfinite(value):
            return f"{name}: {line}"
    if lines[-1] != f"{len(expected)}/{len(expected)} properties passed":
        return f"summary line {lines[-1]!r}"
    return None


# Property rows of each suite with their relation and bound, as the suites
# state them at the commit that defined this benchmark.
EXPECTED_SUITES = {
    "uea": [
        ("normal-ordering-confluence", "<=", 0.0),
        ("transpose-involution", "<=", 0.0),
        ("transpose-antiautomorphism", "<=", 0.0),
        ("antipode-equals-transpose", "<=", 0.0),
        ("torus-relation-table", "<=", 0.0),
        ("heisenberg-qp-normal-form", "<=", 0.0),
        ("weyl-relation-representation", "<=", 1e-12),
    ],
    "torus-covariance": [
        ("right-translation-covariance", "<=", TORUS_EXACT),
        ("left-translation-covariance", "<=", TORUS_EXACT),
        ("left-derivative-covariance", "<=", TORUS_EXACT),
        ("right-derivative-covariance", "<=", TORUS_EXACT),
    ],
    "heisenberg-covariance": [
        ("right-translation-covariance", "<=", HEISENBERG_FD),
        ("left-translation-covariance", "<=", HEISENBERG_FD),
        ("right-derivative-covariance", "<=", HEISENBERG_FD),
        ("left-derivative-covariance", "<=", HEISENBERG_FD),
        ("right-translation-functoriality", "<=", HEISENBERG_FD),
    ],
    "mollifier": [
        ("mollifier-unit-mass", "<=", MASS_TOL),
        ("torus-pairing-monotone", "<=", 0.0),
        ("torus-pairing-residual-n64", "<=", 1e-6),
        ("torus-gmc-approx-decreasing", "<=", 0.0),
        ("heisenberg-gmc-approx-decreasing", "<=", 0.0),
        ("mollify-decay-certificate-N40", "<=", -1.0),
        ("mollify-decay-certificate-N56", "<=", -1.0),
    ],
    "smoothing": [
        ("left-derivative-route-ground-state", "<=", HEISENBERG_FD),
        ("right-derivative-route-ground-state", "<=", HEISENBERG_FD),
        ("left-derivative-route-delta", "<=", HEISENBERG_FD),
        ("right-derivative-route-delta", "<=", HEISENBERG_FD),
        ("rapid-decay-certificate-ground-state-N40", "<=", -4.0),
        ("rapid-decay-certificate-delta-N40", "<=", -1.0),
        ("rapid-decay-certificate-ground-state-N56", "<=", -4.0),
        ("rapid-decay-certificate-delta-N56", "<=", -1.0),
    ],
    "structure": [
        ("torus-semi-invariance", "<=", TORUS_EXACT),
        ("heisenberg-delta-semi-invariance", "<=", HEISENBERG_FD),
        ("torus-disjoint-orthogonality", "<=", 0.0),
        ("torus-projection-commutation", "<=", 0.0),
        ("injectivity-witness-search", ">=", 1e-6),
        ("torus-structure-witness", "<=", TORUS_EXACT),
        ("heisenberg-structure-witness", "<=", HEISENBERG_FD),
    ],
}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no such percentile exists and the maximum
    (percentile 100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def request_mix(outcomes) -> dict[str, float]:
    counts: dict[str, int] = {}
    for o in outcomes:
        counts[o.request.op] = counts.get(o.request.op, 0) + 1
    return {op: round(c / len(outcomes), 4) for op, c in sorted(counts.items())}


def traced_run(runner, workload, seed: int, seconds: float, gmc_error: type, spans_path: Path):
    """Untraced and traced passes over the same requests, a third of the time each.

    A first, discarded pass over the requests grows the process's memory to
    its working size. The two measured passes then start from the same cold
    program caches, so their throughputs differ only by the tracing. Returns
    the per-layer metrics, both measured passes' outcomes and the span count;
    the spans go to spans_path.
    """
    import spans
    import workloads

    requests = workload.requests(seed, block_count(workload, seconds / 3))
    runner.run(workload.setup)
    run_requests(runner, requests)
    _clear_caches()
    runner.run(workload.setup)
    plain, plain_s = run_requests(runner, requests)
    _clear_caches()
    runner.run(workload.setup)
    tracer = spans.Tracer(gmc_error)
    tracer.install()
    try:
        traced, traced_s = run_requests(runner, requests, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics(workloads.SUITES).items()}
    overhead = 1.0 - (len(traced) / traced_s) / (len(plain) / plain_s)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics, plain + traced, len(tracer.spans)


def end_to_end(outcomes, elapsed: float, setup_s: float, peak_rss_mb: float, failed: int):
    latencies = [o.latency for o in outcomes]
    pct, tail = tail_latency(latencies)
    metrics = {
        "op_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
        "op_ptail_ms": {"value": 1000.0 * tail, "unit": "ms"},
        "ops_per_s": {"value": len(outcomes) / elapsed, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ok_frac": {"value": (len(outcomes) - failed) / len(outcomes), "unit": "frac"},
    }
    return metrics, pct


def check_all(outcomes, oracle):
    """(failures, unverified): requests that failed, and outputs the oracle could not check."""
    failures, unverified = [], []
    for o in outcomes:
        try:
            reason = check(o, oracle)
        except oracle.OracleError as exc:
            unverified.append(f"{o.request.op} {' '.join(o.request.argv) or o.request.params}: {exc}")
            continue
        except (ValueError, IndexError) as exc:
            reason = f"output not parseable: {_describe(exc)}"
        if reason is not None:
            failures.append((o.request, reason))
    return failures, unverified


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gmc" / "__init__.py").is_file():
        print(f"error: no gmc sources under {root / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import gmc

    if Path(gmc.__file__).resolve().parent != (root / "src" / "gmc").resolve():
        print(f"error: imported gmc from {gmc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner()
    detail = {"workload": args.workload, "seed": args.seed, "machine": _machine()}

    if args.trace:
        spans_path = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, checked, detail["span_count"] = traced_run(
            runner, workload, args.seed, args.seconds, gmc.errors.GmcError, spans_path
        )
        detail["spans"] = str(spans_path.relative_to(root))
        setup_outcomes = []
    else:
        setup_s, setup_outcomes = measure_setup(workload, root)
        runner.run(workload.setup)  # lazy set-up (imports, caches) finishes before timing
        requests = workload.requests(args.seed, block_count(workload, args.seconds))
        checked, elapsed = run_requests(runner, requests)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["timed_s"] = elapsed

    check_start = time.perf_counter()
    failures, unverified = check_all(checked, oracle)
    setup_failures, setup_unverified = check_all(setup_outcomes, oracle)
    detail["check_s"] = time.perf_counter() - check_start

    if not args.trace:
        metrics, pct = end_to_end(checked, elapsed, setup_s, peak_rss_mb, len(failures))
        detail.update(samples=len(checked), tail_percentile=round(pct, 3), setup_spawns=SETUP_SPAWNS)
    detail["request_mix"] = request_mix(checked)
    detail["failures_by_op"] = {}
    for request, _ in failures:
        detail["failures_by_op"][request.op] = detail["failures_by_op"].get(request.op, 0) + 1
    detail["failure_examples"] = [f"{r.op} {' '.join(r.argv) or r.params}: {why}" for r, why in failures[:5]]
    detail["unverified"] = unverified + setup_unverified
    detail["setup_mismatches"] = [why for _, why in setup_failures]

    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']!r} {m['unit']}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not detail["unverified"] and not setup_failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
