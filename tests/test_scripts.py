"""Smoke tests of the scripts under scripts/ (each runs as a subprocess), of the bench
script's aggregation on canned output, and of the benchmark's tracer on the current tree."""
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import gmc
import gmc.cli
import gmc.functionals
import gmc.groups
import gmc.heisenberg
import gmc.hermite
import gmc.mollify
import gmc.specs
import gmc.suites
import gmc.torus
import gmc.uea
import gmc.vectors
import pytest
from gmc.errors import GmcError

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    src = str(Path(gmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env
    )


def test_property_suites_script_passes_all_six():
    proc = _run_script("run_property_suites.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum(line.startswith("[ok ]") for line in proc.stdout.splitlines()) == 6


def test_property_suites_script_lines_are_gmc_verify_output():
    proc = _run_script("run_property_suites.py", "--lines", "--seed", "1", "--seed", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        for seed in (1, 2):
            for suite in sorted(gmc.suites.SUITES):
                assert gmc.cli.main(["verify", suite, "--seed", str(seed)]) == 0
    assert len(gmc.suites.SUITES) == 6
    assert proc.stdout == expected.getvalue()


def test_mollifier_study_script_writes_both_tables(tmp_path):
    proc = _run_script("run_mollifier_study.py", "--out-dir", str(tmp_path), "--n", "2,4")
    assert proc.returncode == 0, proc.stderr
    for name in ("torus_comb.csv", "heisenberg_delta.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "n,value_re,value_im,residual"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4"]


def _bindings():
    """Every name the tracer may rebind: module globals, class attributes, model fields."""
    out = {}
    for name, module in sys.modules.items():
        if name == "gmc" or name.startswith("gmc."):
            out.update({(name, key): value for key, value in vars(module).items()})
    for cls in (gmc.functionals.GMCFunctional, gmc.mollify.BumpProfile, gmc.vectors.CoefficientVector):
        out.update({(cls, key): value for key, value in vars(cls).items()})
    for model in (gmc.torus.TORUS, gmc.heisenberg.HEISENBERG):
        out.update({(model.name, key): value for key, value in vars(model).items()})
    return out


def test_compare_outputs_script_finds_no_difference_with_itself():
    proc = _run_script(
        "compare_outputs.py", str(ROOT), "--seeds", "1", "--blocks", "1", "--workloads", "wigner-table,circle-mollify"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 of 12 requests differ"


def _script_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_sizes_each_difference(monkeypatch, capsys, tmp_path):
    compare = _script_module("compare_outputs")
    csv = "n,value_re,value_im,residual\n2,552.0,0,1.5\n4,0.25,0,3e-3\n"
    row = ["circle-mollify", 1, "cli.mollify-torus", "mollify ...", 0, repr(csv), None]

    def edited(output=csv, code=0, error=None):
        return row[:4] + [code, repr(output), error]

    assert compare.change_size(row, edited()) == 0.0
    # 552.0 -> 552.0000000000125 on a line whose largest |value| is 552
    moved = compare.change_size(row, edited(csv.replace("552.0", "552.0000000000125")))
    assert moved == pytest.approx(1.25e-11 / 553.0, rel=1e-3)
    assert compare.change_size(row, edited(csv.replace("3e-3", "4e-3"))) == pytest.approx(1e-3 / 5.0)
    # a returned value is one line; a complex repr reads as its two parts
    value = ["lib", 1, "lib.torus-pointwise", "{}", 0, repr([(1.5 - 2j), 0.25j]), None]
    nudged = value[:5] + [repr([(1.5 - 2.000001j), 0.25j]), None]
    assert compare.change_size(value, nudged) == pytest.approx(1e-6 / 3.0)
    # a real part that turns from 0 to 3e-33 moves the repr's layout, not the value's
    pure = value[:5] + [repr([-1.4876947157641291j]), None]
    mixed = value[:5] + [repr([(3.4666738998970245e-33 - 1.4876947157642784j)]), None]
    assert compare.change_size(pure, mixed) == pytest.approx(1.493e-13 / 2.4877, rel=1e-3)
    # anything but a number, and a number turned nan, is a wrong value
    for other in (edited(code=2), edited(csv.replace("n,", "m,")), edited(csv + "8,1,0,0\n"), edited(csv.replace("0.25", "nan"))):
        assert compare.change_size(row, other) == math.inf
    assert compare.change_size(row[:6] + ["error: at 10"], row[:6] + ["error: at 12"]) == pytest.approx(2.0 / 13.0)

    ours = [row, row, value]
    theirs = [edited(csv.replace("552.0", "552.0000000000125")), row, value]
    monkeypatch.setattr(compare, "run_checkout", lambda root, *args: ours if root == compare.ROOT else theirs)
    assert compare.main([str(tmp_path), "--seeds", "1", "--blocks", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    # the request, then its differing lines as this / other pairs, not both whole outputs
    assert out[:4] == [
        "circle-mollify seed 1 cli.mollify-torus mollify ...",
        "  line 2 this:  2,552.0,0,1.5",
        "  line 2 other: 2,552.0000000000125,0,1.5",
        "  largest change 2.26e-14 x (1 + the line's largest |value|)",
    ]
    assert out[-1] == "1 of 3 requests differ; largest change 2.26e-14 x (1 + the line's largest |value|)"
    monkeypatch.setattr(compare, "run_checkout", lambda root, *args: ours)
    assert compare.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 3 requests differ"
    # past three differing lines, a count of the rest; a line one side lacks reads (none)
    longer = edited(csv.replace("0.25", "0.5") + "8,1,0,0\n9,1,0,0\n", code=1, error="boom")
    monkeypatch.setattr(compare, "run_checkout", lambda root, *args: [row] if root == compare.ROOT else [longer])
    assert compare.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[1:9] == [
        "  code this:  0",
        "  code other: 1",
        "  line 3 this:  4,0.25,0,3e-3",
        "  line 3 other: 4,0.5,0,3e-3",
        "  line 4 this:  (none)",
        "  line 4 other: 8,1,0,0",
        "  2 more lines differ",
        "  largest change inf x (1 + the line's largest |value|)",
    ]


def test_benchmark_tracer_boundaries_resolve_in_the_current_tree():
    # the tracer looks each boundary up by name, and sums the bandwidth of circle
    # pushforwards (reading 0 where there is none): a deleted or renamed name must fail here
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr in spans.BOUNDARIES:
        target = importlib.import_module(module)
        for name in attr.split("."):
            assert hasattr(target, name), (module, attr)
            target = getattr(target, name)
        assert callable(target), (module, attr)
    f = gmc.mollify.push_forward(gmc.mollify.BumpProfile.standard(0.25).scaled(2), gmc.torus.TORUS)
    assert isinstance(f.bandwidth, int) and f.bandwidth > 0


def test_benchmark_tracer_wraps_and_restores_the_current_tree():
    # perfbench --trace 1 wraps every boundary in spans.BOUNDARIES by name; a rename
    # or a moved function in src/ breaks it, so install it here, read-only
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _bindings()
    tracer = spans.Tracer(GmcError)
    tracer.install()
    try:
        assert gmc.cli.main is not before[("gmc.cli", "main")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = gmc.cli.main(["wigner", "e:0", "e:0", "--grid=0:1:2,0:1:2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["heisenberg.fourier_wigner"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(ops, p50, failed=0):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "op_p50_ms": {"value": p50, "unit": "ms"}}
    detail = {"workload": "wigner-table", "machine": {"nproc": 2, "numpy": "x"}}
    result = {"correct": True, "attempted": 84, "failed": failed, "metrics": metrics}
    return "\n".join(
        [f"# wigner-table ops_per_s = {ops!r} 1/s", "# detail " + json.dumps(detail), json.dumps(result)]
    ) + "\n"


def test_bench_script_takes_medians_of_canned_runs():
    # the aggregation of scripts/bench.py, on perfbench output written out here (no runs)
    bench = _bench_module()
    result, detail = bench.parse_run(_canned_run(150.0, 3.0))
    assert detail["machine"]["nproc"] == 2 and result["attempted"] == 84
    base = bench.aggregate(
        [bench.parse_run(_canned_run(ops, p50))[0] for ops, p50 in ((150.0, 3.0), (170.0, 2.0), (160.0, 4.0))],
        ["ops_per_s", "op_p50_ms", "setup_s"],
    )
    assert base["runs"] == 3 and base["attempted"] == 252 and base["failed"] == 0 and base["correct"]
    assert base["metrics"]["ops_per_s"] == {"median": 160.0, "unit": "1/s", "values": [150.0, 170.0, 160.0]}
    assert base["metrics"]["op_p50_ms"]["median"] == 3.0
    assert "setup_s" not in base["metrics"]  # a metric no run reports is left out
    even = bench.aggregate([bench.parse_run(_canned_run(ops, 1.0, 1))[0] for ops in (100.0, 200.0)], ["ops_per_s"])
    assert even["metrics"]["ops_per_s"]["median"] == 150.0 and even["failed"] == 2
    change = bench.aggregate(
        [bench.parse_run(_canned_run(ops, p50))[0] for ops, p50 in ((300.0, 2.0), (170.0, 2.5), (320.0, 1.0))],
        ["ops_per_s", "op_p50_ms"],
    )
    got = bench.compare(base, change, {"ops_per_s": "higher", "op_p50_ms": "lower", "setup_s": "lower"})
    assert got["ops_per_s"] == {"median_ratio": 2.0, "better_pairs": 2, "pairs": 3}
    assert got["op_p50_ms"] == {"median_ratio": 2.0 / 3.0, "better_pairs": 2, "pairs": 3}
    assert "setup_s" not in got
    assert bench._seeds("1-3,7") == [1, 2, 3, 7]
    # a --trace 1 run prints the per-layer metrics, kept by name next to the medians
    layers = {
        "heisenberg.smooth_by.self_s": {"value": 0.75, "unit": "s"},
        "hermite.hermite_scaled.evals": {"value": 1.5e8, "unit": "count"},
        "trace.overhead_frac": {"value": 0.02, "unit": "frac"},
    }
    traced = {"correct": True, "attempted": 84, "failed": 0, "metrics": layers}
    text = "".join(f"# wigner-table {k} = {v['value']!r} {v['unit']}\n" for k, v in layers.items())
    result, _ = bench.parse_run(text + "# detail {}\n" + json.dumps(traced) + "\n")
    got = bench.per_layer(result, ["hermite.hermite_scaled.evals", "heisenberg.smooth_by.self_s", "cli.main.calls"])
    assert got == {
        "hermite.hermite_scaled.evals": {"value": 1.5e8, "unit": "count"},
        "heisenberg.smooth_by.self_s": {"value": 0.75, "unit": "s"},
    }


def test_bench_runs_read_no_checkout_bytecode(monkeypatch, tmp_path):
    # each perfbench run gets its own fresh bytecode prefix, outside the checkout, warmed
    # first by an interpreter that imports numpy and the standard library but not gmc
    bench = _bench_module()
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((argv, Path(cwd), env, prefix, prefix.is_dir() and not any(prefix.iterdir())))
        return subprocess.CompletedProcess(argv, 0, _canned_run(150.0, 3.0), "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    for seed in (1, 2):
        result, _ = bench.run_one(tmp_path, "wigner-table", seed, 1.0)
        assert result["attempted"] == 84
    assert len(seen) == 4
    prefixes = []
    for (warm, warm_cwd, warm_env, a, fresh), (run, run_cwd, run_env, b, _) in zip(seen[::2], seen[1::2]):
        assert fresh and a == b and warm_cwd == a and run_cwd == tmp_path
        assert warm == bench.WARM_COMMAND
        assert "PYTHONDONTWRITEBYTECODE" not in warm_env  # the warm-up writes the prefix
        assert run_env["PYTHONDONTWRITEBYTECODE"] == "1"  # the run compiles gmc afresh in every spawn
        assert run[1:3] == ["perfbench/run.py", "--workload"]
        prefixes.append(a)
    a, b = prefixes
    assert a != b and tmp_path not in a.parents and ROOT not in a.parents
    assert not a.exists() and not b.exists()  # removed after its run


def test_bench_warm_up_compiles_numpy_into_the_prefix(tmp_path):
    # the warm-up command itself, run for real: numpy's bytecode lands in the prefix, gmc's does not
    bench = _bench_module()
    assert "numpy" in bench.WARM_IMPORTS and not any(m.split(".")[0] == "gmc" for m in bench.WARM_IMPORTS)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        bench.WARM_COMMAND,
        cwd=tmp_path, env={**env, "PYTHONPYCACHEPREFIX": str(tmp_path)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    compiled = [p.parts for p in tmp_path.rglob("*.pyc")]
    assert any("numpy" in parts for parts in compiled)
    assert not any("gmc" in parts for parts in compiled)
