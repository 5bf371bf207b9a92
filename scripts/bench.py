"""Benchmark trajectory: run perfbench on one or more checkouts and write BENCH_<label>.json.

    python3 scripts/bench.py --label <label> --checkout base=<dir> --checkout change=<dir> \
        --workloads wigner-table,circle-mollify --seeds 1-5 --seconds 20

For every workload and seed, each checkout in turn runs

    python3 perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0

in a subprocess from its own root, so the checkouts alternate run by run, and the one
that goes first alternates from seed to seed (a seed may be listed twice). Each run gets
PYTHONPYCACHEPREFIX set to a fresh temporary directory, which perfbench's set-up spawns
inherit, so no run reads bytecode a checkout's src/gmc/__pycache__ already holds. Before
the run, one interpreter imports numpy and the standard library modules gmc loads (not
gmc) into that prefix, and the run has PYTHONDONTWRITEBYTECODE=1: every spawn then
compiles gmc from the checkout's sources, but not numpy, whose compile would otherwise
take most of a set-up spawn (0.8-1.0 s against 0.25-0.3 s). Then each
checkout runs the workload once more with --trace 1 on the first seed. The file holds,
per checkout and workload, each end-to-end metric of BENCHMARK.json with its values in
seed order and their median, the per-layer metrics of BENCHMARK.json from the traced
run, and the machine info from the runs' `# detail` line. With two or more checkouts,
each later one is compared with the first: per end-to-end metric, the median of the
per-seed ratios and the number of seeds on which it is better, in the direction
BENCHMARK.json gives.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# what a gmc spawn imports besides gmc, compiled into each run's fresh bytecode prefix
WARM_IMPORTS = (
    "numpy", "numpy.fft", "numpy.linalg", "numpy.polynomial", "numpy.random",
    "argparse", "cmath", "dataclasses", "json", "secrets",
)
WARM_COMMAND = [sys.executable, "-c", "import " + ", ".join(WARM_IMPORTS)]


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(result, detail): the final JSON line of a perfbench run and its `# detail` line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    detail = next((json.loads(line[len("# detail "):]) for line in lines if line.startswith("# detail ")), {})
    return result, detail


def aggregate(results: list[dict], metrics: list[str]) -> dict:
    """Per metric, the values of the runs in order and their median; plus run totals."""
    out = {"runs": len(results), "attempted": sum(r["attempted"] for r in results)}
    out["failed"] = sum(r["failed"] for r in results)
    out["correct"] = all(r["correct"] for r in results)
    out["metrics"] = {}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if values:
            unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
            out["metrics"][name] = {"median": statistics.median(values), "unit": unit, "values": values}
    return out


def per_layer(result: dict, names: list[str]) -> dict:
    """The listed per-layer metrics of a --trace 1 run, each as {"value", "unit"}."""
    return {name: result["metrics"][name] for name in names if name in result["metrics"]}


def compare(base: dict, other: dict, better: dict) -> dict:
    """Per metric: the median of other/base over paired runs, and the pairs where other is better."""
    out = {}
    for name, direction in better.items():
        if name not in base["metrics"] or name not in other["metrics"]:
            continue
        pairs = list(zip(base["metrics"][name]["values"], other["metrics"][name]["values"]))
        ratios = [b / a for a, b in pairs if a]
        wins = sum((b > a) if direction == "higher" else (b < a) for a, b in pairs)
        out[name] = {
            "median_ratio": statistics.median(ratios) if ratios else None,
            "better_pairs": wins,
            "pairs": len(pairs),
        }
    return out


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _commit(root: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return {"commit": head, "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))} if head else {}


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        writing = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        subprocess.run(WARM_COMMAND, cwd=cache, env={**writing, "PYTHONPYCACHEPREFIX": cache}, check=True, timeout=600)
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {root.name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument(
        "--checkout", action="append", required=True, help="NAME=DIR of a checkout to run (repeatable, in run order)"
    )
    parser.add_argument("--workloads", help="comma-separated workloads (default: all of BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-5", help="seeds as a list of ranges, e.g. 1-5 or 1,3,7")
    parser.add_argument("--seconds", type=float, default=20.0, help="--seconds of each perfbench run")
    parser.add_argument("--out-dir", default=str(ROOT), help="directory of BENCH_<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec.get("per_layer", [])]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    checkouts = [(name, Path(path).resolve()) for name, _, path in (c.partition("=") for c in args.checkout)]
    seeds = _seeds(args.seeds)

    runs = {name: {w: [] for w in workloads} for name, _ in checkouts}
    traced = {name: {} for name, _ in checkouts}
    machine = {}
    for w in workloads:
        for i, seed in enumerate(seeds):
            for name, root in checkouts if i % 2 == 0 else checkouts[::-1]:  # who goes first alternates
                start = time.perf_counter()
                result, detail = run_one(root, w, seed, args.seconds)
                machine = detail.get("machine", machine)
                runs[name][w].append(result)
                ops = result["metrics"].get("ops_per_s", {}).get("value")
                print(f"{w} seed {seed} {name}: ops_per_s {ops} ({time.perf_counter() - start:.0f} s)", file=sys.stderr)
        for name, root in checkouts:
            traced[name][w] = per_layer(run_one(root, w, seeds[0], args.seconds, trace=1)[0], layers)

    report = {
        "label": args.label,
        "command": (
            f"perfbench/run.py --seconds {args.seconds:g} --trace 0, seeds {args.seeds}, checkouts alternating;"
            f" per_layer from one --trace 1 run on seed {seeds[0]}"
        ),
        "machine": machine,
        "checkouts": {
            name: {
                **_commit(root),
                "workloads": {w: {**aggregate(runs[name][w], list(better)), "per_layer": traced[name][w]} for w in workloads},
            }
            for name, root in checkouts
        },
    }
    base = report["checkouts"][checkouts[0][0]]["workloads"]
    for name, _ in checkouts[1:]:
        ours = report["checkouts"][name]["workloads"]
        report["checkouts"][name]["against_first"] = {w: compare(base[w], ours[w], better) for w in workloads}
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
