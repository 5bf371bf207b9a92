"""Compare the outputs of the benchmark's requests between this checkout and another.

    python3 scripts/compare_outputs.py OTHER_CHECKOUT [--seeds 1,2,3] [--blocks 3] \
        [--workloads wigner-table,circle-mollify]

Each checkout runs the requests that perfbench/workloads.py draws for every listed
workload and seed (that many blocks each) through perfbench/run.py's Runner, in one
subprocess that imports that checkout's own src/ and perfbench/. The requests'
(code, output, error) are compared one by one; the script prints the requests that
differ and exits 1 if any do, 0 if none do.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("circle-mollify", "heisenberg-smooth", "wigner-table", "verify-suites")

# Runs in the checkout given as argv[1]; prints one JSON list of request records last.
_CHILD = r"""
import json, sys
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import run
run._cap_threads()
import gmc, workloads
if Path(gmc.__file__).resolve().parent != root / "src" / "gmc":
    sys.exit(f"imported gmc from {gmc.__file__}, not from {root}")
runner = run.Runner()
records = []
for name in sys.argv[2].split(","):
    for seed in json.loads(sys.argv[3]):
        for request in workloads.WORKLOADS[name].requests(seed, int(sys.argv[4])):
            o = runner.run(request)
            label = " ".join(request.argv) or repr(request.params)
            records.append([name, seed, request.op, label, o.code, repr(o.output), o.error])
print()
print(json.dumps(records))
"""


def run_checkout(root: Path, workloads: list[str], seeds: list[int], blocks: int) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(root), ",".join(workloads), json.dumps(seeds), str(blocks)],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"requests failed to run in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--blocks", type=int, default=3, help="request blocks per workload and seed")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated workload names")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown or args.blocks < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--blocks must be at least 1")

    ours = run_checkout(ROOT, names, seeds, args.blocks)
    theirs = run_checkout(args.other.resolve(), names, seeds, args.blocks)
    if [r[:4] for r in ours] != [r[:4] for r in theirs]:
        print("the checkouts draw different requests")
        return 1
    differ = 0
    for a, b in zip(ours, theirs):
        if a[4:] != b[4:]:
            differ += 1
            print(f"{a[0]} seed {a[1]} {a[2]} {a[3]}")
            print(f"  this:  code={a[4]} output={a[5]} error={a[6]}")
            print(f"  other: code={b[4]} output={b[5]} error={b[6]}")
    print(f"{differ} of {len(ours)} requests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
