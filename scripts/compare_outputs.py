"""Compare the outputs of the benchmark's requests between this checkout and another.

    python3 scripts/compare_outputs.py OTHER_CHECKOUT [--seeds 1,2,3] [--blocks 3] \
        [--workloads wigner-table,circle-mollify]

Each checkout runs the requests that perfbench/workloads.py draws for every listed
workload and seed (that many blocks each) through perfbench/run.py's Runner, in one
subprocess that imports that checkout's own src/ and perfbench/. The requests'
(code, output, error) are compared one by one; the script prints the requests that
differ and exits 1 if any do, 0 if none do.

Each differing request is sized: per line of its output (a returned value is one
line), the largest change of a number over 1 + the line's largest |number|, read on
both sides. A difference anywhere but in the numbers (the exit code, the text around
them, how many there are) sizes as inf. The last line gives the largest size over all
requests, so a change in the last digits reads apart from a wrong value.
"""
from __future__ import annotations

import argparse
import ast
import json
import math
import re
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _flatten(value) -> list:
    """The numbers of a returned value, a complex one as its two parts; anything
    else stays as it is, to be compared as a whole."""
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _flatten(item)]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return [float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else value]


def _lines(text: str) -> list[tuple[str, list]]:
    """(skeleton, numbers) per line: a CLI output's lines with their numbers cut out,
    or a returned value as one line."""
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        value = text
    if not isinstance(value, str):
        items = _flatten(value)
        numbers = [x for x in items if isinstance(x, float)]
        return [(repr([x if not isinstance(x, float) else "#" for x in items]), numbers)]
    return [(_NUMBER.sub("#", line), [float(t) for t in _NUMBER.findall(line)]) for line in value.splitlines()]


def change_size(this: list, other: list) -> float:
    """The largest change of a number between two request records, over 1 + the
    largest |number| of its line: 0 when they are equal, inf when they differ in
    anything but the numbers."""
    if this[4] != other[4]:
        return math.inf
    a_lines = _lines(this[5]) + _lines(repr(this[6]))
    b_lines = _lines(other[5]) + _lines(repr(other[6]))
    if [a for a, _ in a_lines] != [b for b, _ in b_lines]:
        return math.inf
    size = 0.0
    for (_, xs), (_, ys) in zip(a_lines, b_lines):
        scale = 1.0 + max((abs(v) for v in xs + ys if math.isfinite(v)), default=0.0)
        for x, y in zip(xs, ys):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                change = abs(x - y) / scale  # nan when one side is nan
                size = math.inf if math.isnan(change) else max(size, change)
    return size


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
    sizes = []
    for a, b in zip(ours, theirs):
        if a[4:] != b[4:]:
            sizes.append(change_size(a, b))
            print(f"{a[0]} seed {a[1]} {a[2]} {a[3]}")
            print(f"  this:  code={a[4]} output={a[5]} error={a[6]}")
            print(f"  other: code={b[4]} output={b[5]} error={b[6]}")
            print(f"  largest change {sizes[-1]:.3g} x (1 + the line's largest |value|)")
    summary = f"{len(sizes)} of {len(ours)} requests differ"
    if sizes:
        summary += f"; largest change {max(sizes):.3g} x (1 + the line's largest |value|)"
    print(summary)
    return 1 if sizes else 0


if __name__ == "__main__":
    sys.exit(main())
