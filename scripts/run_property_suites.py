#!/usr/bin/env python3
"""Run every verification suite and print a compact summary.

Usage: python scripts/run_property_suites.py [--seed N]... [--lines]

--seed may be given several times; the suites run once per seed, in the order
given (default: the seed `gmc verify` uses). With --lines, each suite prints
exactly what `gmc verify SUITE --seed N` prints, seed by seed and suite by suite
in name order, so two checkouts compare with one diff of this output.
"""
import argparse
import sys
import time

from gmc import cli
from gmc.specs import RunConfig
from gmc.suites import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--lines", action="store_true")
    args = parser.parse_args()

    any_failed = False
    for seed in args.seed or [RunConfig().seed]:
        for name in sorted(SUITES):
            if args.lines:
                any_failed |= cli.main(["verify", name, "--seed", str(seed)]) != 0
                continue
            t0 = time.perf_counter()
            results = run_suite(name, seed)
            elapsed = time.perf_counter() - t0
            failed = [r for r in results if not r.passed]
            any_failed = any_failed or bool(failed)
            status = "ok " if not failed else "FAIL"
            print(
                f"[{status}] {name:<24} seed {seed}: {len(results) - len(failed)}/{len(results)} properties"
                f"  ({elapsed:.2f} s)"
            )
            for r in failed:
                print("   " + r.line())
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
