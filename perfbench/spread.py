#!/usr/bin/env python3
"""Runs a workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload bi --runs 10 [--trace 0]

For every metric: the median over the runs, the quartiles from
statistics.quantiles(values, n=4), and the spread (third minus first
quartile, as a share of the median) against the bound in BENCHMARK.json.
Run from the repository root; exits non-zero if a run fails or an
end-to-end spread other than setup_s exceeds its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, failed, attempted = {}, 0, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", args.trace]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode:
            sys.exit(f"seed {seed}: run.py exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        failed += result["failed"]
        attempted += result["attempted"]
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
        if len(lines) > 1:
            print("  " + lines[-2])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: failed {failed} of {attempted} operations")
    print(f"{'metric':34} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    too_wide = []
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:34} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} "
              f"{bound if bound is not None else '':>6}")
        if bound is not None and name != "setup_s" and spread > bound:
            too_wide.append(name)
    if too_wide:
        sys.exit("spread above bound: " + ", ".join(too_wide))


if __name__ == "__main__":
    main()
