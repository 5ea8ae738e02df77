#!/usr/bin/env python3
"""Paired perfbench comparison of two commits.

    python3 bench/perfbench_pairs.py BASE CHANGE --workload point --pairs 10 \\
        [--workload bi ...] [--first-seed 11] [--seconds 15] [--trace 0]

Checks BASE and CHANGE out with `git worktree` into a temporary
directory, each built into its own CARGO_TARGET_DIR, and runs
`perfbench/run.py` of each checkout in pairs: pair i uses seed
first-seed + i on both sides, and the side that runs first alternates.
Per workload and metric it prints each side's median and quartiles, the
median of the per-pair ratios CHANGE/BASE, and how many pairs CHANGE won
(ties count for neither side). A gain is claimable when at least ten
pairs ran, CHANGE wins at least nine tenths of them, and the medians
differ by more than the distance between BASE's quartiles. Exits non-zero if a run fails or
reports a wrong result. Run from inside the repository.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(checkout, build, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    env = {**os.environ, "CARGO_TARGET_DIR": str(build)}
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode:
        sys.exit(f"{checkout.name} seed {seed}: run.py exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit(f"{checkout.name} seed {seed}: wrong result")
    if result["failed"] and len(lines) > 1:
        # perfbench's run-context line: timeouts, slowest correct read, steal.
        print(f"  {checkout.name} seed {seed}: {result['failed']} failed; "
              f"{lines[-2]}", flush=True)
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def report(workload, runs, better):
    base, change = runs["base"], runs["change"]
    pairs = len(base)
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{workload} {side}: failed {failed} of {attempted} operations")
    header = (f"{'metric':30} {'base med':>10} {'[q1, q3]':>21} "
              f"{'change med':>10} {'[q1, q3]':>21} {'ratio':>6} {'wins':>6}  claim")
    print(header)
    for name in base[0]["metrics"]:
        if not all(name in r["metrics"] for r in base + change):
            continue
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        b_med, b_q1, b_q3 = quartiles(b)
        c_med, c_q1, c_q3 = quartiles(c)
        ratios = [y / x for x, y in zip(b, c) if x]
        ratio = statistics.median(ratios) if ratios else float("nan")
        higher = better.get(name) == "higher"
        wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
        gained = c_med > b_med if higher else c_med < b_med
        claim = (pairs >= 10 and gained and wins * 10 >= pairs * 9 and
                 abs(c_med - b_med) > b_q3 - b_q1)
        print(f"{name:30} {b_med:10.4g} [{b_q1:9.4g}, {b_q3:9.4g}] "
              f"{c_med:10.4g} [{c_q1:9.4g}, {c_q3:9.4g}] {ratio:6.3f} "
              f"{wins:2}/{pairs:<3}  {'yes' if claim else 'no'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.pairs < 2:
        sys.exit("need at least two pairs for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec.get("per_layer", [])}

    with tempfile.TemporaryDirectory(prefix="perfbench-pairs-") as tmp:
        sides = {}
        try:
            for side in ("base", "change"):
                commit = git("rev-parse", "--verify",
                             getattr(args, side) + "^{commit}")
                checkout = pathlib.Path(tmp) / side
                git("worktree", "add", "--detach", str(checkout), commit)
                sides[side] = (checkout, pathlib.Path(tmp) / f"{side}-build")
                print(f"{side}: {commit}", flush=True)
            for workload in args.workload:
                runs = {"base": [], "change": []}
                for i in range(args.pairs):
                    seed = args.first_seed + i
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    for side in order:
                        checkout, build = sides[side]
                        runs[side].append(run_once(checkout, build, workload, seed,
                                                   seconds, args.trace))
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} "
                          f"({order[0]} first):", flush=True)
                    for side in ("base", "change"):
                        metrics = runs[side][-1]["metrics"]
                        print(f"  {side:6} " + "  ".join(
                            f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                            flush=True)
                report(workload, runs, better)
        finally:
            for checkout, _ in sides.values():
                git("worktree", "remove", "--force", str(checkout))


if __name__ == "__main__":
    main()
