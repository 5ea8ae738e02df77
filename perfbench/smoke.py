#!/usr/bin/env python3
"""Smoke check of the benchmark: a tiny run of every workload, both modes.

    python3 perfbench/smoke.py

Run from the repository root. Every workload in BENCHMARK.json runs for
one second on a tiny graph, once with --trace 0 and once with --trace 1.
The check fails unless each run exits 0 and ends with a JSON line that
has exactly the keys correct, attempted, failed and metrics; verifies
correct; and reports exactly the metrics (names and units) BENCHMARK.json
lists for that mode: end_to_end for --trace 0, per_layer for --trace 1.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, expected):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        return f"exited with {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"keys {sorted(result)}"
    if result["correct"] is not True:
        return "results did not verify"
    if not 0 <= result["failed"] <= result["attempted"] or result["attempted"] < 1:
        return f"attempted {result['attempted']}, failed {result['failed']}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics {got}, expected {expected}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in modes.items():
            problem = check(workload, trace, {m["name"]: m["unit"] for m in metrics})
            status = problem or "ok"
            print(f"{workload:10} --trace {trace}: {status}", flush=True)
            if problem:
                problems.append(f"{workload} --trace {trace}")
    if problems:
        sys.exit("smoke check failed: " + ", ".join(problems))


if __name__ == "__main__":
    main()
