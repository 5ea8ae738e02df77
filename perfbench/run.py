#!/usr/bin/env python3
"""Builds the RPQd benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and compiles
the library and the driver (Release) into $CARGO_TARGET_DIR, default
.bench_build/; later calls rebuild only what changed. Build output goes to
stderr, so the last line of stdout is the driver's JSON result. Exits
non-zero, printing no result, when the sources are missing, the build
fails, or the driver fails or runs past its time limit.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"RPQd sources not found under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def git_sha():
    """The commit being measured, or 'unknown' outside a git checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or pathlib.Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, for smoke.py")
    args = parser.parse_args()

    driver = build(build_dir())
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver ran past {DRIVER_TIMEOUT_S} s")
    if done.returncode:
        fail(f"driver exited with code {done.returncode}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
