#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quadrants32 --seed 1 --seconds 10 --trace 0

The library and the benchmark program are compiled with CMake into
`.bench_build/` at the checkout root (the first call configures and builds;
later calls only re-check the build). The program's standard output is passed
through; its last line is the JSON result. Build and run failures exit with
a non-zero code and print no result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nocdvfs_perfbench")
BUILD_JOBS = "2"


def build():
    """Configure once, then build only the benchmark target."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "nocdvfs_perfbench", "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: benchmark program exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    json.loads(lines[-1])  # a malformed result line fails loudly here
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
