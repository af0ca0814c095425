#!/usr/bin/env python3
"""Build and run the smarts time-to-estimate benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload twopass_cold --seed 1 \
        --seconds 10 --trace 0

It configures and builds perfbench/ (the library from ../src plus the
benchmark) in Release mode under $CARGO_TARGET_DIR (default
.bench_build), runs one workload in its own process with a temporary
store root under the build directory, removes that root, and passes
the benchmark's output through: the last stdout line is the JSON
result. --pin rewrites perfbench/pins.txt for the workload at the
default seed. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["twopass_cold", "anytime_warm", "anytime_cold", "matched_sweep"]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the workload's pins (default seed)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    stores = os.path.join(build_dir, "stores")
    os.makedirs(stores, exist_ok=True)
    store_root = tempfile.mkdtemp(prefix="run-", dir=stores)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--pins", os.path.join(HERE, "pins.txt"),
        "--store-root", store_root,
    ]
    if args.pin:
        command.append("--pin")
    try:
        sys.stdout.flush()
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
