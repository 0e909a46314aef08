#!/usr/bin/env python3
"""Build and run nvsim's benchmark of record.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels_2lm --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the driver (perfbench/driver/)
against the checkout's src/ into .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr, so the last line
of stdout is the driver's JSON result. The exit code is the driver's;
a missing source tree or a failed build exits 2 without a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("kernels_2lm", "kernels_1lm", "queued_load", "cnn_train")


def build(root, build_dir):
    """Configure (once) and build the driver; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    golden = os.path.join(root, "tests", "golden")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")) \
            or not os.path.isdir(golden):
        print("perfbench: no nvsim source tree (src/, tests/golden/) "
              "next to perfbench/", file=sys.stderr)
        return 2

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".bench_build", "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", golden, "--out-dir", out_dir]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
