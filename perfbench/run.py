#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload fit_lof|serve_lof|stream_grid \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
HiCS libraries plus perfbench/driver.cc into .bench_build/perfbench (about
1.5 minutes on 2 cores); later calls rebuild incrementally. Build output is
shown, on stderr, only when the build fails, so the last line on stdout is
always the driver's result object. Exits nonzero, without a result, when
the sources are missing or the build fails, and with the driver's code
otherwise (1 on any failed correctness check).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fit_lof", "serve_lof", "stream_grid")
# A run must end within 180 s; the driver itself needs --seconds plus its
# set-up and checks.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("HiCS sources (src/) not found next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", "2"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    driver = build()
    command = [
        driver, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", BUILD,
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
