#!/usr/bin/env python3
"""Builds the ORB benchmark from source and runs one workload.

    python3 orbbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 orbbench/run.py --selftest

The build goes to .bench_build/orbbench
(configured once, then incremental) and its output to stderr, so the last
line of stdout is the benchmark's JSON result. --selftest builds and runs
the benchmark's own tests instead.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "orbbench")
BUILD = os.path.join(ROOT, ".bench_build", "orbbench")
WORKLOADS = ("rpc-small", "rpc-bulk", "rpc-fanin", "idl-compile")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("orbbench: no ORB sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "--parallel", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("orbbench_tests")]).returncode
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        binary = build("orbbench")
    except subprocess.CalledProcessError as e:
        sys.exit("orbbench: build failed: %s" % e)
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--root", ROOT]).returncode


if __name__ == "__main__":
    sys.exit(main())
