#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, relay its result.

    python3 perfbench/run.py --workload square_amortized --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental, so only the first run compiles. The last
line of standard output is the benchmark's JSON result; build output and
progress go to standard error. Exits non-zero, without a result line, when
the build fails, the binary fails, or a product mismatched.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("square_amortized", "serve_skinny", "serve_sharded",
             "serve_mmap")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Inherited settings that would change what is measured: OpenMP placement
# and wait policy (binding to OMP_PLACES=cores cut square_amortized to a
# third of its ops/s on a 4-vCPU guest), and the library's own CW_SIMD
# tier override and CW_FAULT injection.
STRIPPED_ENV_PREFIXES = ("OMP_", "GOMP_", "KMP_", "CW_")


def build(build_dir):
    src = os.path.dirname(os.path.abspath(__file__))
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", src, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    # Snapshots a killed run left behind live under run/; start clean.
    run_dir = os.path.join(build_dir, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", build_dir]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(STRIPPED_ENV_PREFIXES)}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % args.workload)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: %s exited with %d" % (args.workload,
                                                   done.returncode))
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
