#!/usr/bin/env python3
"""Build the explanation benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and compiles the
benchmark together with the repository's src/ libraries into .bench_build/;
later runs reuse that build. The benchmark's own stdout passes through: its
last line is the result object. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_mixed", "batch_flows")
# One run must end within this many seconds; the binary is stopped after it.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(root, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}_seed{args.seed}.json")]
    # Address-space randomisation moves the heap and stacks from run to run
    # and with them cache-set conflicts; fixing the layout removes that share
    # of the run-to-run spread where the host allows it.
    if shutil.which("setarch") and subprocess.run(["setarch", "-R", "true"]).returncode == 0:
        command = ["setarch", "-R"] + command
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
