#!/usr/bin/env python3
"""The repo benchmark (workloads, metrics and checks: perfbench/spec.json).

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Builds the program from source with CMake (into $CARGO_TARGET_DIR, default
.bench_build at the repository root), runs one seeded workload and prints,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of the untraced build, --trace 1 the per-layer metrics of the
traced build (and writes a Chrome trace next to the build).  The first
line is a header with the git sha, the build type and nproc.

Exit status: 0 when every correctness check passed, 1 otherwise, and 1
without a result line when the program cannot be built.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170
KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    """Configures and builds perfbench/; False when the build fails."""
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", out, "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    # Never look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "tcp"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Sensitivity self-test only (perfbench/test_sensitivity.py).
    ap.add_argument("--delay-at",
                    choices=["inject", "packet_in", "flow_mod", "pump_wait",
                             "runtime"])
    ap.add_argument("--delay-ns", type=int, default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(out,
                          "perfbench_traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.delay_at:
        cmd += ["--delay-at", args.delay_at, "--delay-ns", str(args.delay_ns)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]

    print("# perfbench git_sha=%s build_type=%s nproc=%d workload=%s seed=%d "
          "seconds=%g trace=%d" % (git_sha(), BUILD_TYPE, os.cpu_count() or 0,
                                   args.workload, args.seed, args.seconds,
                                   args.trace), flush=True)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result from %s (exit %d)" %
              (args.workload, proc.returncode), file=sys.stderr)
        return 1
    if set(result) != KEYS:
        print("perfbench: malformed result %r" % sorted(result),
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
