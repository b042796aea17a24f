#!/usr/bin/env python3
"""Sensitivity self-test of the repo benchmark.

    python3 perfbench/test_sensitivity.py [--repeats 3]

Shows that each workload measures the program: a fixed busy-wait added at
one boundary the benchmark times (run.py --delay-at/--delay-ns) must move
the end-to-end metric perfbench/spec.json maps that boundary to by more
than the metric's bound in BENCHMARK.json, and must leave a metric the
mapping predicts flat within its bound.  Each comparison is the median of
--repeats delayed runs against the median of as many undelayed ones, run
in pairs that alternate which side goes first, so slow drift of the host
falls on both sides alike.  Exit status 0 when every assertion holds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Run length per workload: long enough to leave the samples every statistic
# needs under the largest busy-wait below (a run with too few fails): 100
# rate windows of 200 ms in the steady phase (75% of a sweep run, 60% of a
# tcp run).
SECONDS = {"sweep": 30, "tcp": 45}

# boundary, busy-wait (ns), moved (workload, metric, direction),
# flat (workload, metric).  Every workload's measured phases cross the
# inject, PacketIn and Runtime boundaries; tcp's set-up injects no probe,
# so its setup_s is their flat check (sweep's set-up, a quarter as long, is
# too noisy for one).
CASES = [
    ("inject", 3000, ("sweep", "probes_per_s", "down"),
     ("tcp", "setup_s")),
    ("packet_in", 3000, ("sweep", "probes_per_s", "down"),
     ("tcp", "setup_s")),
    ("runtime", 2000, ("sweep", "probes_per_s", "down"),
     ("tcp", "setup_s")),
    ("flow_mod", 10000000, ("tcp", "update_ms_p90", "up"),
     ("sweep", "probes_per_s")),
    ("pump_wait", 8000, ("tcp", "probes_per_s", "down"),
     ("sweep", "probes_per_s")),
]


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run(workload, seconds, seed, delay=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if delay:
        cmd += ["--delay-at", delay[0], "--delay-ns", str(delay[1])]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def paired(workload, delay, repeats):
    """Median metrics of undelayed and delayed runs, made in pairs."""
    base, delayed = [], []
    for seed in range(1, repeats + 1):
        sides = [(base, None), (delayed, delay)]
        if seed % 2 == 0:
            sides.reverse()
        for out, d in sides:
            out.append(run(workload, SECONDS[workload], seed, d))
    med = lambda runs: {k: statistics.median(r[k] for r in runs)
                        for k in runs[0]}
    return med(base), med(delayed)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    bound = bounds()

    failures = 0
    for boundary, ns, (mw, mm, direction), (fw, fm) in CASES:
        delay = (boundary, ns)
        base, moved = paired(mw, delay, args.repeats)
        change = moved[mm] / base[mm] - 1.0
        ok = (change < -bound[mm]) if direction == "down" else \
             (change > bound[mm])
        print("%-9s %8d ns: %s %s %+.1f%% (must move %s beyond %.0f%%) %s" %
              (boundary, ns, mw, mm, 100 * change, direction,
               100 * bound[mm], "ok" if ok else "FAIL"), flush=True)
        failures += not ok
        if fw != mw:
            base, moved = paired(fw, delay, args.repeats)
        change = moved[fm] / base[fm] - 1.0
        ok = abs(change) <= bound[fm]
        print("%-9s %8d ns: %s %s %+.1f%% (must stay within %.0f%%) %s" %
              (boundary, ns, fw, fm, 100 * change, 100 * bound[fm],
               "ok" if ok else "FAIL"), flush=True)
        failures += not ok
    print("sensitivity self-test: %s" % ("PASS" if failures == 0 else
                                         "%d FAILED" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
