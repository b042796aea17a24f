#!/usr/bin/env python3
"""Report on a profile written by the SIGPROF sampler (tools/sampler.cpp).

    python3 tools/prof_report.py prof.txt [--top 25] [--json]

Symbolizes every sampled return address with addr2line (inlined frames
included, so build the profiled program with -g) and prints:

  * self shares: the innermost function of each sample;
  * inclusive shares: every function on a sample's stack, counted once per
    sample;
  * stage shares: each sample goes to the first of the perfbench sweep
    STAGES whose regular expression matches any of its frames, or to
    "other".  The per-round bookkeeping comes first, so that a stage nested
    in the probe burst is not counted as probing.

--json prints the stage shares as one JSON object instead of the tables.
"""
import argparse
import bisect
import collections
import json
import re
import subprocess
import sys

STAGES = [
    ("telemetry_poll", r"poll_telemetry"),
    ("plan_budgets", r"Fleet::plan_budgets"),
    ("round_checkpoint", r"Fleet::write_round_checkpoint"),
    ("monitor_publish", r"Monitor::publish_telemetry"),
    ("probes", r"Monitor::steady_probe_burst|Multiplexer::on_packet_in"),
    ("updates", r"Monitor::on_controller_message|handle_flow_mod"),
]


def parse_profile(path):
    """Returns (header, maps, samples); samples are lists of int addresses."""
    header, maps, samples = "", [], []
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# monocle-sampler"):
                header = line[2:]
                continue
            if line == "# maps":
                section = "maps"
                continue
            if line == "# samples":
                section = "samples"
                continue
            if section == "maps":
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    maps.sort()
    return header, maps, samples


def locate(maps, starts, addr):
    """(binary, file-relative address) of addr, or None."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0:
        return None
    lo, hi, offset, path = maps[i]
    if addr >= hi or not path.startswith("/"):
        return None
    return path, addr - lo + offset


def symbolize(binary, addrs):
    """{address: [function, ...] innermost inline frame first}."""
    if not addrs:
        return {}
    order = sorted(addrs)
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
        input="".join("%x\n" % a for a in order),
        capture_output=True, text=True)
    out, current, lines = {}, None, proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            out[current] = []
            i += 1
            continue
        if current is not None:
            out[current].append(line)
        i += 2  # function, then file:line
    return out


def stacks(maps, samples):
    """Each sample as a list of function names, innermost first."""
    starts = [m[0] for m in maps]
    wanted = collections.defaultdict(set)
    located = []
    for sample in samples:
        frames = []
        for depth, addr in enumerate(sample):
            # Callers' return addresses point past the call instruction.
            loc = locate(maps, starts, addr if depth == 0 else addr - 1)
            frames.append(loc)
            if loc is not None:
                wanted[loc[0]].add(loc[1])
        located.append(frames)
    names = {}
    for binary, addrs in wanted.items():
        for addr, funcs in symbolize(binary, addrs).items():
            names[(binary, addr)] = funcs
    result = []
    for frames in located:
        stack = []
        for loc in frames:
            if loc is None:
                stack.append("??")
                continue
            funcs = names.get(loc) or ["??"]
            stack.extend(f if f != "??" else "?? (%s)" % loc[0].rsplit(
                "/", 1)[-1] for f in funcs)
        result.append(stack)
    return result


def short(name, width=100):
    return name if len(name) <= width else name[:width - 3] + "..."


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    header, maps, samples = parse_profile(args.profile)
    if not samples:
        print("no samples in %s" % args.profile, file=sys.stderr)
        return 1
    all_stacks = stacks(maps, samples)
    total = len(all_stacks)

    compiled = [(name, re.compile(rx)) for name, rx in STAGES]
    per_stage = collections.Counter()
    self_count = collections.Counter()
    incl_count = collections.Counter()
    for stack in all_stacks:
        self_count[stack[0] if stack else "??"] += 1
        for fn in set(stack):
            incl_count[fn] += 1
        for name, rx in compiled:
            if any(rx.search(fn) for fn in stack):
                per_stage[name] += 1
                break
        else:
            per_stage["other"] += 1

    share = {name: per_stage[name] / total
             for name, _ in STAGES + [("other", "")]}
    if args.json:
        print(json.dumps({"samples": total, "stage_share": share}))
        return 0
    print("%s (%d samples)" % (header, total))
    print("\nself")
    for fn, n in self_count.most_common(args.top):
        print("  %6.2f%%  %s" % (100.0 * n / total, short(fn)))
    print("\ninclusive")
    for fn, n in incl_count.most_common(args.top):
        print("  %6.2f%%  %s" % (100.0 * n / total, short(fn)))
    print("\nstages (first match in order)")
    for name, value in share.items():
        print("  %6.2f%%  %s" % (100.0 * value, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
