#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times, each with another seed, and
prints each metric's median and quartiles.
Runs are untraced and last run_seconds of BENCHMARK.json.

    python3 perfbench/steady.py --workload lognormal --runs 10 [--first-seed 1]

For each metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread: the
distance between the quartiles as a share of the median. For end-to-end
metrics it also prints the bound from BENCHMARK.json and the spread as a
share of that bound, and then every run's value. Run from the root of the checkout.
On a virtual machine, standard error also shows the share of CPU time the
hypervisor gave to other guests (steal) during each run: the pooled attack
figures follow it (see README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host_ticks():
    """CPU ticks of the host's view (/proc/stat: total, steal), or None."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(ticks), (ticks[7] if len(ticks) > 7 else 0)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("seed %d: run failed with exit code %d" % (seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        before = host_ticks()
        results.append(run_once(args.workload, seed, seconds))
        after = host_ticks()
        steal = ""
        if before and after and after[0] > before[0]:
            steal = ", %.1f%% of CPU time stolen by the hypervisor" % (
                100.0 * (after[1] - before[1]) / (after[0] - before[0]))
        print("seed %d done%s" % (seed, steal), file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in results}
    print("workload %s, %d runs of %d s, seeds %d..%d, failed share %s"
          % (args.workload, args.runs, seconds, args.first_seed,
             args.first_seed + args.runs - 1, sorted(shares)))
    print("%-32s %14s %14s %14s %8s %7s %9s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "spr/bnd"))
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print("%-32s %14.6g %14.6g %14.6g %7.2f%% %7s %9s"
              % (name, med, q1, q3, 100 * spread,
                 "" if bound is None else "%.0f%%" % (100 * bound),
                 "" if bound is None else "%.2f" % (spread / bound)))
    print("each run, in seed order:")
    for name in sorted(results[0]["metrics"]):
        print("%-32s %s" % (name, " ".join(
            "%.4g" % r["metrics"][name]["value"] for r in results)))


if __name__ == "__main__":
    main()
