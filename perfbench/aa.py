#!/usr/bin/env python3
"""A/A runs: the same commit, each workload run repeatedly on fresh seeds.

For every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json, plus the share of failed
operations. Each run's line also gives the share of CPU time the
hypervisor took from the VM while it ran (the "steal" column of
/proc/stat; 0 where it is not available): runs under heavy steal measure
the host, not the program. With --traced it also makes one traced run per
workload and prints the tracing overhead on query_p50_ms.

    python3 perfbench/aa.py [--runs 10] [--workloads a,b] [--seconds S]
                            [--first-seed 1] [--traced] [--tag NAME]
    python3 perfbench/aa.py --compare NAME1 NAME2

Run it from the root of a checkout. The raw results go to
.bench_out/aa_results_<tag>.json (tag "default" unless given). --compare
reads two such files, made from separate sets of runs of one commit, and
prints for every workload and end-to-end metric how far the second median
moved from the first, in the metric's worse direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or (0, 0) without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tag", default="default")
    parser.add_argument("--compare", nargs=2, metavar="TAG")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        return compare(bench, *args.compare)
    report = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            steal0, total0 = cpu_ticks()
            result = run_once(workload, seed, args.seconds, False)
            steal1, total1 = cpu_ticks()
            steal = (steal1 - steal0) / max(1, total1 - total0)
            if not result["correct"]:
                sys.exit("%s seed %d: incorrect output" % (workload, seed))
            results.append(result)
            print("%s seed %d: %s steal %.1f%%" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                100.0 * steal), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, failed share %s" % (workload, len(results), shares))
        print("  %-16s %12s %12s %12s %8s %7s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[name] = {"values": values, "q1": q1, "median": med,
                             "q3": q3, "spread": spread}
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %7.3f" %
                  (name, q1, med, q3, spread, bounds[name]))
        if args.traced:
            traced = run_once(workload, args.first_seed, args.seconds, True)
            p50 = traced["metrics"]["trace.query_p50_ms"]["value"]
            base = summary["query_p50_ms"]["median"]
            summary["tracing_overhead"] = p50 / base - 1.0
            print("  tracing overhead on query_p50_ms: %+.1f%% (traced %.6g ms)"
                  % (100.0 * summary["tracing_overhead"], p50))
        report[workload] = summary
        print(flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(results_path(args.tag), "w") as f:
        json.dump(report, f, indent=1)


def results_path(tag):
    return os.path.join(ROOT, ".bench_out", "aa_results_%s.json" % tag)


def compare(bench, first_tag, second_tag):
    with open(results_path(first_tag)) as f:
        first = json.load(f)
    with open(results_path(second_tag)) as f:
        second = json.load(f)
    ok = True
    print("%-16s %-16s %12s %12s %8s %7s" %
          ("workload", "metric", "median 1", "median 2", "worse by", "bound"))
    for workload in first:
        if workload not in second:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            m1 = first[workload][name]["median"]
            m2 = second[workload][name]["median"]
            change = (m2 - m1) / m1
            worse = change if metric["better"] == "lower" else -change
            within = worse <= metric["bound"]
            ok = ok and within
            print("%-16s %-16s %12.6g %12.6g %+8.4f %7.3f%s" %
                  (workload, name, m1, m2, worse, metric["bound"],
                   "" if within else "  OUT OF BOUND"))
    print("every median within its bound" if ok else
          "some median moved beyond its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
