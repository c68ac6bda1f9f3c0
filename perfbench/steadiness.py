#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each end-to-end metric is.

Every workload runs once per seed in each of --sets sets of --runs seeds
(set k uses seeds 20k+1 .. 20k+runs, or --seeds for a single set). The runs
are interleaved: round i runs seed i of every set on every workload before
round i+1 starts, so every set spans the same stretch of time and a slow
spell of the machine falls on all of them alike. For each end-to-end metric
the script prints, per set, the median of the runs and their spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound. With two or more sets
it also prints how much worse each later set's median is than the first
set's. It checks that every run was correct and had no failed items.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--seeds 1,2] [--seconds S] [--trace 0|1]
                                    [--out FILE]

Run it from the repository root. --out writes every run's result and the
summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return -change if better == "higher" else change


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    clock = time.strftime("%H:%M:%S")
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["started"] = clock
    return result


def summarize(runs, metrics):
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    summary = {
        "seeds": [r["seed"] for r in runs],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "all_correct": not bad,
        "max_wall_s": round(max(r["wall_s"] for r in runs), 1),
        "metrics": {},
    }
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        entry = {"median": statistics.median(values), "values": values}
        if len(values) >= 2 and statistics.median(values):
            entry["spread"] = spread(values)
        if "bound" in m:
            entry["bound"] = m["bound"]
        summary["metrics"][m["name"]] = entry
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--seeds")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    if args.seeds:
        sets = [[int(s) for s in args.seeds.split(",")]]
    else:
        sets = [[20 * k + i for i in range(1, args.runs + 1)] for k in range(args.sets)]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs = {(w, k): [] for w in workloads for k in range(len(sets))}
    for i in range(max(len(s) for s in sets)):
        for w in workloads:
            for k, seeds in enumerate(sets):
                if i < len(seeds):
                    r = run_once(bench["command"], w, seeds[i], seconds, args.trace)
                    r["seed"] = seeds[i]
                    runs[(w, k)].append(r)
                    print(f"  {r['started']} {w} set {k} seed {seeds[i]}: "
                          f"{r['wall_s']:.1f} s", file=sys.stderr, flush=True)

    report = {"seconds": seconds, "interleaved": True, "workloads": {}}
    ok = True
    for w in workloads:
        summaries = [summarize(runs[(w, k)], metrics) for k in range(len(sets))]
        report["workloads"][w] = summaries
        for k, s in enumerate(summaries):
            ok &= s["all_correct"]
            print(f"{w} set {k}: {len(s['seeds'])} runs, attempted {s['attempted']}, "
                  f"failed {s['failed']}, all correct {s['all_correct']}, "
                  f"longest run {s['max_wall_s']} s")
        for m in metrics:
            line = f"  {m['name']:36s}"
            for s in summaries:
                e = s["metrics"][m["name"]]
                line += f" median {e['median']:<12.6g}"
                if "spread" in e:
                    line += f" spread {e['spread']:7.2%}"
            for s in summaries[1:]:
                first = summaries[0]["metrics"][m["name"]]["median"]
                later = s["metrics"][m["name"]]["median"]
                if first:
                    line += f"  worse by {worse_by(first, later, m['better']):+.1%}"
            if "bound" in m:
                line += f"  bound {m['bound']:.0%}"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
