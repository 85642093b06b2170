#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs each workload once per seed (untraced), then reports for every
end-to-end metric its median and its spread: the distance between the
first and third quartile over the runs, as a share of the median. A spread
above the metric's bound in BENCHMARK.json fails (setup_s is exempt), one
above a third of it is flagged. With --sets 2 it repeats the seeds and
fails when a set's median is worse than the first set's by more than the
bound. It also runs the first seed a second time and fails on any drift in
the counts that must repeat exactly: modeled_cycles_per_query and
bytes_to_cpu_per_query everywhere, and allocs_per_op on the serial
workloads, where only a few runtime allocations per GC cycle may move it.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seed 1] [workload ...]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT = ["modeled_cycles_per_query", "bytes_to_cpu_per_query"]
# allocs_per_op may move by this share between runs with one seed: the
# runtime makes a few allocations of its own per GC cycle.
ALLOCS_DRIFT = 1e-4


def run(workload, seed, seconds):
    p = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        sys.exit(f"{workload} seed {seed}: {out['failed']} of {out['attempted']} ops failed\n{p.stderr}")
    return {k: v["value"] for k, v in out["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse(first, later, better):
    return (later - first) / first if better == "lower" else (first - later) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    failures = []
    for w in names:
        sets = []
        for s in range(args.sets):
            runs = [run(w, args.seed + i, bench["run_seconds"]) for i in range(args.runs)]
            sets.append(runs)
        again = run(w, args.seed, bench["run_seconds"])
        print(f"{w}: {args.sets} x {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for runs in sets:
                vals = [r[name] for r in runs]
                sp = spread(vals)
                medians.append(statistics.median(vals))
                flag = ""
                if name != "setup_s" and sp > bound:
                    flag = "FAIL: spread above bound"
                    failures.append(f"{w} {name}")
                elif name != "setup_s" and sp > bound / 3:
                    flag = "above a third of the bound"
                print(f"  {name:26s} median {medians[-1]:16.4f}  spread {100 * sp:6.2f}%  bound {100 * bound:5.1f}%  {flag}")
                print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
            for i, med in enumerate(medians[1:], 2):
                if worse(medians[0], med, m["better"]) > bound:
                    print(f"  {name}: set {i} median {med:.4f} is worse than set 1's {medians[0]:.4f} by more than the bound")
                    failures.append(f"{w} {name} medians")
        first = sets[0][0]
        exact = EXACT + (["allocs_per_op"] if w != "par" else [])
        for name in exact:
            drift = abs(again[name] - first[name]) / first[name]
            limit = ALLOCS_DRIFT if name == "allocs_per_op" else 0
            status = "exact" if drift == 0 else f"drift {drift:.1e}" + (" (runtime GC allocations)" if drift <= limit else " FAIL")
            print(f"  repeat seed {args.seed}: {name} {first[name]} vs {again[name]} {status}")
            if drift > limit:
                failures.append(f"{w} {name} drift")
        if len({r["modeled_cycles_per_query"] for r in sets[0]}) == 1 and args.runs > 1:
            print("  every seed gave the same modeled cycles: the seed does not reach the inputs")
            failures.append(f"{w} seed ignored")
    if failures:
        sys.exit("failed: " + ", ".join(failures))


if __name__ == "__main__":
    main()
