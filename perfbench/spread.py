#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads cold_solve,serve_rw]
                                [--first-seed 1] [--seconds N]

For every end-to-end metric of every workload this prints the median of
the runs, the quartiles (statistics.quantiles(values, n=4)), the
inter-quartile distance as a share of the median, and the metric's bound
from BENCHMARK.json; `!` marks a spread above a third of its bound. Any
run that fails, or reports an incorrect output or a failed op, stops it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(config, workload, seed, seconds):
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect: {result}")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            runs.append(run_once(config, workload, args.first_seed + k,
                                 args.seconds))
            print(f"{workload}: run {k + 1}/{args.runs} done", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
        print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "!" if spread > bound / 3 else ""
            print(f"{name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6.2f} {flag:1} "
                  + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
