#!/usr/bin/env python3
"""Run one workload N times back to back and print each metric's spread.

    python3 perfbench/steady.py --workload tune --runs 10 [--first-seed 1]
                                [--seconds 20] [--trace 0]

Each run is a fresh `run.py` process on the next seed. For every metric the
script prints the median, the quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, and max/min — the spread the
bounds in BENCHMARK.json rest on — and marks every end-to-end metric
(setup_s aside) whose spread exceeds a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"seed {seed}: run.py exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} "
                 "queries failed their output check")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        shown = " ".join(f"{name}={metric['value']:.5g}"
                         for name, metric in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} {shown}",
              flush=True)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8}  unit")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        lo = min(vals)
        ratio = max(vals) / lo if lo else float("nan")
        mark = ""
        if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
            mark = f"  > bound/3 ({bounds[name] / 3:.3f})"
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{ratio:8.3f}  {units[name]}{mark}")


if __name__ == "__main__":
    main()
