#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [workload ...]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) on each
workload (default: every workload in BENCHMARK.json) and prints, per
metric, the median and the spread: the distance between the first and
third quartiles of the values (statistics.quantiles, n=4) as a share of the
median. A spread at or above a third of the metric's bound is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} seeds from {args.first_seed})")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            steady = steady and (name == "setup_s" or spread <= bounds[name])
            print(f"  {name:20s} median {med:<12.6g} spread {spread:.4f} "
                  f"bound {bounds[name]}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
