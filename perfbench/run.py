#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench with CMake in
Release mode; later calls rebuild only what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's result object. The
exit code is the benchmark's: 0 only when every output check passed.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "wsn_perfbench"
# A whole run, build excluded, must end well inside three minutes.
RUN_TIMEOUT_S = 170
# Knobs the simulator reads from the environment; the benchmark's runs
# must not inherit them.
SCRUBBED_ENV = ("WSN_TRACE", "WSN_TRACE_RING", "WSN_JOBS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "wsn_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    print(f"perfbench: {args.workload} ran {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if printed != expected_metrics(args.trace):
        print("perfbench: printed metrics or units differ from BENCHMARK.json",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
