#!/usr/bin/env python3
"""Builds and runs the e2ebench benchmark of answered aggregate queries.

    python3 e2ebench/run.py --workload mix_service --seed 1 --seconds 30 --trace 0

Configures and builds e2ebench/ (which builds libkgaq from the checkout's
sources) under .bench_build/ on first use, runs one workload, relays its
report and ends with the result JSON on the last line of stdout. Every run
is also appended to .bench_build/results.jsonl, the input of diff.py.

Exit codes: 0 ok; 1 a correctness check failed (the result still prints,
with "correct": false); 2 usage, build or set-up error (no result).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
RESULTS = os.path.join(ROOT, ".bench_build", "results.jsonl")

WORKLOADS = ("mix_service", "shard_http")
# One run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", BUILD_DIR, "-j4", "--target", "e2ebench"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--results", default=RESULTS,
                        help="JSON-lines file each run is appended to")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        built = build()
    except OSError as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    if not built:
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.dirname(args.results) or "."
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        print(f"e2ebench: no result (exit {proc.returncode})", file=sys.stderr)
        return 2
    with open(args.results, "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds,
                            "trace": int(args.trace), "result": result}) + "\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
