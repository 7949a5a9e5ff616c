#!/usr/bin/env python3
"""Compares two e2ebench result files metric by metric.

    python3 e2ebench/diff.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds one JSON object per line, as run.py appends them to
.bench_build/results.jsonl: {"workload", "seed", "seconds", "trace",
"result"}. For every workload and metric the tool prints the median of
each file, the change, and the base's quartile spread. An end-to-end
metric whose new median is worse than the base median by more than the
metric's bound in BENCHMARK.json is flagged REGRESSION; per-layer metrics
have no bound and are only reported. Exits 1 when anything is flagged.
Standard library only.
"""

import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """{(workload, trace): {metric: [values]}} from a results file."""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = (rec["workload"], int(rec["trace"]))
                metrics = rec["result"]["metrics"]
            except (ValueError, KeyError, TypeError) as e:
                sys.exit(f"{path}:{line_no}: not a run record ({e})")
            for name, m in metrics.items():
                runs[key][name].append(float(m["value"]))
    return runs


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    spec.update({m["name"]: m for m in bench["per_layer"]})
    base, new = load_runs(args.base), load_runs(args.new)

    flagged = 0
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'})")
        print(f"  {'metric':34} {'base':>12} {'new':>12} {'change':>9} "
              f"{'base_iqr':>9}  runs")
        for name in sorted(set(base[key]) | set(new[key])):
            b, n = base[key].get(name, []), new[key].get(name, [])
            if not b or not n:
                print(f"  {name:34} {'only in one file':>34}")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / abs(mb) if mb else float("nan")
            flag = ""
            m = spec.get(name, {})
            if "bound" in m and mb:
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    flag = f"REGRESSION (bound {m['bound']:.0%})"
                    flagged += 1
            print(f"  {name:34} {mb:12.5g} {mn:12.5g} {change:+9.2%} "
                  f"{spread(b):9.3f}  {len(b)}/{len(n)} {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
