#!/usr/bin/env python3
"""Compares two sets of uindex_bench results against BENCHMARK.json's bounds.

Usage:

    python3 bench/suite/compare.py A/*.json -- B/*.json

Each file is a bench_results/uindex_bench*.json artifact (one workload or
all four). A is the baseline set, B the candidate. For every (workload,
end-to-end metric) present in both sets it prints each set's median and
quartiles, the change of the medians, and a verdict against the metric's
bound:

    within      the medians differ by no more than the bound;
    worse       B's median is worse than A's by more than the bound;
    better      B's median is better than A's by more than the bound;
    unresolved  a set's own spread (quartile distance over median) exceeds
                the bound, unless every B run reads better than every A run.

The exit status is 1 when any verdict is "worse" (or an input is unusable)
and 0 otherwise. Python standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(paths):
    """{(workload, metric): [values]} over every file of one set."""
    values = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for workload, result in doc.get("workloads", {}).items():
            for metric, entry in result.get("metrics", {}).items():
                values.setdefault((workload, metric), []).append(
                    float(entry["value"]))
    return values


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def verdict(a, b, lower_better, bound):
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    change = (med_b - med_a) / med_a if med_a else 0.0
    worsening = change if lower_better else -change
    if lower_better:
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if max(spread_a, spread_b) > bound:
        return change, "better" if b_always_better else "unresolved"
    if worsening > bound:
        return change, "worse"
    if worsening < -bound:
        return change, "better"
    return change, "within"


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 1
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("compare.py: both sets need at least one file", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    a, b = load_set(a_paths), load_set(b_paths)

    rows = []
    worse = False
    for metric in bench["end_to_end"]:
        name = metric["name"]
        lower_better = metric["better"] == "lower"
        workloads = sorted({w for (w, m) in a if m == name} &
                           {w for (w, m) in b if m == name})
        for workload in workloads:
            va, vb = a[(workload, name)], b[(workload, name)]
            change, v = verdict(va, vb, lower_better, metric["bound"])
            worse = worse or v == "worse"
            ma, qa1, qa3, _ = summary(va)
            mb, qb1, qb3, _ = summary(vb)
            rows.append((workload, name, metric["unit"],
                         f"{ma:.6g} [{qa1:.6g}, {qa3:.6g}] n={len(va)}",
                         f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}] n={len(vb)}",
                         f"{100 * change:+.2f}%",
                         f"{100 * metric['bound']:.0f}%", v))
    if not rows:
        print("compare.py: no end-to-end metric is present in both sets",
              file=sys.stderr)
        return 1
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "bound", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(8)]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
