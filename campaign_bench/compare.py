#!/usr/bin/env python3
"""Compares two result sets written by run.py --out.

    python3 campaign_bench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON line per run. Result sets are comparable only
when every run carries the same host fingerprint (nproc, CPU flags,
compiler, build type, crypto backend); otherwise this exits 2. For each
workload and end-to-end metric it prints both medians, the change
(positive = worse) and the base set's spread (quartile distance over
median), and marks a metric REGRESSED when the new median is worse by
more than BENCHMARK.json's bound, UNRESOLVED when the base spread alone
exceeds the bound. Exits 1 when anything regressed.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprints(*sets):
    return {json.dumps(run["fingerprint"], sort_keys=True)
            for runs in sets for run in runs}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(base, new, spec):
    """Rows of (workload, metric, base median, new median, change,
    base spread, bound, verdict) over the untraced runs of both sets."""
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and not r["trace"]]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and not r["trace"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            if metric["better"] == "higher":
                change = -change
            s = spread(a)
            verdict = ("REGRESSED" if change > bound else
                       "UNRESOLVED" if s > bound else "ok")
            rows.append((workload, name, ma, mb, change, s, bound, verdict))
    return rows


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    prints = fingerprints(base, new)
    if len(prints) != 1:
        print("not comparable: host fingerprints differ:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    rows = compare(base, new, json.loads(SPEC.read_text()))
    for workload, name, ma, mb, change, s, bound, verdict in rows:
        print(f"{workload:8s} {name:18s} {ma:14.6g} -> {mb:14.6g} "
              f"worse {change:+.3f} spread {s:.3f} bound {bound} {verdict}")
    return 1 if any(r[-1] == "REGRESSED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
