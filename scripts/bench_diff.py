#!/usr/bin/env python3
"""Compares two perf checkpoints (BENCH_<n>.json) metric by metric.

For each run key (seed and trace setting) and workload found in both files,
prints every end-to-end metric that BENCHMARK.json declares: the old and new
values, new/old, the direction that is better and the metric's bound. A
metric that moved in the worse direction by more than its bound (as a
fraction of the old value) is marked WORSE, and the script then exits 1.

Each checkpoint holds one run per key, so a WORSE mark on a timed metric
(txn_per_cpu_s, setup_s, svc_wide's latencies) can be host noise; repeat
the runs before reading it as a regression. The virtual-time metrics and
rss_mb_per_ktxn are deterministic.

Usage: scripts/bench_diff.py OLD.json NEW.json [--benchmark BENCHMARK.json]
Exit status: 0 when no metric is worse than its bound, 1 when one is,
2 on bad input.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")


def fmt(x):
    if x is None:
        return "-"
    return f"{x:.6g}"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description="Diff the end-to-end metrics of two BENCH_<n>.json files.")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(root, "BENCHMARK.json"),
                        help="file declaring the metrics, directions, bounds")
    args = parser.parse_args()

    old, new = load(args.old), load(args.new)
    metrics = load(args.benchmark).get("end_to_end", [])
    if not metrics:
        sys.exit(f"bench_diff: {args.benchmark} declares no end_to_end metric")
    for doc, path in ((old, args.old), (new, args.new)):
        if not isinstance(doc.get("runs"), dict):
            sys.exit(f"bench_diff: {path} has no 'runs' object")

    header = ("run", "workload", "metric", "old", "new", "new/old", "better",
              "bound", "")
    rows = []
    worse = 0
    for run in sorted(set(old["runs"]) & set(new["runs"])):
        old_w = old["runs"][run].get("workloads", {})
        new_w = new["runs"][run].get("workloads", {})
        for workload in sorted(set(old_w) & set(new_w)):
            for m in metrics:
                name, better, bound = m["name"], m["better"], m["bound"]
                a = old_w[workload].get("metrics", {}).get(name, {}).get("value")
                b = new_w[workload].get("metrics", {}).get(name, {}).get("value")
                if a is None and b is None:
                    continue  # Traced runs carry per-layer metrics only.
                ratio = None
                mark = ""
                if a is not None and b is not None:
                    if a != 0:
                        ratio = b / a
                        loss = (b - a) / abs(a)
                        if better == "higher":
                            loss = -loss
                        if loss > bound:
                            mark = "WORSE"
                            worse += 1
                    elif b == 0:
                        ratio = 1.0
                rows.append((run, workload, name, fmt(a), fmt(b), fmt(ratio),
                             better, fmt(bound), mark))
    for run in sorted(set(old["runs"]) ^ set(new["runs"])):
        print(f"bench_diff: run {run} is in only one file; skipped",
              file=sys.stderr)

    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    print(f"\n{len(rows)} metrics compared, {worse} worse than their bound "
          f"(old {old.get('git_sha', '?')[:7]}, new "
          f"{new.get('git_sha', '?')[:7]})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
