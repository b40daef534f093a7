"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/lifelong/compare.py A.jsonl B.jsonl

A and B are files of result lines as `run.py --out FILE` appends them:
several untraced runs per workload (ten, each with another `--seed`,
is what the spread below needs to mean anything).  For every workload
and every end-to-end metric of BENCHMARK.json one row is printed: both
medians, both spreads (distance between the first and third quartile
as a share of the median), the change from A to B, and a verdict under
the metric's own bound:

    regression   B's median is worse than A's by more than the bound
    improved     B's median is better than A's by more than the bound
    unresolved   neither, but a spread exceeds the bound, so a change of
                 that size could not have been seen
    unchanged    neither, and both spreads are within the bound

Exit status is 1 if any row is a regression or a workload's failed
ratio is higher in B than in A, else 0.  Run on two sets from the same
commit it is the benchmark's A/A test: every row must say `unchanged`.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(path: str) -> dict:
    """workload -> list of untraced result records."""
    runs: dict[str, list] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_ratio(records: list) -> float:
    return (sum(r["failed"] for r in records)
            / sum(r["attempted"] for r in records))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    a_runs, b_runs = load(argv[0]), load(argv[1])
    bad = False
    print(f"{'workload':18s} {'metric':15s} {'A median':>12s} {'spread':>7s} "
          f"{'B median':>12s} {'spread':>7s} {'change':>8s} {'bound':>6s}  "
          "verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_records = a_runs.get(workload, [])
        b_records = b_runs.get(workload, [])
        if not a_records or not b_records:
            print(f"{workload:18s} missing from one side")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in a_records]
            b = [r["metrics"][name]["value"] for r in b_records]
            a_median, b_median = statistics.median(a), statistics.median(b)
            change = (b_median - a_median) / a_median
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict = "regression"
                bad = True
            elif worse < -bound:
                verdict = "improved"
            elif max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            print(f"{workload:18s} {name:15s} {a_median:12.6g} "
                  f"{spread(a):7.2%} {b_median:12.6g} {spread(b):7.2%} "
                  f"{change:+8.2%} {bound:6.0%}  {verdict}")
        a_failed, b_failed = failed_ratio(a_records), failed_ratio(b_records)
        verdict = "regression" if b_failed > a_failed else "unchanged"
        bad = bad or b_failed > a_failed
        print(f"{workload:18s} {'failed_ratio':15s} {a_failed:12.6g} "
              f"{'':7s} {b_failed:12.6g} {'':7s} {'':8s} {'':6s}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
