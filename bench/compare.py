"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by bench/run.py with --trace 0.
Runs are paired by workload and seed, or in seed order when the two sides
share no seed.  For every workload x end-to-end metric the table gives each
side's median and quartiles, the share of pairs the change won (ties count
for neither side), and a verdict:

* improved   -- the change won at least 9/10 of the pairs, and the medians
                differ by more than the parent's interquartile range;
* worse      -- the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json; where the parent's
                spread is wider than the bound, every change run must also
                be worse than every parent run;
* unresolved -- the parent's own spread (interquartile range over median)
                is wider than the bound, and the runs of the two sides
                overlap;
* no worse   -- otherwise.

No metric counts as improved on a workload where the change failed more ops
than the parent.  The exit code is 1 when any verdict is "worse".
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory) -> dict:
    """{workload: {seed: [result, ...]}} from the untraced result files."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        env = record["environment"]
        if env["trace"] == 0:
            runs[env["workload"]][env["seed"]].append(record["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound, more_failures) -> tuple[str, float]:
    """Verdict for one metric, and the share of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    iqr = pq3 - pq1
    worse_share = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if not more_failures and won >= 0.9 and sign * (cmed - pmed) > iqr:
        return "improved", won
    spread = iqr / abs(pmed) if pmed else 0.0
    if spread > bound:
        if all(sign * (c - p) > 0 for p in parent for c in change):
            return "no worse", won
        if worse_share > bound and all(sign * (c - p) < 0 for p in parent for c in change):
            return "worse", won
        return "unresolved", won
    return ("worse" if worse_share > bound else "no worse"), won


def compare(parent_dir, change_dir, spec) -> list[dict]:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        p_runs = [r for seed in sorted(parent[workload]) for r in parent[workload][seed]]
        c_runs = [r for seed in sorted(change[workload]) for r in change[workload][seed]]
        common = sorted(set(parent[workload]) & set(change[workload]))
        if common:
            paired = [(p, c) for seed in common
                      for p, c in zip(parent[workload][seed], change[workload][seed])]
        else:  # different seeds on the two sides: pair the runs in seed order
            paired = list(zip(p_runs, c_runs))
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in paired]
            v, won = verdict(pv, cv, pairs, m["better"], m["bound"], more_failures)
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         "parent": quartiles(pv), "change": quartiles(cv), "n": (len(pv), len(cv)),
                         "pairs": len(pairs), "won": won, "verdict": v})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare(argv[0], argv[1], spec)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':15s} {'metric':12s} {'unit':6s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'runs':>7s} {'won':>5s}  verdict")
    for r in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{r['workload']:15s} {r['metric']:12s} {r['unit']:6s} {fmt(r['parent']):>30s} "
              f"{fmt(r['change']):>30s} {r['n'][0]:>3d}/{r['n'][1]:<3d} {r['won']:5.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
