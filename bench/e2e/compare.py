#!/usr/bin/env python3
"""Compares bench_e2e results against the bounds in BENCHMARK.json.

  compare.py pairs --parent P1 P2 ... --change C1 C2 ...
      Result files of N alternating parent/change runs (pair i is Pi, Ci).
      For each workload and metric: both medians and quartiles, the share of
      pairs the change wins (ties count for neither) and a verdict:
        improved    the change wins at least 9/10 of the pairs and the
                    medians differ by more than the parent's IQR
        worse       the change median is worse than the parent's by more
                    than the metric's bound (per-layer metrics, which have
                    no bound: loses 9/10 pairs by more than the parent's IQR)
        unresolved  the parent's own spread (IQR / median) is wider than the
                    bound and not every change run beats every parent run
        unchanged   otherwise
      Exits 1 when any end-to-end metric is worse.
  compare.py repeat FILE1 FILE2 ...
      Runs of one commit. Exits 1, listing the offenders, when an end-to-end
      value moves from FILE1 by more than its bound in any later file.

Metrics, directions and bounds come from BENCHMARK.json at the repository
root.

A result file is build-e2e/bench_e2e.json (or bench_e2e.layers.json) as
run.sh writes it, or one workload's <workload>.result.json.
"""

import argparse
import os
import statistics
import sys

sys.dont_write_bytecode = True  # importing results.py leaves no __pycache__ behind
from results import load_json, load_results  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                         "BENCHMARK.json")


def load_spec(path):
    """(ordered metric names, {name: (better, bound or None, unit)}) from BENCHMARK.json."""
    spec = load_json(path)
    order, info = [], {}
    for m in spec["end_to_end"]:
        order.append(m["name"])
        info[m["name"]] = (m["better"], m["bound"], m["unit"])
    for m in spec["per_layer"]:
        order.append(m["name"])
        info[m["name"]] = (m["better"], None, m["unit"])
    return order, info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def rows(runs, order):
    """(workload, metric, [value per run]) for what every run reports."""
    common = set.intersection(*(set(r) for r in runs))
    for workload in sorted(common):
        for name in order:
            if all(name in r[workload] for r in runs):
                yield workload, name, [r[workload][name] for r in runs]


def cmd_pairs(args, order, info):
    if len(args.parent) != len(args.change) or not args.parent:
        sys.exit("compare.py: give the same number (>= 1) of --parent and --change files")
    parents = [load_results(p) for p in args.parent]
    changes = [load_results(c) for c in args.change]
    n = len(parents)
    print(f"{'workload':<14} {'metric':<26} {'unit':<6} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>7} verdict")
    any_worse = False
    for workload, name, values in rows(parents + changes, order):
        p, c = values[:n], values[n:]
        better, bound, unit = info[name]
        sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0: worse
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
        losses = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        iqr = p3 - p1
        gap = sign * (cm - pm)
        spread = iqr / abs(pm) if pm else 0.0
        every_run_better = all(sign * (b - a) < 0 for a in p for b in c)
        if bound is not None and spread > bound and not every_run_better:
            verdict = "unresolved"
        elif wins >= 0.9 * n and gap < 0 and -gap > iqr:
            verdict = "improved"
        elif bound is not None and pm and gap / abs(pm) > bound:
            verdict = "worse"
        elif bound is None and losses >= 0.9 * n and gap > iqr:
            verdict = "worse"
        else:
            verdict = "unchanged"
        any_worse |= verdict == "worse" and bound is not None
        parent_cell = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
        change_cell = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
        print(f"{workload:<14} {name:<26} {unit:<6} {parent_cell:<34} {change_cell:<34} "
              f"{wins:>3}/{n:<3} {verdict}")
    return 1 if any_worse else 0


def cmd_repeat(args, order, info):
    runs = [load_results(f) for f in args.files]
    if len(runs) < 2:
        sys.exit("compare.py: repeat needs at least two result files")
    offenders = []
    for workload, name, values in rows(runs, order):
        bound = info[name][1]
        if bound is None:
            continue
        first = values[0]
        worst = max(abs(v - first) / abs(first) if first else 0.0 for v in values[1:])
        mark = "MOVED" if worst > bound else "ok"
        print(f"{workload:<14} {name:<22} first {first:<12.6g} max move {worst:7.2%} "
              f"bound {bound:5.0%}  {mark}")
        if worst > bound:
            offenders.append(f"{workload}/{name} moved {worst:.1%} (bound {bound:.0%})")
    for o in offenders:
        print(f"compare.py: {o}", file=sys.stderr)
    return 1 if offenders else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    sub.add_parser("repeat").add_argument("files", nargs="+")
    args = parser.parse_args()
    order, info = load_spec(BENCHMARK)
    return {"pairs": cmd_pairs, "repeat": cmd_repeat}[args.cmd](args, order, info)


if __name__ == "__main__":
    sys.exit(main())
