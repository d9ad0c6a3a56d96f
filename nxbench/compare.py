#!/usr/bin/env python3
"""Diff two sets of nxbench result files, per workload and per metric.

    python3 nxbench/compare.py BASE NEW

BASE and NEW are each a result file written by nxbench/run.py or a
directory of them (for example a copy of .nxbench_out/ per commit, ideally
several seeds each). Results are grouped by workload and by traced /
untraced run. For every metric the tool prints both medians, the change,
the run-to-run spread (interquartile range over median, the larger of the
two sides) and a verdict:

  improved   better by more than the spread (and, for end-to-end metrics
             with a single run per side, by more than the bound)
  worse      a gated metric worse by more than its BENCHMARK.json bound;
             a per-layer or reported (ungated) metric worse by more than
             the spread
  no change  neither
  unresolved the spread is wider than the bound, unless every run of one
             side beats every run of the other

Simulated outcomes (power saving, rewards, quorum...) must repeat exactly
for equal seeds; they are listed as "same" or "DIFFERS". Exit status 1 when
any end-to-end metric is worse or any outcome differs.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_results(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    results = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "workload" in data and "metrics" in data:
            results.append(data)
    if not results:
        sys.exit(f"compare: no nxbench result files in {path}")
    return results


def group(results):
    groups = {}
    for r in results:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def spread(values):
    """Interquartile range over median; None with fewer than two runs."""
    if len(values) < 2:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    med_b, med_n = statistics.median(base), statistics.median(new)
    change = (med_n - med_b) / abs(med_b) if med_b else 0.0
    gain = change if better == "higher" else -change
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    sp = max(spreads) if spreads else None
    sign = 1 if better == "higher" else -1
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    if bound is not None and sp is not None and sp > bound:
        word = "improved" if all_better else "worse" if all_worse else "unresolved"
    elif bound is not None and gain < -bound:
        word = "worse"
    elif bound is None and sp is not None and gain < -sp:
        word = "worse"
    elif gain > (sp if sp is not None else bound if bound is not None else 0.0) and gain > 0:
        word = "improved"
    else:
        word = "no change"
    return med_b, med_n, change, sp, word


def fmt(v):
    return "-" if v is None else f"{v:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    base, new = group(load_results(args.base)), group(load_results(args.new))
    bad = False
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        title = f"{workload} ({'traced' if trace else 'end to end'})"
        if key not in base or key not in new:
            print(f"\n{title}: only in {'NEW' if key in new else 'BASE'}, not compared")
            continue
        b, n = base[key], new[key]
        print(f"\n{title}: {len(b)} base run(s), {len(n)} new run(s)")
        for side, rs in (("base", b), ("new", n)):
            meta = rs[0].get("metadata", {})
            print(f"  {side}: commit {meta.get('commit', '?')[:12]} source {meta.get('source_digest', '?')} "
                  f"host {meta.get('host', '?')} workers {meta.get('workers', '?')} "
                  f"seeds {sorted(r['seed'] for r in rs)}")
        print(f"  {'metric':<26} {'base':>11} {'new':>11} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
        rows = lambda r: {**r.get("reported", {}), **r["metrics"]}
        names = sorted(set().union(*(rows(r) for r in b + n)))
        for name in names:
            bv = [rows(r)[name]["value"] for r in b if name in rows(r)]
            nv = [rows(r)[name]["value"] for r in n if name in rows(r)]
            if not bv or not nv:
                print(f"  {name:<26} present on one side only")
                continue
            better = next(rows(r)[name]["better"] for r in b + n if name in rows(r))
            bound = bounds.get(name) if not trace else None
            med_b, med_n, change, sp, word = verdict(bv, nv, better, bound)
            bad |= word == "worse" and bound is not None
            print(f"  {name:<26} {med_b:>11.5g} {med_n:>11.5g} {change:>+7.1%} {fmt(sp):>7} "
                  f"{fmt(bound):>6}  {word}")
        by_seed = {r["seed"]: r for r in b}
        for r in n:
            other = by_seed.get(r["seed"])
            if other is None:
                continue
            for name, m in sorted(r["outcomes"].items()):
                o = other["outcomes"].get(name)
                same = o is not None and o["value"] == m["value"]
                bad |= not same
                print(f"  outcome {name:<18} seed {r['seed']}: "
                      f"{'same' if same else 'DIFFERS'} ({fmt(o and o['value'])} -> {fmt(m['value'])})")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
