#!/usr/bin/env python3
"""Compares two sets of benchmark runs (the reports run.py saves).

    python3 perfbench/compare_runs.py --base A/*.json --new B/*.json

For every workload x metric it prints each set's median and quartiles.
End-to-end metrics (from untraced runs) are labelled against the bounds in
BENCHMARK.json:

  regressed   the new median is worse than the base median by more than
              the bound;
  unresolved  the base or new run-to-run spread (quartile distance over
              median) is wider than the bound, unless every new run reads
              better than every base run;
  improved    the new side wins at least 9 of 10 pairs (runs paired in
              seed order, ties counting for neither) and the medians differ
              by more than the base set's quartile distance;
  unchanged   otherwise.

Per-layer metrics (from traced runs) are printed without labels. Failure
shares are compared per workload. Runs marked invalid (their load
generator lagged) are skipped and counted. Exits 1 if anything regressed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """(workload, trace) -> list of valid reports in seed order; skipped."""
    runs, invalid = {}, {}
    for p in paths:
        r = json.loads(Path(p).read_text())
        key = (r["context"]["workload"], int(r["context"]["trace"]))
        if not r.get("valid", False):
            invalid[key[0]] = invalid.get(key[0], 0) + 1
            continue
        runs.setdefault(key, []).append(r)
    for reports in runs.values():
        reports.sort(key=lambda r: r["context"]["seed"])
    return runs, invalid


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def label(base, new, better, bound):
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n_med - b_med) / b_med
    if worse > bound:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    won = (wins >= 0.9 * len(pairs) and worse < 0
           and abs(n_med - b_med) > (b_q3 - b_q1))
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    if spread > bound and not all(sign * (n - b) < 0
                                  for b in base for n in new):
        return "unresolved"
    return "improved" if won else "unchanged"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    base, base_invalid = load(args.base)
    new, new_invalid = load(args.new)

    regressed = False
    print(f"{'workload':20s} {'metric':32s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  label")
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            a, b = base.get((w, trace), []), new.get((w, trace), [])
            if not a or not b:
                continue
            for m in metrics:
                va = [r["metrics"][m["name"]]["value"] for r in a]
                vb = [r["metrics"][m["name"]]["value"] for r in b]
                tail = ""
                if "bound" in m:
                    lab = label(va, vb, m["better"], m["bound"])
                    regressed |= lab == "regressed"
                    change = (statistics.median(vb) / statistics.median(va)
                              - 1.0)
                    tail = f"{change:+8.1%} {m['bound']:6.0%}  {lab}"
                print(f"{w:20s} {m['name']:32s} {fmt(va):>30s} "
                      f"{fmt(vb):>30s} {tail}")
        fa, fb = base.get((w, 0), []), new.get((w, 0), [])
        if fa and fb:
            share = [sum(r["failed"] for r in rs) / max(1, sum(r["attempted"]
                                                               for r in rs))
                     for rs in (fa, fb)]
            verdict = "more failures" if share[1] > share[0] else "ok"
            print(f"{w:20s} {'failed/attempted':32s} {share[0]:>30.3g} "
                  f"{share[1]:>30.3g} {'':8s} {'':6s}  {verdict}")
            regressed |= share[1] > share[0]
        skipped = (base_invalid.get(w, 0), new_invalid.get(w, 0))
        if any(skipped):
            print(f"{w:20s} invalid runs skipped: base {skipped[0]}, "
                  f"new {skipped[1]}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
