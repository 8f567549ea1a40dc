#!/usr/bin/env python3
"""Compare ``run.py --out`` files: parent against change, pair by pair.

    python3 benchmarks/e2e/compare.py --base a1.json [a2.json ...] \\
                                      --new  b1.json [b2.json ...]

The sets of the base files and of the new files are taken in run order
and the i-th base set is paired with the i-th new set. For every
(metric, workload):

* **host** end-to-end metrics get medians, quartiles, wins/pairs and a
  verdict from the metric's bound in BENCHMARK.json:
  ``improved``   the change wins >= 9/10 of >= 10 pairs (ties count for
                 neither) and the medians differ by more than the
                 distance between the base's own quartiles;
  ``regressed``  the change's median is worse than the base's by more
                 than the bound;
  ``unresolved`` the base's own quartile spread is wider than the bound
                 (unless every new run beats every base run);
  ``unchanged``  otherwise.
* **sim** metrics (modelled seconds, deterministic counts) are compared
  exactly: ``identical`` or ``differs`` with the delta as a count,
  never as a percentage.
* host per-layer metrics have no bound: they are printed as ``diag``
  with their medians, to show *where* a change landed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Dict, List

import metrics


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _values(sets: List[dict], workload: str, metric: str) -> List[float]:
    return [one["results"][workload]["metrics"][metric] for one in sets
            if metric in one["results"].get(workload, {}).get("metrics", {})]


def compare(base: List[dict], new: List[dict]) -> List[dict]:
    pairs = min(len(base), len(new))
    base, new = base[:pairs], new[:pairs]
    kinds, better, bounds = metrics.kinds(), metrics.better(), \
        metrics.bounds()
    rows = []
    names = [name for name, *_ in metrics.END_TO_END] \
        + [name for name, *_ in metrics.PER_LAYER]
    for workload, _why in metrics.WORKLOADS:
        for metric in names:
            a = _values(base, workload, metric)
            b = _values(new, workload, metric)
            if not a or len(a) != len(b):
                continue
            row = {"workload": workload, "metric": metric,
                   "kind": kinds[metric], "pairs": len(a)}
            if kinds[metric] == "sim":
                deltas = [y - x for x, y in zip(a, b)]
                row["verdict"] = ("identical" if not any(deltas)
                                  else "differs")
                row["delta"] = next((d for d in deltas if d), 0)
                row["base"], row["new"] = a[0], b[0]
                if any(a) or any(b):
                    rows.append(row)
                continue
            if not any(a) and not any(b):
                continue            # layer absent from this workload
            sign = 1.0 if better[metric] == "lower" else -1.0
            a_q1, a_med, a_q3 = _quartiles(a)
            b_q1, b_med, b_q3 = _quartiles(b)
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
            losses = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            worse = sign * (b_med - a_med) / a_med if a_med else 0.0
            spread = (a_q3 - a_q1) / a_med if a_med else 0.0
            row.update(base=a_med, base_q=(a_q1, a_q3), new=b_med,
                       new_q=(b_q1, b_q3), wins=wins, delta=worse,
                       spread=spread)
            bound = bounds.get(metric)
            if bound is None:
                row["verdict"] = "diag"
            else:
                clean_sweep = all(sign * (y - x) < 0 for x in a for y in b)
                decisive = wins + losses
                if (len(a) >= 10 and decisive
                        and wins >= 0.9 * decisive
                        and abs(b_med - a_med) > (a_q3 - a_q1)):
                    row["verdict"] = "improved"
                elif spread > bound and not clean_sweep:
                    row["verdict"] = "unresolved"
                elif worse > bound:
                    row["verdict"] = "regressed"
                else:
                    row["verdict"] = "unchanged"
            rows.append(row)
    return rows


def report(rows: List[dict]) -> None:
    print(f"{'workload':18s} {'metric':28s} {'base':>12s} {'new':>12s} "
          f"{'change':>9s} {'wins':>7s}  verdict")
    for row in rows:
        if row["kind"] == "sim":
            change = f"{row['delta']:+g}" if row["delta"] else "="
            wins = ""
        else:
            change = f"{-row['delta']:+.1%}" if metrics.better()[
                row["metric"]] == "higher" else f"{row['delta']:+.1%}"
            wins = f"{row['wins']}/{row['pairs']}"
        print(f"{row['workload']:18s} {row['metric']:28s} "
              f"{row['base']:>12.6g} {row['new']:>12.6g} {change:>9s} "
              f"{wins:>7s}  {row['verdict']}")
        if row["kind"] == "host" and row["pairs"] > 1:
            print(f"{'':47s} quartiles base {row['base_q'][0]:.6g}.."
                  f"{row['base_q'][1]:.6g}  new {row['new_q'][0]:.6g}.."
                  f"{row['new_q'][1]:.6g}")


def load_sets(paths: List[str]) -> List[dict]:
    sets: List[dict] = []
    for path in paths:
        with open(path) as handle:
            sets.extend(json.load(handle)["sets"])
    return sets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    rows = compare(load_sets(args.base), load_sets(args.new))
    report(rows)
    bad = [row for row in rows if row["verdict"] in ("regressed", "differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
