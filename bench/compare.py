"""Compare benchmark records of a parent commit and a change.

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json ...

Each file is a record written by ``bench/run.py --out``.  The i-th parent
file is paired with the i-th change file, so give both lists in the same
seed order and alternate which side runs first.  For every (workload,
metric) it prints each side's median and quartiles and one label:

improved    at least 10 pairs, the change wins at least 9 in 10 of them
            (ties count for neither) and the medians differ by more than
            the parent's interquartile distance
regressed   the change's median is worse than the parent's by more than
            the metric's bound in BENCHMARK.json (per-layer metrics, which
            have no bound: the parent wins 9 in 10 pairs by that margin)
unresolved  the parent's own spread is wider than the bound, and not every
            change run beats every parent run
unchanged   otherwise

``code_instructions`` and ``sim_cycles`` are exact counts: they must be
identical pair by pair, and any difference is labelled by its sign.
``fail_ratio`` (failed / attempted) may not rise at all.  The exit code is
1 when any pair is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

EXACT = ("code_instructions", "sim_cycles")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: List[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def series(records, workload: str, metric: str) -> List[float]:
    values = []
    for record in records:
        result = record["results"].get(workload)
        if result is None:
            continue
        if metric == "fail_ratio":
            values.append(result["failed"] / max(result["attempted"], 1))
        elif metric in result["metrics"]:
            values.append(result["metrics"][metric]["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def label(parent: List[float], change: List[float], lower_better: bool,
          bound: Optional[float], exact: bool) -> Tuple[str, int]:
    """``(label, change wins)`` for one (workload, metric)."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if exact:
        if not losses and not wins:
            return "unchanged", wins
        return ("regressed" if losses else "improved"), wins
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    spread = p3 - p1
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    decisive = len(pairs) >= MIN_PAIRS and abs(cmed - pmed) > spread
    if decisive and wins >= WIN_SHARE * len(pairs):
        return "improved", wins
    if bound is None:
        if decisive and losses >= WIN_SHARE * len(pairs):
            return "regressed", wins
        return "unchanged", wins
    if worse > bound:
        return "regressed", wins
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if pmed and spread / abs(pmed) > bound and not beats_all:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Label each (workload, metric) improved, unchanged, "
                    "regressed or unresolved.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    declared["fail_ratio"] = {"name": "fail_ratio", "better": "lower",
                              "bound": 0.0, "unit": "ratio"}
    parents, changes = load(args.parent), load(args.change)
    workloads = [w["name"] for w in spec["workloads"]]

    def summary(values: List[float]) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':22s} {'metric':32s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'delta':>7s} {'wins':>6s}  label")
    bad = 0
    for workload in workloads:
        for name, metric in declared.items():
            parent = series(parents, workload, name)
            change = series(changes, workload, name)
            if not parent or not change or not any(parent + change):
                continue
            verdict, wins = label(parent, change,
                                  metric["better"] == "lower",
                                  metric.get("bound"),
                                  name in EXACT or name == "fail_ratio")
            bad += verdict in ("regressed", "unresolved")
            pmed, cmed = quartiles(parent)[1], quartiles(change)[1]
            delta = (cmed - pmed) / abs(pmed) if pmed else 0.0
            pairs = min(len(parent), len(change))
            print(f"{workload:22s} {name:32s} {summary(parent):32s} "
                  f"{summary(change):32s} {delta:>+7.1%} "
                  f"{wins:>2d}/{pairs:<3d}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
