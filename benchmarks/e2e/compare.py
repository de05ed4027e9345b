"""Compare two sets of benchmark runs, metric by metric.

    python -m benchmarks.e2e.compare PARENT_DIR CHANGE_DIR

Each directory holds untraced run records (``*.json`` written by
``run.py --out``, searched recursively). For every (workload, end-to-end
metric) pair the rule is the one for small, noisy machines:

* runs are paired by seed (in seed order when the two sets differ);
* first, per workload, a **correctness** row: **regressed** when any change
  run failed its correctness gate or the change's median count of failed
  operations is above the parent's, whatever the metrics say;
* **improved** — the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's own
  interquartile spread;
* **regressed** — the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* **unchanged** — neither, and the parent's spread fits inside the bound;
* **unresolved** — the spread is wider than the bound (so neither a
  regression nor "unchanged" can be shown), unless every change run reads
  better than every parent run.

Exit status 0 when no row is regressed or unresolved, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.bench import load_spec


def load_runs(directory: str) -> dict[str, list[dict]]:
    """Untraced run records under ``directory``, by workload, seed order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if (isinstance(record, dict) and record.get("kind") == "e2e-run"
                and not record.get("trace")):
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["seed"])
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, pairs: list[tuple[float, float]]) -> dict:
    """Apply the comparison rule to one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    scale = abs(p_med) if p_med else 1.0
    gain = sign * (c_med - p_med) / scale
    spread = (p_q3 - p_q1) / scale
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    win_fraction = wins / len(pairs) if pairs else 0.0
    all_better = (sign * (min(change) if sign > 0 else max(change))
                  > sign * (max(parent) if sign > 0 else min(parent)))
    if win_fraction >= 0.9 and gain > 0 and abs(c_med - p_med) > p_q3 - p_q1:
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif gain < -bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "gain": gain, "spread": spread, "win_fraction": win_fraction,
            "verdict": outcome}


def correctness(parent: list[dict], change: list[dict]) -> dict:
    """Regressed when a change run is incorrect or more operations fail."""
    wrong = sum(not record["correct"] for record in change)
    parent_failed = statistics.median(record["failed"] for record in parent)
    change_failed = statistics.median(record["failed"] for record in change)
    regressed = wrong > 0 or change_failed > parent_failed
    return {"verdict": "regressed" if regressed else "unchanged",
            "note": f"{wrong} incorrect; median failed "
                    f"{parent_failed:g} -> {change_failed:g}"}


def compare(parent_dir: str, change_dir: str, spec: dict) -> list[dict]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload), change_runs.get(workload)
        if not parent or not change:
            rows.append({"workload": workload, "metric": "*",
                         "verdict": "unresolved",
                         "note": "runs missing on one side"})
            continue
        rows.append({"workload": workload, "metric": "correctness",
                     **correctness(parent, change)})
        by_seed = {record["seed"]: record for record in change}
        paired = [(p, by_seed[p["seed"]]) for p in parent
                  if p["seed"] in by_seed]
        if not paired:
            paired = list(zip(parent, change))
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(record):
                return record["end_to_end"][name]["value"]

            row = verdict([value(r) for r in parent], [value(r) for r in change],
                          metric["better"], metric["bound"],
                          [(value(p), value(c)) for p, c in paired])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"], n=(len(parent), len(change)))
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of parent-commit runs")
    parser.add_argument("change", help="directory of change runs")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, load_spec())
    print(f"{'workload':<14} {'metric':<16} {'parent med [q1, q3]':>30} "
          f"{'change med [q1, q3]':>30} {'gain':>7} {'wins':>5} "
          f"{'bound':>5}  verdict")
    for row in rows:
        if "parent" not in row:
            print(f"{row['workload']:<14} {row['metric']:<16} "
                  f"{row['note']:>61}  {row['verdict']}")
            continue
        parent = "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["parent"])
        change = "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["change"])
        print(f"{row['workload']:<14} {row['metric']:<16} {parent:>30} "
              f"{change:>30} {row['gain']:>+7.1%} {row['win_fraction']:>5.0%} "
              f"{row['bound']:>5.0%}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
