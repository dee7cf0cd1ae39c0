"""Compare benchmark results of a parent commit and a change.

Usage::

    python3 benchmarks/e2e/compare.py --parent p0.json p1.json ... \\
        --change c0.json c1.json ...

Each file is a ``run.py --out`` document.  Runs are paired in the order
given (parent run i with change run i), so alternate which side runs first
when collecting them.  For every workload and end-to-end metric in
``BENCHMARK.json`` the report gives each side's median and quartiles and a
verdict:

``gain``
    at least 10 pairs, the change wins at least 9/10 of them (ties count
    for neither), and the medians differ by more than the parent's
    interquartile range;
``regression``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    either side's spread (IQR / median) exceeds the bound, unless every
    change run beats every parent run;
``same``
    otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths: list[Path]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in the order the files were given."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        for run in json.loads(path.read_text())["runs"]:
            for name, metric in run["metrics"].items():
                values[run["workload"]][name].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regression"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(c_med - p_med) > p3 - p1
        and sign * (c_med - p_med) > 0
    ):
        return "gain"
    wide = (p3 - p1) > bound * abs(p_med) or (c3 - c1) > bound * abs(c_med)
    if wide and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "same"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    regressed = False
    pairs = min(len(args.parent), len(args.change))
    if pairs < 10:
        print(f"note: {pairs} pair(s); a gain needs at least 10 alternating pairs")
    header = (
        f"{'metric':<18}{'parent median [q1, q3]':>36}"
        f"{'change median [q1, q3]':>36}{'wins':>8}  verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        print(f"== {workload}")
        print(header)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = parent[workload].get(name), change[workload].get(name)
            if not p or not c:
                continue
            result = verdict(p, c, metric["better"], metric["bound"])
            regressed |= result == "regression"
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
            pq, cq = quartiles(p), quartiles(c)
            print(
                f"{name:<18}"
                f"{f'{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]':>36}"
                f"{f'{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]':>36}"
                f"{f'{wins}/{min(len(p), len(c))}':>8}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
