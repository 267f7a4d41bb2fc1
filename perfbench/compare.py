"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files (``*.trace0.json``) that
run.py writes with ``--out``.  For every end-to-end metric in
BENCHMARK.json and every workload, the helper prints each side's median
and quartiles and one verdict:

* ``improved``: the change wins at least nine tenths of the pairs (runs
  paired by seed, ties counting for neither) and the medians differ, in
  the better direction, by more than the parent's quartile spread;
* ``no worse``: the change's median is no worse than the parent's by more
  than the metric's bound, and both sides' spreads are within the bound;
* ``unresolved``: a spread is wider than the bound, unless every change
  run reads better than every parent run;
* ``worse``: the change's median is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: metrics}} from one directory of result files."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.trace0.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(result["workload"], {})[result["seed"]] = {
            k: v["value"] for k, v in result["metrics"].items()
        }
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs, bound: float,
            lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1):
        return "improved"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    if (p3 - p1) > bound * abs(pm) or (c3 - c1) > bound * abs(cm):
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "no worse"
        return "unresolved"
    return "no worse"


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> list[str]:
    parent, change = load(parent_dir), load(change_dir)
    row = "{:<18} {:<14} {:<30} {:<30} {:>7}  {}"
    lines = [row.format("metric", "workload", "parent median [q1, q3]",
                        "change median [q1, q3]", "delta", "verdict (runs)")]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in (w["name"] for w in spec["workloads"]):
            a = {s: m[name] for s, m in parent.get(workload, {}).items() if name in m}
            b = {s: m[name] for s, m in change.get(workload, {}).items() if name in m}
            if not a or not b:
                lines.append(row.format(name, workload, "", "", "", "missing runs"))
                continue
            pa, pb = list(a.values()), list(b.values())
            pairs = [(a[s], b[s]) for s in sorted(a.keys() & b.keys())]
            if not pairs:
                pairs = list(zip(pa, pb))
            pm, cm = statistics.median(pa), statistics.median(pb)
            delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            v = verdict(pa, pb, pairs, metric["bound"], metric["better"] == "lower")
            lines.append(row.format(name, workload, summary(pa), summary(pb), delta,
                                    f"{v} ({len(pa)}/{len(pb)})"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    print("\n".join(compare(args.parent, args.change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
