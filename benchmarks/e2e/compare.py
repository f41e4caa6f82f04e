"""Compare two sets of benchmark runs: parent commit against a change.

Usage (from the repository root)::

    python benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the per-run records ``run.py`` writes
(``<workload>-seed<S>-trace<T>.json``), one per seed.  Runs with the same
workload, trace mode and seed in both sets form a pair.  For every metric
and workload the tool prints each side's median and quartiles, the pair
wins, and one verdict:

* ``improved``: the change wins at least 90% of the pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the parent's inter-quartile range;
* ``unresolved``: fewer than two runs a side, or the parent's spread is
  wider than the metric's bound;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (for per-layer metrics, which have no bound: the mirror image
  of ``improved``);
* ``unchanged``: none of the above.

The exit status is 1 when an end-to-end metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import summary

ROOT = Path(__file__).resolve().parents[2]
#: Share of pairs the change must win to count as an improvement.
WIN_SHARE = 0.9

Key = Tuple[str, int, int]  # (workload, trace, seed)


def load_runs(path: Path) -> Dict[Key, Dict[str, float]]:
    """Metric values of every run record under ``path`` (file or dir)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[Key, Dict[str, float]] = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        detail = record.get("detail") if isinstance(record, dict) else None
        if not detail or "metrics" not in record:
            continue  # Chrome traces and other files
        key = (detail["workload"], int(detail["trace"]), int(detail["seed"]))
        runs[key] = {name: float(m["value"])
                     for name, m in record["metrics"].items()}
    return runs


def pair_wins(pairs: Sequence[Tuple[float, float]], better: str
              ) -> Tuple[int, int]:
    """(change wins, change losses) over (parent, change) pairs."""
    sign = 1.0 if better == "higher" else -1.0
    return (sum(1 for p, c in pairs if sign * (c - p) > 0),
            sum(1 for p, c in pairs if sign * (c - p) < 0))


def verdict(parent: Sequence[float], change: Sequence[float],
            pairs: Sequence[Tuple[float, float]], better: str,
            bound: Optional[float]) -> str:
    """One metric's verdict under the rule in the module docstring."""
    if len(parent) < 2 or len(change) < 2:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    mid_p = summary.median(parent)
    mid_c = summary.median(change)
    q1, q3 = summary.quartiles(parent)
    spread = q3 - q1
    gain = sign * (mid_c - mid_p)
    wins, losses = pair_wins(pairs, better)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved"
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and -gain > spread:
            return "worse"
        return "unchanged"
    if summary.iqr_share(parent) > bound:
        return "unresolved"
    if -gain > bound * abs(mid_p):
        return "worse"
    return "unchanged"


def compare(parent: Dict[Key, Dict[str, float]],
            change: Dict[Key, Dict[str, float]],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present on both sides."""
    specs = {m["name"]: (m["better"], m.get("bound"), kind)
             for kind in ("end_to_end", "per_layer")
             for m in benchmark[kind]}
    groups = sorted({(w, t) for w, t, _ in parent} & {(w, t) for w, t, _ in
                                                       change})
    rows = []
    for workload, trace in groups:
        p_runs = {s: v for (w, t, s), v in parent.items()
                  if (w, t) == (workload, trace)}
        c_runs = {s: v for (w, t, s), v in change.items()
                  if (w, t) == (workload, trace)}
        names = sorted(set().union(*p_runs.values())
                       & set().union(*c_runs.values()))
        for name in names:
            if name not in specs:
                continue
            better, bound, kind = specs[name]
            p_vals = [v[name] for v in p_runs.values() if name in v]
            c_vals = [v[name] for v in c_runs.values() if name in v]
            pairs = [(p_runs[s][name], c_runs[s][name])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s] and name in c_runs[s]]
            rows.append({
                "workload": workload, "metric": name, "kind": kind,
                "parent": summary.describe(p_vals),
                "change": summary.describe(c_vals),
                "wins": pair_wins(pairs, better)[0],
                "pairs": len(pairs),
                "verdict": verdict(p_vals, c_vals, pairs, better, bound),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rows = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    if not rows:
        print("no workload and metric present in both sets", file=sys.stderr)
        return 2
    for r in rows:
        p, c = r["parent"], r["change"]
        delta = ((c["median"] - p["median"]) / p["median"] * 100
                 if p["median"] else 0.0)
        print(f"{r['workload']:18s} {r['metric']:32s} "
              f"{p['median']:>12.6g} [{p['q1']:.4g}-{p['q3']:.4g}] -> "
              f"{c['median']:>12.6g} [{c['q1']:.4g}-{c['q3']:.4g}] "
              f"{delta:+7.2f}% wins {r['wins']}/{r['pairs']} "
              f"{r['verdict']}")
    worse = any(r["verdict"] == "worse" and r["kind"] == "end_to_end"
                for r in rows)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
