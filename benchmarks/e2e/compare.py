"""Compare two sets of benchmark results, metric by metric, per workload.

    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds the result JSONs ``run.py`` writes under ``--out``
(traced results are skipped).  For every workload and end-to-end metric the
table shows each side's median and quartiles and a verdict against the
metric's ``bound`` in ``BENCHMARK.json``:

* ``unresolved`` - a side's spread (interquartile range over median) is
  wider than the bound, unless every new run reads better than every base
  run (``better``);
* ``worse`` / ``better`` - the medians differ by more than the bound;
* ``within`` - otherwise.

``failed_fraction`` (failed over attempted operations) may not increase at
all.  For every seed run on both sides it also reports whether the
simulated outputs are bit-identical (the runs' ``digest``).  The exit
status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> Dict[str, List[dict]]:
    """Untraced results of ``directory``, grouped by workload."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if "workload" in result and not result.get("trace"):
            runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: List[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: List[float], new: List[float], higher_is_better: bool,
            bound: float) -> str:
    sign = 1.0 if higher_is_better else -1.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * n > sign * b for n in new for b in base):
            return "better"
        return "unresolved"
    mb, mn = quartiles(base)[1], quartiles(new)[1]
    change = sign * (mn - mb) / abs(mb) if mb else sign * (mn - mb)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within"


def compare(base: Dict[str, List[dict]], new: Dict[str, List[dict]],
            spec: dict) -> List[tuple]:
    """One row per workload x metric: (workload, metric, base values,
    new values, verdict)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        if not b_runs or not n_runs:
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            n = [r["metrics"][m["name"]]["value"] for r in n_runs]
            rows.append((workload, m["name"], b, n,
                         verdict(b, n, m["better"] == "higher", m["bound"])))
        b = [r["failed"] / r["attempted"] for r in b_runs]
        n = [r["failed"] / r["attempted"] for r in n_runs]
        mb, mn = statistics.median(b), statistics.median(n)
        rows.append((workload, "failed_fraction", b, n,
                     "worse" if mn > mb else "better" if mn < mb
                     else "within"))
    return rows


def sim_notes(base: Dict[str, List[dict]],
              new: Dict[str, List[dict]]) -> List[str]:
    """Per workload: do runs of the same seed have the same simulated
    outputs on both sides?  (Any model change shows here, however small.)"""
    notes = []
    for workload, n_runs in new.items():
        digests = {r["seed"]: r["digest"] for r in base.get(workload, [])}
        shared = [r for r in n_runs if r["seed"] in digests]
        differ = sorted({r["seed"] for r in shared
                         if r["digest"] != digests[r["seed"]]})
        if differ:
            notes.append(f"{workload}: simulated outputs differ on seeds "
                         f"{differ}")
        elif shared:
            notes.append(f"{workload}: simulated outputs identical on "
                         f"{len({r['seed'] for r in shared})} shared seeds")
    return notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    rows = compare(base, new, spec)
    if not rows:
        print("compare.py: no workload has results on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<20} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34}  verdict")
    for workload, metric, b, n, v in rows:
        cells = []
        for values in (b, n):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
        print(f"{workload:<16} {metric:<20} {cells[0]:>34} {cells[1]:>34}  "
              f"{v}")
    for note in sim_notes(base, new):
        print(note)
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
