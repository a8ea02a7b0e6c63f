"""Print the committed performance trajectory: every ``BENCH_*.json`` in order.

Run from anywhere:

    python bench_trajectory.py

Each ``BENCH_<k>.json`` compares change ``k`` with its parent commit over
alternating pairs of benchmark runs.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` this prints the parent's median, the change's
median, their ratio (change / parent), and how many pairs the change won.
The metric a record claims a gain on is marked ``*``; a record with
``"claim": null`` claims none.  The ratio is not "better" or "worse" by
itself: ``BENCHMARK.json`` says which direction each metric improves in, and
the table repeats it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent


def bench_files(root: Path = ROOT) -> list[Path]:
    """``BENCH_<k>.json`` files under ``root``, in increasing ``k``."""
    numbered = [(int(m.group(1)), path) for path in root.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return [path for _, path in sorted(numbered)]


def rows(root: Path = ROOT) -> list[tuple]:
    """``(file, workload, metric, better, parent median, change median, ratio,
    pairs won, pairs run, claimed)`` for every record, workload and metric."""
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    table = []
    for path in bench_files(root):
        record = json.loads(path.read_text())
        claim = record.get("claim") or {}
        for workload, sides in record["workloads"].items():
            for metric in metrics:
                name = metric["name"]
                parent = sides["parent"][name]["median"]
                change = sides["change"][name]["median"]
                table.append((path.name, workload, name, metric["better"], parent, change,
                              change / parent, sides["change_wins_pairs"][name],
                              len(sides["seeds"]),
                              (workload, name) == (claim.get("workload"), claim.get("metric"))))
    return table


def main() -> int:
    table = rows()
    if not table:
        print(f"no BENCH_*.json under {ROOT}", file=sys.stderr)
        return 1
    print(f"{'file':<14} {'workload':<14} {'metric':<15} {'better':<7}"
          f" {'parent':>10}   {'change':>10} {'ratio':>8} {'won':>6}")
    previous = None
    for name, workload, metric, better, parent, change, ratio, won, pairs, claimed in table:
        if previous is not None and name != previous:
            print()
        previous = name
        print(f"{name:<14} {workload:<14} {metric:<15} {better:<7}"
              f" {parent:>10.6g} → {change:>10.6g} {ratio:>7.3f}x {f'{won}/{pairs}':>6}"
              f"{' *' if claimed else ''}")
    print("\nratio = change median / parent median; won = pairs the change won;"
          " * = the record's claimed metric")
    return 0


if __name__ == "__main__":
    sys.exit(main())
