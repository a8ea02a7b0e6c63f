"""Every ``BENCH_*.json`` at the repository root is a readable benchmark record.

A record compares a parent commit with the change on top of it.  The parent
is named by its commit; the change cannot hold its own commit hash, so it is
named by the parent it applies to and the sha256 of its ``src`` tree, as the
perfbench result records compute it.  ``bench_trajectory.py`` prints them all.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [metric["name"] for metric in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_parses_and_names_its_commit(path):
    record = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"]["commit"])
    assert record["change"]["parent_commit"] == record["parent"]["commit"]
    for tree in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{64}", record[tree]["src_sha256"])
    assert record["machine"]["nproc"] >= 1
    for workload, sides in record["workloads"].items():
        for tree in ("parent", "change"):
            for metric in END_TO_END:
                low, median, high = (sides[tree][metric][key] for key in ("q1", "median", "q3"))
                assert low <= median <= high, (workload, tree, metric)


def test_trajectory_prints_every_median_of_every_record():
    result = subprocess.run([sys.executable, str(ROOT / "bench_trajectory.py")],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    lines = [" ".join(line.split()) for line in result.stdout.splitlines()]
    paths = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    printed = [line.split()[0] for line in lines if line.startswith("BENCH_")]
    assert list(dict.fromkeys(printed)) == [path.name for path in paths]
    for path in paths:
        record = json.loads(path.read_text())
        for workload, sides in record["workloads"].items():
            for metric in END_TO_END:
                parent, change = (sides[tree][metric]["median"] for tree in ("parent", "change"))
                row = [line for line in lines
                       if line.startswith(f"{path.name} {workload} {metric} ")]
                assert len(row) == 1, (path.name, workload, metric)
                assert f" {parent:.6g} → {change:.6g} {change / parent:.3f}x " in row[0]
