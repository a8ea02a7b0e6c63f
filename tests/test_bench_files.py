"""Every ``BENCH_*.json`` at the repository root is a readable benchmark record.

A record compares a parent commit with the change on top of it.  The parent
is named by its commit; the change cannot hold its own commit hash, so it is
named by the parent it applies to and the sha256 of its ``src`` tree, as the
perfbench result records compute it.
"""

import json
import re
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
