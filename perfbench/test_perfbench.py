"""Self-tests of the benchmark harness, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ent23.measures  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Tally, run_traced, run_untraced  # noqa: E402

TINY = {"sample-haar23": {"states": 20}, "verify-suite": {"states": 20},
        "compute-mixed": {"pool": 36}}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def make(name: str, workdir: Path, seed: int = 5):
    return workloads.WORKLOADS[name](seed, workdir, **TINY[name])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_passes_its_gate(name, tmp_path):
    tally = Tally()
    result = run_untraced(make(name, tmp_path), 0.0, tally)
    assert tally.failed == 0 and tally.attempted >= 3
    assert result["calls"] >= 2 and result["states_per_s"] > 0
    assert result["latency_p50_ms"] <= result["latency_p99_ms"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_and_outputs_match_untraced(name, tmp_path):
    counts = []
    for _ in range(2):
        tally = Tally()
        layers = run_traced(make(name, tmp_path), 0.0, tally, None)["layers"]
        # failed also counts every traced output that differs from its
        # untraced twin.
        assert tally.failed == 0
        counts.append({k: v for k, v in layers.items() if k.endswith(".calls_per_state")})
        assert "trace.overhead_pct" in layers
    assert counts[0] == counts[1]
    assert not hasattr(ent23.measures.decompose, "__wrapped__"), "tracer left a wrapper"
    # Every per-layer metric BENCHMARK.json lists for this workload is recorded.
    prefix = name + "."
    wanted = [m for m in BENCHMARK["per_layer"] if m["name"].startswith(prefix)]
    recorded = {prefix + k: v for k, v in layers.items()}
    assert wanted and run.layer_metrics(wanted, recorded)[1] == []


def test_unrecorded_layer_is_missing_not_zero():
    specs = [{"name": n, "unit": "count", "better": "lower"}
             for n in ("w.a.calls_per_state", "w.b.calls_per_state", "w.c.calls_per_state")]
    metrics, missing = run.layer_metrics(specs, {"w.a.calls_per_state": 2.0,
                                                 "w.b.calls_per_state": 0.0})
    assert metrics == {"w.a.calls_per_state": {"value": 2.0, "unit": "count"}}
    assert missing == ["w.b.calls_per_state", "w.c.calls_per_state"]


def test_trace_mismatch_counts_as_failure(tmp_path):
    attempts = []

    def reformat_traced_output(index, out):
        # Attempt 3 is the first traced pass (warm-up, untraced, traced); the
        # reformatted JSON still passes the check but differs in bytes.
        attempts.append(index)
        return out.replace(b", ", b",") if len(attempts) == 3 else out

    tally = Tally(reformat_traced_output)
    run_traced(make("verify-suite", tmp_path), 0.0, tally, None)
    assert tally.failed == 1


def _replace_field(line: bytes, column: int, value: bytes) -> bytes:
    fields = line.split(b",")
    fields[column] = value
    return b",".join(fields)


def test_corrupted_csv_row_raises_error_rate(tmp_path):
    def corrupt(index, out):
        lines = out.split(b"\n")
        lines[4] = _replace_field(lines[4], 1, b"0.123")   # row 2, column c
        return b"\n".join(lines)

    tally = Tally(corrupt)
    run_untraced(make("sample-haar23", tmp_path), 0.0, tally)
    assert tally.failed == tally.attempted > 0


def test_corrupted_compute_output_raises_error_rate(tmp_path):
    def corrupt(index, out):
        lines = out.decode().split("\n")
        name, value = lines[1].split()                      # c_amplitude
        lines[1] = f"{name} {float(value) + 1e-6!r}"
        return "\n".join(lines).encode()

    tally = Tally(corrupt)
    run_untraced(make("compute-mixed", tmp_path), 0.0, tally)
    assert tally.failed == tally.attempted > 0


@pytest.mark.parametrize("seed", [42, 20061])
def test_sample_digest_gate(seed, tmp_path):
    workload = workloads.SampleHaar23(seed, tmp_path)
    tally = Tally()
    tally.attempt(workload, 0, workload.invoke)
    assert tally.failed == 0 and workload.digest_checks == 1

    # A change in the last printed digit stays within the row tolerance, so
    # only the recorded digest can catch it.
    def nudge(index, out):
        lines = out.split(b"\n")
        last = lines[2].split(b",")[-1]
        digit = b"1" if last[-1:] != b"1" else b"2"
        lines[2] = _replace_field(lines[2], 6, last[:-1] + digit)
        return b"\n".join(lines)

    tally = Tally(nudge)
    tally.attempt(workload, 0, workload.invoke)
    assert tally.failed == 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compute-mixed",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.stdout.strip().split("\n")[-1] or "missing")
