"""ent23 benchmark: end-to-end figures per workload, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh single-threaded worker process (one at a time,
so never more workers than CPUs) against the checkout's ``src``.  With
``--trace 0`` it prints every end-to-end metric of BENCHMARK.json by name and
unit, plus ``error_rate``, for the chosen workload (for ``all``, for each).
With ``--trace 1`` it traces every workload, whatever ``--workload`` names,
in an equal share of ``--seconds`` each, and prints every per-layer metric;
their names start with the workload they were measured on.  It exits
non-zero without a result when a per-layer metric was recorded on no call.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (for ``--workload all
--trace 0``, one such object per workload).  Full results with run metadata
go to ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 7
#: Times ``import ent23`` in a fresh interpreter, then the calibration kernel.
_IMPORT_PROBE = """\
import time
t = time.perf_counter()
import ent23
t = time.perf_counter() - t
import sys
sys.path.insert(0, "perfbench")
import calibrate
print(t)
print(calibrate.kernel_seconds())
print(ent23.__file__)
"""

#: Whole-run budget in seconds; the worker is stopped if it would exceed it.
RUN_BUDGET = 175.0


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


def setup_seconds(env: dict[str, str]) -> list[tuple[float, float]]:
    """``(import seconds, kernel seconds)`` from SETUP_REPEATS fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, kernel, module_file = out.stdout.split("\n")[:3]
        if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported ent23 from {module_file}")
        samples.append((float(seconds), float(kernel)))
    return samples


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata() -> dict:
    """Commit (None outside a git checkout), source digest and machine."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": _commit(), "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               env: dict[str, str], timeout: float) -> dict:
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS, prefix="work-") as workdir:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir]
        if trace:
            cmd += ["--spans", str(RUNS / f"spans-{workload}.npz")]
        out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=timeout, check=True)
    return json.loads(out.stdout.strip().split("\n")[-1])


def run_one(bench: dict, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics of one workload."""
    env = pinned_env()
    setup = setup_seconds(env)
    worker = run_worker(workload, seed, seconds, 0, env, deadline - time.monotonic())
    values = {**worker, "setup_s": statistics.median(
        t * calibrate.KERNEL_REFERENCE_S / k for t, k in setup)}
    specs = bench["end_to_end"]
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
              "result": result, "error_rate": worker["failed"] / worker["attempted"],
              "setup_samples_s": setup,
              "meta": {**metadata(), **worker.pop("meta")}, "worker": worker}
    (RUNS / f"result-{workload}-seed{seed}-trace0.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_table(record, specs)
    return result


def layer_metrics(specs: list[dict], recorded: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from ``recorded``, and the names it has no figure for.

    A name is missing when no traced call recorded it: the layer no longer
    exists under that name, can no longer be wrapped, or its workload no
    longer calls it.  A missing name is never reported as 0, which would read
    as a gain.
    """
    metrics, missing = {}, []
    for spec in specs:
        value = recorded.get(spec["name"])
        if value:
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        else:
            missing.append(spec["name"])
    return metrics, missing


def run_traced(bench: dict, seed: int, seconds: float, deadline: float) -> dict:
    """Per-layer metrics of every workload, named ``<workload>.<module>.<name>.<stat>``.

    Each workload gets an equal share of ``seconds`` in its own worker; a
    layer appears in BENCHMARK.json only under the workloads that call it.
    Raises RuntimeError when a per-layer metric was recorded on no traced call.
    """
    env = pinned_env()
    names = [w["name"] for w in bench["workloads"]]
    workers, recorded, unscaled = {}, {}, {}
    for name in names:
        worker = run_worker(name, seed, seconds / len(names), 1, env,
                            deadline - time.monotonic())
        workers[name] = worker
        recorded.update((f"{name}.{k}", v) for k, v in worker["layers"].items())
        unscaled.update((f"{name}.{k}", v) for k, v in worker["unscaled_layers"].items())
    metrics, missing = layer_metrics(bench["per_layer"], recorded)
    attempted = sum(w["attempted"] for w in workers.values())
    failed = sum(w["failed"] for w in workers.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    meta = {**metadata(), **workers[names[0]]["meta"]}
    record = {"seed": seed, "seconds": seconds, "trace": 1, "result": result,
              "missing": missing, "unscaled": unscaled, "meta": meta,
              "workers": workers}
    (RUNS / f"result-trace-seed{seed}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"== every workload  seed={seed}  trace=1")
    for name, metric in metrics.items():
        raw = unscaled.get(name)
        note = f"(unscaled {raw:.6g})" if raw is not None else ""
        print(f"{name:<64} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    print(f"{'error_rate':<64} {failed / attempted:>14.6g} {'':<6} "
          f"({failed} failed / {attempted} attempted)")
    print("meta " + json.dumps(meta, sort_keys=True))
    if missing:
        raise RuntimeError("per-layer metrics of BENCHMARK.json recorded on no traced call: "
                           + ", ".join(missing))
    return result


def _print_table(record: dict, specs: list[dict]) -> None:
    worker = record["worker"]
    print(f"== {record['workload']}  seed={record['seed']}  trace=0")
    notes = {"latency_p50_ms": f"({worker['calls']} calls)",
             "latency_p99_ms": f"({worker['calls']} calls)",
             "setup_s": f"(median of {SETUP_REPEATS} fresh imports)"}
    for spec in specs:
        value = record["result"]["metrics"][spec["name"]]["value"]
        print(f"{spec['name']:<40} {value:>14.6g} {spec['unit']:<6} {notes.get(spec['name'], '')}")
    print("unscaled (see perfbench/calibrate.py): " + ", ".join(
        f"{name} {worker['unscaled_' + name]:.6g}"
        for name in ("states_per_s", "latency_p50_ms", "latency_p99_ms"))
        + f"; kernel median {worker['kernel_ms_median']:.4g} ms")
    print(f"{'error_rate':<40} {record['error_rate']:>14.6g} {'':<6} "
          f"({record['result']['failed']} failed / {record['result']['attempted']} attempted)")
    print("meta " + json.dumps(record["meta"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ent23" / "__init__.py").is_file():
        print(f"error: no ent23 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = run_traced(bench, args.seed, args.seconds, time.monotonic() + RUN_BUDGET)
        else:
            chosen = names if args.workload == "all" else [args.workload]
            deadline = time.monotonic() + RUN_BUDGET * len(chosen)
            results = {name: run_one(bench, name, args.seed, args.seconds, deadline)
                       for name in chosen}
            result = results if args.workload == "all" else results[args.workload]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
