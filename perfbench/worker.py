"""One workload in a fresh process; prints its figures as one JSON line.

``run.py`` starts this with the BLAS/OpenMP pools pinned to one thread and
the checkout's ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--spans FILE.npz]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import platform
import re
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def numpy_runtime() -> dict:
    """numpy version and the SIMD extensions ``numpy.show_runtime()`` reports."""
    import numpy

    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        numpy.show_runtime()
    match = re.search(r"'simd_extensions': (\{[^{}]*\})", text.getvalue())
    return {"numpy": numpy.__version__,
            "simd": ast.literal_eval(match.group(1)) if match else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import ent23
    if Path(ent23.__file__).resolve().parent.parent != SRC:
        print(f"error: imported ent23 from {ent23.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tally = workloads.Tally()
    if args.trace:
        result = workloads.run_traced(workload, args.seconds, tally, args.spans)
    else:
        result = workloads.run_untraced(workload, args.seconds, tally)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=tally.attempted, failed=tally.failed,
                  digest_checks=getattr(workload, "digest_checks", 0),
                  meta={"python": platform.python_version(), **numpy_runtime()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
