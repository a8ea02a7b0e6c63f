"""Machine-speed calibration for the benchmark's timings.

On a shared machine the CPU speed this benchmark gets switches between levels
for seconds to minutes at a time as other tenants come and go; on the 2-CPU
VM the benchmark was defined on, calls slowed by up to 2.1x while the ratio of
a call's time to this kernel's time stayed within 4%.  So every timed batch
of calls is bracketed by kernel runs, and its call times are scaled by
``KERNEL_REFERENCE_S / kernel time``: reported times are what the calls take
on a machine where the kernel takes KERNEL_REFERENCE_S.

The kernel is a fixed piece of benchmark code that imports nothing from
``ent23``, so a change to the package moves the scaled timings and a change
in the machine's speed does not.  Changing the kernel or the reference
changes every timing this benchmark reports.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

#: Kernel time on the undisturbed 2-CPU Xeon VM the benchmark was defined on
#: (CPython 3.11.7, numpy 2.4.6), so scaled timings read about as real ones
#: there.
KERNEL_REFERENCE_S = 1.0e-3

_MASK64 = (1 << 64) - 1
_VEC = np.array([0.6, 0.2j, 0.1, 0.3, -0.5, 0.4j]) / math.sqrt(0.91)


def kernel() -> float:
    """Small-array numpy dispatch, interpreted integer and float arithmetic and
    JSON/text handling, in about the proportions of the package's work."""
    acc = 0.0
    for i in range(40):
        rho = np.outer(_VEC, _VEC.conj())
        acc += float(np.linalg.eigvalsh(rho)[0]) + float(np.max(np.abs(rho - rho.conj().T)))
        x = i
        for _ in range(24):
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        acc += math.sqrt(-2.0 * math.log(((x >> 11) + 1) * 2.0 ** -53)) * math.cos(acc)
        if i % 4 == 0:
            record = json.loads(json.dumps({"dims": [2, 3], "amplitudes": [[acc, 0.5]] * 6}))
            acc += len(",".join(format(v, ".12g") for pair in record["amplitudes"] for v in pair))
    return acc


def kernel_seconds() -> float:
    """Median of three kernel runs: the machine's speed right now."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)
