"""The benchmark's workloads, their correctness gate and the loops that time them.

Each workload is a sequence of calls into the package.  ``invoke`` is the
timed part; ``output`` turns what a call produced into bytes (outside the
timed part) and ``check`` compares those bytes with :mod:`reference`.  A call
that raises, exits non-zero or produces a wrong output counts as failed.

- ``sample-haar23``: ``ent23 sample`` in-process, 250 Haar (2, 3) states per
  call, CSV to a file.  Call 0 uses the benchmark seed itself, later calls
  seeds drawn from it.
- ``verify-suite``: ``verify.run_verification`` at n = 4000.
- ``compute-mixed``: ``ent23 compute`` in-process on a pool of generated state
  files, one client in a closed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import ent23.cli
import ent23.verify
import numpy as np

import calibrate
import reference
from tracer import Tracer

#: Enough states per call that the batch path dominates, few enough that a
#: 30-second run makes a few hundred calls.
SAMPLE_STATES = 250
#: Below 2000 states verify's purity-mean bound is 3.8 sigma, a false failure
#: every ~8000 calls; at 4000 it is 5.4 sigma.
VERIFY_STATES = 4000
#: Six families, 40 states each.
COMPUTE_POOL = 240
#: Calls a timed run makes at least.
MIN_CALLS = 2
#: Call time after which a timed run measures the machine's speed again.
BRACKET_S = 0.05

#: sha256 of ``ent23 sample --n N --seed S`` output recorded at the first
#: benchmarked commit, keyed by ``(N, S)``: the CLI's default seed and one
#: held-out seed.
SAMPLE_DIGESTS = {
    (250, 42): "7a6ad4e4dd7d15db5e8631d2da4f56be40b15cee3d270fcde271253f452bf02f",
    (250, 20061): "e850525425a08d074e563a016eefe21cb1fd84b7415673e1b00ef49ccda41dc0",
}

_CSV_HEADER = "index,c,eof,u_norm,v_norm,k1,k2"
_CSV_FIELDS = ("c", "eof", "u_norm", "v_norm", "k1", "k2")

#: ``compute`` field -> (reference measure, tolerance).  The Bloch and
#: Schmidt routes square the small Schmidt coefficient, so near C = 0 their
#: error grows to sqrt(eps) and they get LOOSE_TOL; c_schmidt = 2 k1 k2 gets
#: twice k2's, because the program flushes k2 <= 5e-8 to zero.
TIGHT_TOL = 1e-9
LOOSE_TOL = 1e-7
COMPUTE_TOLERANCES = {
    "c_amplitude": ("c", TIGHT_TOL),
    "c_bloch": ("c", LOOSE_TOL),
    "c_schmidt": ("c", 2.0 * LOOSE_TOL),
    "eof": ("eof", TIGHT_TOL),
    "vn_entropy_a": ("vn_entropy_a", TIGHT_TOL),
    "u_norm": ("u_norm", TIGHT_TOL),
    "v_norm": ("v_norm", TIGHT_TOL),
    "k1": ("k1", TIGHT_TOL),
    "k2": ("k2", LOOSE_TOL),
}

#: The checks ``verify`` reports at the first benchmarked commit; each must be
#: present and passing.
VERIFY_CHECKS = (
    "concurrence-amplitude-vs-bloch", "concurrence-amplitude-vs-schmidt",
    "concurrence-bloch-vs-schmidt", "concurrence-range", "eof-vs-entropy-a",
    "entropy-a-vs-entropy-b", "schmidt-quadratic", "schmidt-normalization",
    "schmidt-orthonormality", "schmidt-reconstruction", "schmidt-pair-round-trip",
    "codec-round-trip", "reduced-consistency", "purity-relation",
    "product-state-norms", "product-state-concurrence", "local-unitary-invariance",
    "purity-mean",
)


class _CallSeeds:
    """Seed of call ``i``: the benchmark seed first, then draws from it."""

    def __init__(self, seed: int) -> None:
        self._seeds = [seed]
        self._rng = np.random.default_rng(seed)

    def __getitem__(self, index: int) -> int:
        while len(self._seeds) <= index:
            self._seeds.append(int(self._rng.integers(0, 2 ** 63)))
        return self._seeds[index]


class SampleHaar23:
    name = "sample-haar23"
    warmup_calls = 1
    pass_calls = 1

    def __init__(self, seed: int, workdir: Path, states: int = SAMPLE_STATES) -> None:
        self.states_per_call = states
        self.seeds = _CallSeeds(seed)
        self.path = workdir / "sample.csv"
        self.digest_checks = 0

    def invoke(self, index: int):
        return ent23.cli.main(["sample", "--n", str(self.states_per_call),
                               "--seed", str(self.seeds[index]), "--out", str(self.path)])

    def output(self, index: int, code) -> bytes:
        data = self.path.read_bytes() if self.path.exists() else b""
        self.path.unlink(missing_ok=True)
        return b"exit=%d\n" % code + data

    def check(self, index: int, out: bytes) -> bool:
        status, _, data = out.partition(b"\n")
        if status != b"exit=0":
            return False
        seed = self.seeds[index]
        digest = SAMPLE_DIGESTS.get((self.states_per_call, seed))
        if digest:
            self.digest_checks += 1
            if hashlib.sha256(data).hexdigest() != digest:
                return False
        lines = data.decode("utf-8").split("\n")
        if lines[0] != _CSV_HEADER or lines[-1] != "" or len(lines) != self.states_per_call + 2:
            return False
        rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
        if not np.array_equal(rows[:, 0], np.arange(self.states_per_call)):
            return False
        expected = reference.svd_measures(
            reference.haar23_amplitudes(seed, self.states_per_call))
        return all(np.max(np.abs(rows[:, col + 1] - expected[field])) <= TIGHT_TOL
                   for col, field in enumerate(_CSV_FIELDS))


class VerifySuite:
    name = "verify-suite"
    warmup_calls = 1
    pass_calls = 1

    def __init__(self, seed: int, workdir: Path, states: int = VERIFY_STATES) -> None:
        self.states_per_call = states
        self.seeds = _CallSeeds(seed)

    def invoke(self, index: int):
        return ent23.verify.run_verification(n_states=self.states_per_call,
                                             seed=self.seeds[index])

    def output(self, index: int, outcome) -> bytes:
        return json.dumps({
            "checks": [[c.name, repr(c.max_error), repr(c.tolerance), c.passed]
                       for c in outcome.checks],
            "observations": {k: repr(v) for k, v in outcome.observations.items()},
        }).encode()

    def check(self, index: int, out: bytes) -> bool:
        checks = json.loads(out)["checks"]
        names = {name for name, _, _, _ in checks}
        return names.issuperset(VERIFY_CHECKS) and all(passed for *_, passed in checks)


class ComputeMixed:
    name = "compute-mixed"
    states_per_call = 1
    warmup_calls = 20

    def __init__(self, seed: int, workdir: Path, pool: int = COMPUTE_POOL) -> None:
        self.pass_calls = pool
        self.paths = []
        self.expected = []
        for index, (_, amps) in enumerate(reference.mixed_pool(seed, pool)):
            path = workdir / f"state-{index:04d}.json"
            path.write_text(json.dumps({
                "dims": list(amps.shape),
                "amplitudes": [[z.real, z.imag] for z in amps.reshape(-1)],
            }), encoding="utf-8")
            self.paths.append(str(path))
            measures = reference.svd_measures(amps[None])
            self.expected.append({k: float(v[0]) for k, v in measures.items()})

    def invoke(self, index: int):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = ent23.cli.main(["compute", self.paths[index % len(self.paths)]])
        return code, buffer.getvalue()

    def output(self, index: int, raw) -> bytes:
        code, text = raw
        return f"exit={code}\n{text}".encode()

    def check(self, index: int, out: bytes) -> bool:
        status, _, text = out.decode("utf-8").partition("\n")
        if status != "exit=0":
            return False
        fields = dict(line.split() for line in text.splitlines())
        expected = self.expected[index % len(self.expected)]
        return (fields.keys() == COMPUTE_TOLERANCES.keys()
                and all(abs(float(fields[name]) - expected[key]) <= tol
                        for name, (key, tol) in COMPUTE_TOLERANCES.items()))


WORKLOADS = {w.name: w for w in (SampleHaar23, VerifySuite, ComputeMixed)}


class Tally:
    """Operations attempted and failed; ``mutate`` lets tests corrupt outputs."""

    def __init__(self, mutate=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.mutate = mutate

    def attempt(self, workload, index: int, invoke) -> tuple[float, bytes | None]:
        """Run, time and check call ``index``; return its seconds and output."""
        self.attempted += 1
        out = None
        t0 = time.perf_counter()
        try:
            raw = invoke(index)
            seconds = time.perf_counter() - t0
            out = workload.output(index, raw)
            if self.mutate is not None:
                out = self.mutate(index, out)
            ok = workload.check(index, out)
        except Exception:
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
        return seconds, out


def run_untraced(workload, seconds: float, tally: Tally) -> dict:
    """Warm up, then call back to back for ``seconds``; end-to-end figures.

    Kernel runs bracket every batch of calls that adds up to BRACKET_S (one
    call on the batch workloads), and each call time is scaled by the
    reference over the mean of its two brackets (see :mod:`calibrate`); the
    unscaled figures are returned beside them.
    """
    for index in range(workload.warmup_calls):
        tally.attempt(workload, index, workload.invoke)
    raw, scaled, kernel = [], [], []

    def close(batch: list[float], before: float) -> float:
        after = calibrate.kernel_seconds()
        kernel.append(0.5 * (before + after))
        raw.extend(batch)
        scaled.extend(t * calibrate.KERNEL_REFERENCE_S / kernel[-1] for t in batch)
        return after

    index = workload.warmup_calls
    batch: list[float] = []
    before = calibrate.kernel_seconds()
    deadline = time.perf_counter() + seconds
    while len(raw) < MIN_CALLS or time.perf_counter() < deadline:
        batch.append(tally.attempt(workload, index, workload.invoke)[0])
        index += 1
        if sum(batch) >= BRACKET_S:
            before = close(batch, before)
            batch = []
    if batch:
        close(batch, before)
    result = {"calls": len(raw), "kernel_ms_median": statistics.median(kernel) * 1e3}
    for prefix, times in (("", scaled), ("unscaled_", raw)):
        cuts = statistics.quantiles(times, n=100, method="inclusive")
        result[prefix + "states_per_s"] = workload.states_per_call * len(times) / sum(times)
        result[prefix + "latency_p50_ms"] = cuts[49] * 1e3
        result[prefix + "latency_p99_ms"] = cuts[98] * 1e3
    return result


def run_traced(workload, seconds: float, tally: Tally, spans_path: Path | None) -> dict:
    """Alternate untraced and traced passes over the same calls for ``seconds``.

    Every pass repeats calls ``0 .. pass_calls - 1``, so per-state call
    counts are exact and a traced output must equal its untraced twin byte for
    byte.  Kernel runs bracket every pass, and the pass's wall time and self
    times are scaled like ``run_untraced``'s call times; the unscaled figures
    are returned beside them.  The first traced pass's spans are written to
    ``spans_path``.
    """
    tally.attempt(workload, 0, workload.invoke)
    tracer = Tracer()
    calls = range(workload.pass_calls)
    # [unscaled, scaled] seconds of each kind of pass; per name
    # [calls, unscaled self ns, scaled self ns].
    wall = {False: [0.0, 0.0], True: [0.0, 0.0]}
    totals: dict[str, list] = {}
    pairs = 0
    deadline = time.perf_counter() + seconds
    while pairs == 0 or time.perf_counter() < deadline:
        outputs = {}
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            invoke = workload.invoke
            before = calibrate.kernel_seconds()
            if traced:
                tracer.install()
                invoke = tracer.wrap(workload.invoke, "bench.call")
            try:
                runs = [tally.attempt(workload, index, invoke) for index in calls]
            finally:
                tracer.uninstall()
            scale = calibrate.KERNEL_REFERENCE_S / (0.5 * (before + calibrate.kernel_seconds()))
            pass_s = sum(s for s, _ in runs)
            wall[traced][0] += pass_s
            wall[traced][1] += pass_s * scale
            outputs[traced] = [out for _, out in runs]
            if traced:
                if spans_path is not None and pairs == 0:
                    np.savez(spans_path, **tracer.spans())
                for name, (count, self_ns) in tracer.drain().items():
                    total = totals.setdefault(name, [0, 0, 0.0])
                    total[0] += count
                    total[1] += self_ns
                    total[2] += self_ns * scale
        # Each traced/untraced pair is one more checked operation.
        for untraced_out, traced_out in zip(outputs[False], outputs[True]):
            tally.attempted += 1
            if untraced_out is None or untraced_out != traced_out:
                tally.failed += 1
        pairs += 1
    states = workload.states_per_call * len(calls) * pairs
    layers, unscaled = {}, {}
    for name, (count, self_ns, scaled_ns) in totals.items():
        layers[f"{name}.calls_per_state"] = count / states
        layers[f"{name}.self_us_per_state"] = scaled_ns / 1e3 / states
        unscaled[f"{name}.self_us_per_state"] = self_ns / 1e3 / states
    for figures, column in ((unscaled, 0), (layers, 1)):
        figures["trace.overhead_pct"] = (wall[True][column] / wall[False][column] - 1.0) * 100.0
    return {"passes": pairs, "states": states, "layers": layers, "unscaled_layers": unscaled}
