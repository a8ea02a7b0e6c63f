"""Cross-formula verification over random ensembles.

Each named check records the worst error it observes across an ensemble of
uniform random qubit-qutrit states plus canonical families (rotated maximally
entangled states, the two-term diagonal family and product states).  A check
passes when that maximum stays within its tolerance; the floating-point
checks all share the caller's tolerance, while the one statistical check (the
ensemble purity mean) carries its own Monte-Carlo bound.

Every check is one row of the table :data:`_CHECKS`, in report order, and
lives nowhere else: its name, the stack it reads, its per-state error, which
of those errors its mask keeps, and its bound.  :data:`CHECK_NAMES` is read
off the table.  Adding a check is one row there plus one row of
``MUTATIONS`` in ``tests/test_verify_mutations.py``: a single monkeypatch
under which the new check must report FAIL.

Every family is drawn from the seed's stream in a fixed order, and each check
computes an error per state and keeps the largest.  The random ensemble, and
the random states and local unitaries of the rotation pairs, are drawn and
checked in chunks of :data:`ent23.sampling.CHUNK_STATES` states or pairs, so
memory grows with ``n_states`` only by the 8 bytes of each random state's
qubit purity, kept until they are summed.  The three fixed families (5 rotated
maximally entangled states, the 6-point two-term grid and 50 product states)
are checked together as one 61-state stack, with a per-state mask; the
family-only checks read their slices of its report.  Neither the chunk size
nor the grouping of states into stacks changes the outcome, because a stacked
call gives every state the bits of a call on that state alone
(:mod:`ent23._exact`), a block of stream draws the bits of one draw at a time,
and the largest error does not depend on how the states are split.  Each
stack is measured once, by the pipeline of :func:`~ent23.measures.full_report`:
the checks compare the fields that ``ent23 sample`` and ``ent23 compute``
print.

The Bloch- and Schmidt-route concurrences and the subsystem entropies take
square roots of quantities that vanish on rank-deficient reduced states,
where rounding noise is amplified to ~1e-8.  A per-state mask keeps the
states on that boundary -- the product states and the k1 = 1 point of the
two-term family -- out of those comparisons (a row's ``amplified`` errors);
they are checked through the robust routes only (amplitude concurrence,
coherence-vector norms, codec round trips).  Random states never come near
the boundary, and the other two-term states evaluate exactly.

Units and processes.  A run is a list of units, in stream order: each chunk
of random states, the fixed-family stack and each chunk of rotation pairs.
A stream word depends on nothing but its counter (:mod:`ent23.rng`), so each
unit starts at a counter computed from the draws before it -- 24 words
(8 d_b) per random state, 1260 for the families, 76 per rotation pair --
and no unit draws its way to its start.  The units are split by state count
between the calling process and up to one child per further CPU
(``os.sched_getaffinity``, else ``os.cpu_count``); the caller keeps the
first random chunk and the families.  Each child is forked at the call, so
it holds the caller's state, monkeypatches included, and no process
outlives the call.  A child checks its share, sends its largest errors, its
chunks' purities and norm gaps up one pipe, and leaves through
``os._exit``; an exception it raises is raised again in the caller, with its
type and message.  The caller reads each pipe to its end before it reaps
the child, and kills and reaps every child when its own share raises.  It
merges the maxima with ``max``, a NaN sticking as in :func:`_fold`, and adds
the purities left to right in state order, so the outcome has the same bits
on any number of CPUs.  Where ``os.fork`` is missing, or another thread runs
(a forked child would inherit locks held by it), the caller checks every
unit itself.  The children's resources are not the caller's:
``getrusage(RUSAGE_SELF)``, and so the benchmark's ``peak_rss_mb``, leaves
them out, and a tracer installed in the caller records only its own share.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._exact import dot, modulus, norm, square, unit
from .bases import reconstruct, reduced_b, GELL_MANN, PAULI
from .linalg import require_count, require_tolerance
from .measures import PureState, _measure, concurrence_amplitudes, von_neumann_entropy
from .rng import RandomStream
from .sampling import (
    _complex_gaussians,
    _haar_grids,
    _haar_unitaries,
    chunk_sizes,
    haar_random,
    product_state,
    random_unitary,
    rotate_local,
    schmidt_pair_state,
)

#: Statistical tolerance on the mean qubit purity at ensembles of >= 2000
#: states (about 3.8 sigma); scaled up as 1/sqrt(n) below that.
PURITY_MEAN_TOL = 0.01
PURITY_MEAN_REFERENCE_N = 2000

_N_PRODUCT = 50
_N_ROTATED_BELL = 5
_MAX_ROTATIONS = 1000
_SCHMIDT_GRID = (1.0 / math.sqrt(2.0), 0.75, math.sqrt(3.0) / 2.0, 0.9, 0.97, 1.0)
_GRID = np.array(_SCHMIDT_GRID)
# The two-term grid's rows of the fixed-family stack.
_ON_GRID = slice(_N_ROTATED_BELL, -_N_PRODUCT)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named check."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


@dataclass(frozen=True)
class VerifyOutcome:
    """All check results plus informational ensemble observations."""

    checks: tuple[CheckResult, ...]
    observations: dict[str, float] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(self, name: str) -> CheckResult:
        for result in self.checks:
            if result.name == name:
                return result
        raise KeyError(name)


# The stacks a check reads, and the measures its error functions get:
# - _EACH: every measured stack (each random chunk, and the fixed families),
#   as a namespace of the report's fields plus psi, rho, rho_a, rho_b,
#   coeffs, form and the stack's per-state mask ``amplified``;
# - _FAMILIES: the fixed-family stack's report;
# - _ROTATIONS: each chunk of rotation pairs, as a namespace of psi, u_a, u_b;
# - _ENSEMBLE: the mean qubit purity of the whole random ensemble.
_EACH, _FAMILIES, _ROTATIONS, _ENSEMBLE = "each", "families", "rotations", "ensemble"

# One check: its name, the stack it reads, and its per-state errors from that
# stack's measures: ``error`` on every state, ``amplified`` (the masked part)
# only on the states that the stack's mask keeps.  It passes while the
# largest error stays within ``bound(tol, n_states)``.
_Check = namedtuple("_Check", ("name", "stack", "error", "amplified", "bound"),
                    defaults=(lambda m: 0.0, None, lambda tol, n_states: tol))


def _outside_unit(values: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.maximum(-values, values - 1.0))


def _schmidt_orthonormality(m):
    x1, x2, y1, y2 = m.form.x1, m.form.x2, m.form.y1, m.form.y2
    return np.maximum.reduce([modulus(dot(np.conj(x1), x2)), modulus(dot(np.conj(y1), y2)),
                              *(abs(norm(vec) - 1.0) for vec in (x1, x2, y1, y2))])


def _schmidt_reconstruction(m):
    # Distance minimized over a global phase, computed on the difference
    # vector itself (an expansion into squared norms cancels catastrophically).
    rebuilt = m.form.reconstruct().reshape(-1, 6)
    vec = m.psi.vector()
    overlap = dot(np.conj(rebuilt), vec)
    size = modulus(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0.0)
    return norm(vec - rebuilt * phase[:, None])


def _codec_round_trip(m):
    round_trip = reconstruct(m.coeffs)
    round_trip -= m.rho.matrix
    return np.abs(round_trip).max(axis=(1, 2))


def _reduced_consistency(m):
    expect_a = 0.5 * (np.eye(2) + np.einsum("nk,kab->nab", m.coeffs.u, PAULI))
    expect_b = (np.eye(3)
                + math.sqrt(3.0) * np.einsum("nk,kab->nab", m.coeffs.v, GELL_MANN)) / 3.0
    return np.maximum(np.abs(m.rho_a.matrix - expect_a).max(axis=(1, 2)),
                      np.abs(m.rho_b.matrix - expect_b).max(axis=(1, 2)))


_CHECKS = (
    _Check("concurrence-amplitude-vs-bloch", _EACH,
           amplified=lambda m: abs(m.c_amplitude - m.c_bloch)),
    _Check("concurrence-amplitude-vs-schmidt", _EACH,
           amplified=lambda m: abs(m.c_amplitude - m.c_schmidt)),
    _Check("concurrence-bloch-vs-schmidt", _EACH, amplified=lambda m: abs(m.c_bloch - m.c_schmidt)),
    _Check("concurrence-range", _EACH, lambda m: _outside_unit(m.c_amplitude),
           amplified=lambda m: np.maximum(_outside_unit(m.c_bloch), _outside_unit(m.c_schmidt))),
    _Check("eof-vs-entropy-a", _EACH, amplified=lambda m: abs(m.eof - m.vn_entropy_a)),
    _Check("entropy-a-vs-entropy-b", _EACH,
           amplified=lambda m: abs(m.vn_entropy_a - von_neumann_entropy(m.rho_b))),
    _Check("schmidt-quadratic", _EACH, amplified=lambda m: abs(
        4.0 * np.linalg.det(m.rho_a.matrix).real - m.c_amplitude * m.c_amplitude)),
    _Check("schmidt-normalization", _EACH, lambda m: abs(square(m.k1) + square(m.k2) - 1.0)),
    _Check("schmidt-orthonormality", _EACH, _schmidt_orthonormality),
    _Check("schmidt-reconstruction", _EACH, _schmidt_reconstruction),
    _Check("schmidt-pair-round-trip", _FAMILIES, lambda r: np.maximum(
        abs(r.k1[_ON_GRID] - _GRID), abs(r.k2[_ON_GRID] - np.sqrt(1.0 - _GRID * _GRID)))),
    _Check("codec-round-trip", _EACH, _codec_round_trip),
    _Check("reduced-consistency", _EACH, _reduced_consistency),
    _Check("purity-relation", _EACH,
           lambda m: abs(square(m.v_norm) - (1.0 + 3.0 * square(m.u_norm)) / 4.0)),
    _Check("product-state-norms", _FAMILIES, lambda r: np.maximum(
        abs(r.u_norm[-_N_PRODUCT:] - 1.0), abs(r.v_norm[-_N_PRODUCT:] - 1.0))),
    _Check("product-state-concurrence", _FAMILIES, lambda r: r.c_amplitude[-_N_PRODUCT:]),
    _Check("local-unitary-invariance", _ROTATIONS, lambda p: abs(
        concurrence_amplitudes(p.psi) - concurrence_amplitudes(rotate_local(p.psi, p.u_a, p.u_b)))),
    _Check("purity-mean", _ENSEMBLE, lambda mean: abs(mean - (2 + 3) / (2 * 3 + 1)),
           bound=lambda tol, n: PURITY_MEAN_TOL * max(1.0, math.sqrt(PURITY_MEAN_REFERENCE_N / n))),
)

CHECK_NAMES = tuple(check.name for check in _CHECKS)


def _keep(worst: dict[str, float], name: str, largest: float) -> None:
    """Keep the larger of ``worst[name]`` and ``largest``; a NaN sticks, so its
    check fails."""
    worst[name] = largest if math.isnan(largest) else max(worst[name], largest)


def _fold(worst: dict[str, float], stack: str, m) -> None:
    """Fold the largest per-state error of each check that reads ``stack``,
    from its measures ``m``, into ``worst``."""
    for check in _CHECKS:
        if check.stack == stack:
            errors = check.error(m)
            if check.amplified is not None:
                errors = np.maximum(errors, np.where(m.amplified, check.amplified(m), 0.0))
            _keep(worst, check.name, float(np.max(errors)))


def _check_stack(psi: PureState, worst: dict[str, float], amplified):
    """Record every check that applies to any state of the stack ``psi``.

    ``amplified`` (a per-state mask, or one bool for the stack) selects the
    states that also take the sqrt-amplified comparisons.  Returns the
    stack's report and its qubit purities, for the family checks.
    """
    report, rho, rho_a, coeffs, form = _measure(psi)
    _fold(worst, _EACH, SimpleNamespace(
        **report.as_dict(), psi=psi, rho=rho, rho_a=rho_a, rho_b=reduced_b(rho),
        coeffs=coeffs, form=form, amplified=amplified))
    return report, np.einsum("nij,nji->n", rho_a.matrix, rho_a.matrix).real


def _haar_unit(stream: RandomStream, size: int, worst: dict[str, float]):
    """Check a chunk of ``size`` random states; returns their qubit purities
    and their largest gap between the two coherence-vector norms."""
    report, purity_a = _check_stack(haar_random((2, 3), stream, size), worst, True)
    return purity_a, float(np.max(abs(report.u_norm - report.v_norm)))


def _family_unit(stream: RandomStream, size: int, worst: dict[str, float]) -> None:
    """Check the fixed families as one stack of ``size`` (61) states.

    Rotated maximally entangled states cover the C = 1 boundary (the stream
    gives each pair's two unitaries in turn), the diagonal two-term grid
    evaluates exactly, and product states sit exactly on the C = 0 boundary.
    The grid's k1 = 1 endpoint is rank-1, where the cubic solver's entropy
    loses precision, so it and the product states skip the sqrt-amplified
    comparisons.
    """
    pairs = [(random_unitary(2, stream), random_unitary(3, stream))
             for _ in range(_N_ROTATED_BELL)]
    u_a, u_b = (np.stack(unitaries) for unitaries in zip(*pairs))
    factors = _complex_gaussians(stream, 5 * _N_PRODUCT).reshape(_N_PRODUCT, 5)
    psi = PureState(np.concatenate([
        rotate_local(schmidt_pair_state(1.0 / math.sqrt(2.0)), u_a, u_b).amplitudes,
        [schmidt_pair_state(k1).amplitudes for k1 in _SCHMIDT_GRID],
        product_state(unit(factors[:, :2]), unit(factors[:, 2:])).amplitudes]))
    report, _ = _check_stack(psi, worst, np.concatenate(
        ([True] * _N_ROTATED_BELL, _GRID < 1.0, [False] * _N_PRODUCT)))
    _fold(worst, _FAMILIES, report)


def _rotation_unit(stream: RandomStream, size: int, worst: dict[str, float]) -> None:
    """Check a chunk of ``size`` rotation pairs.  The stream gives each pair as
    its state's 6 complex Gaussians, then those of its two unitaries (4 and
    9): one block per chunk."""
    block = _complex_gaussians(stream, 19 * size).reshape(size, 19)
    _fold(worst, _ROTATIONS, SimpleNamespace(
        psi=PureState(_haar_grids(block[:, :6])),
        u_a=_haar_unitaries(block[:, 6:10].reshape(size, 2, 2)),
        u_b=_haar_unitaries(block[:, 10:].reshape(size, 3, 3))))


# Stream words a unit draws: each complex Gaussian is two draws of two words.
# A (2, 3) Haar state takes 6 complex Gaussians (8 d_b words), a rotation pair
# 19, and the families 4 + 9 per rotated pair's unitaries and 5 per product.
_HAAR_WORDS = 4 * 6
_ROTATION_WORDS = 4 * 19
_FAMILY_WORDS = 4 * (13 * _N_ROTATED_BELL + 5 * _N_PRODUCT)
_N_FAMILIES = _N_ROTATED_BELL + len(_SCHMIDT_GRID) + _N_PRODUCT

# One unit of work: the function that checks it, its states, and the stream
# counter its first draw follows.
_Unit = namedtuple("_Unit", ("check", "size", "counter"))


def _units(n_states: int) -> list[_Unit]:
    """The units of a run in stream order: the Haar chunks, the families and
    the rotation chunks, each starting where the one before it ends."""
    plan = [(_haar_unit, size, _HAAR_WORDS * size) for size in chunk_sizes(n_states)]
    plan.append((_family_unit, _N_FAMILIES, _FAMILY_WORDS))
    plan += [(_rotation_unit, size, _ROTATION_WORDS * size)
             for size in chunk_sizes(min(n_states, _MAX_ROTATIONS))]
    starts = itertools.accumulate((words for _, _, words in plan), initial=0)
    return [_Unit(check, size, start) for (check, size, _), start in zip(plan, starts)]


def _shares(units: list[_Unit], processes: int) -> list[list[tuple[int, _Unit]]]:
    """``units``, as ``(index, unit)`` pairs, split into at most ``processes``
    shares by state count.  Share 0, the calling process's, keeps Haar chunk
    0 and the families, so that every layer runs in the calling process;
    every other unit goes, in stream order, to the share with the fewest
    states so far."""
    keep = {0, [unit.check for unit in units].index(_family_unit)}
    shares = [[] for _ in range(processes)]
    loads = [0] * processes
    for index in sorted(range(len(units)), key=lambda index: index not in keep):
        share = 0 if index in keep else loads.index(min(loads))
        shares[share].append((index, units[index]))
        loads[share] += units[index].size
    return [share for share in shares if share]


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _processes() -> int:
    """Processes to check a run in: one per CPU, or only this one where
    ``os.fork`` is missing or another thread runs, which makes forking unsafe."""
    return _cpu_count() if hasattr(os, "fork") and threading.active_count() == 1 else 1


def _check_units(share: list[tuple[int, _Unit]], seed: int):
    """Check each ``(index, unit)`` of ``share``: the largest error of each
    check, and what each Haar chunk returns, by unit index."""
    worst = dict.fromkeys(CHECK_NAMES, 0.0)
    chunks = {}
    for index, unit in share:
        found = unit.check(RandomStream(seed, unit.counter), unit.size, worst)
        if found is not None:
            chunks[index] = found
    return worst, chunks


def _child(write: int, share, seed: int) -> None:
    """Check ``share`` in a forked child and send its results, or the exception
    it raised, up the pipe ``write``.  The child leaves through ``os._exit``
    alone, so that no inherited stdio buffer or exit handler runs twice."""
    try:
        try:
            result = True, _check_units(share, seed)
        except BaseException as exc:  # re-raised in the parent
            result = False, exc
        try:
            data = pickle.dumps(result)
        except Exception:  # an exception that does not pickle: its type and message
            data = pickle.dumps((False, RuntimeError(f"{type(result[1]).__name__}: {result[1]}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _check_shares(shares: list[list[tuple[int, _Unit]]], seed: int) -> list:
    """Each share's results, in share order: the first share is checked here,
    every other one in a child forked for it, which sends them back over a
    pipe.  Every child is reaped before this returns or raises."""
    children = []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(write, share, seed)
            os.close(write)
            children.append((pid, open(read, "rb")))
        parts = [_check_units(shares[0], seed)]
        while children:
            pid, pipe = children[0]
            # Read to EOF first: a child blocks while its pipe is full.
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                raise RuntimeError(f"verify child {pid} sent no result (wait status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            parts.append(value)
        return parts
    finally:
        if children:  # the parent's share, or a child's, raised
            import signal
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_verification(n_states: int = 1000, seed: int = 42,
                     tol: float = 1e-10) -> VerifyOutcome:
    """Run every named check; deterministic for a given ``(n_states, seed)``.

    ``tol``, a finite ``numbers.Real`` >= 0 (not a bool), applies to all
    floating-point checks (the statistical purity-mean check keeps its own
    bound).  Requires ``n_states >= 1``.  The outcome does not depend on the
    number of processes it is checked in.
    """
    n_states = require_count(n_states, "n_states")
    require_tolerance(tol)
    seed = RandomStream(seed).seed

    worst, chunks = dict.fromkeys(CHECK_NAMES, 0.0), {}
    for part_worst, part_chunks in _check_shares(_shares(_units(n_states), _processes()), seed):
        for name, largest in part_worst.items():
            _keep(worst, name, largest)
        chunks.update(part_chunks)
    purity_sum, gap_max = 0.0, 0.0
    for index in sorted(chunks):
        purity_a, gap = chunks[index]
        # Summed left to right in state order, as one state at a time: np.sum
        # adds pairwise and Python's sum() compensates (3.12+), both changing
        # the last bits.
        for purity in purity_a.tolist():
            purity_sum += purity
        gap_max = max(gap_max, gap)

    purity_mean = purity_sum / n_states
    _fold(worst, _ENSEMBLE, purity_mean)
    checks = tuple(CheckResult(check.name, worst[check.name], check.bound(tol, n_states))
                   for check in _CHECKS)
    # The value each ensemble check measured, under its name, then the
    # largest gap between the two coherence-vector norms.
    observations = {check.name: purity_mean for check in _CHECKS if check.stack == _ENSEMBLE}
    observations["max-u-v-norm-gap"] = gap_max
    return VerifyOutcome(checks=checks, observations=observations)
