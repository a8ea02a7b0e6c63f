"""Cross-formula verification over random ensembles.

Each named check records the worst error it observes across an ensemble of
uniform random qubit-qutrit states plus canonical families (rotated maximally
entangled states, the two-term diagonal family and product states).  A check
passes when that maximum stays within its tolerance; the floating-point
checks all share the caller's tolerance, while the one statistical check (the
ensemble purity mean) carries its own Monte-Carlo bound.

Every family is drawn from the seed's stream in a fixed order and checked as
one stack: each check computes an error per state and keeps the largest.  The
random ensemble, and the random states and local unitaries of the rotation
pairs, are drawn and checked in chunks of :data:`ent23.sampling.CHUNK_STATES`
states or pairs, so memory does not grow with ``n_states``.  The chunk size
never changes the outcome, because a stacked call gives every state the bits
of a call on that state alone (:mod:`ent23._exact`), and a block of stream
draws the bits of one draw at a time.  Each stack is measured once, by the
pipeline of :func:`~ent23.measures.full_report`: the checks compare the
fields that ``ent23 sample`` and ``ent23 compute`` print.

The Bloch- and Schmidt-route concurrences and the subsystem entropies take
square roots of quantities that vanish on rank-deficient reduced states,
where rounding noise is amplified to ~1e-8.  A per-state mask keeps the
states on that boundary -- the product states and the k1 = 1 point of the
two-term family -- out of those comparisons; they are checked through the
robust routes only (amplitude concurrence, coherence-vector norms, codec
round trips).  Random states never come near the boundary, and the other
two-term states evaluate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._exact import dot, modulus, norm, square, unit
from .bases import reconstruct, reduced_b, GELL_MANN, PAULI
from .errors import ValidationError
from .linalg import require_count
from .measures import PureState, _measure, concurrence_amplitudes, von_neumann_entropy
from .rng import RandomStream
from .sampling import (
    _complex_gaussians,
    _haar_grids,
    _haar_unitaries,
    chunk_sizes,
    haar_chunks,
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

CHECK_NAMES = (
    "concurrence-amplitude-vs-bloch",
    "concurrence-amplitude-vs-schmidt",
    "concurrence-bloch-vs-schmidt",
    "concurrence-range",
    "eof-vs-entropy-a",
    "entropy-a-vs-entropy-b",
    "schmidt-quadratic",
    "schmidt-normalization",
    "schmidt-orthonormality",
    "schmidt-reconstruction",
    "schmidt-pair-round-trip",
    "codec-round-trip",
    "reduced-consistency",
    "purity-relation",
    "product-state-norms",
    "product-state-concurrence",
    "local-unitary-invariance",
    "purity-mean",
)


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


def _record(worst: dict[str, float], name: str, errors) -> None:
    """Fold the largest of a stack's per-state ``errors`` into ``worst[name]``;
    a NaN error sticks, so its check fails."""
    largest = float(np.max(errors))
    worst[name] = largest if math.isnan(largest) else max(worst[name], largest)


def _outside_unit(values: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.maximum(-values, values - 1.0))


def _check_stack(psi: PureState, worst: dict[str, float], amplified):
    """Record every check that applies to any state of the stack ``psi``.

    ``amplified`` (a per-state mask, or one bool for the stack) selects the
    states that also take the sqrt-amplified comparisons.  Returns the
    stack's report and its qubit purities, for the family checks.
    """
    report, rho, rho_a, coeffs, form = _measure(psi)
    c_amp, c_blo, c_sch = report.c_amplitude, report.c_bloch, report.c_schmidt
    s_a = report.vn_entropy_a
    rho_b = reduced_b(rho)
    det_a = np.linalg.det(rho_a.matrix).real
    for name, errors in (
        ("concurrence-amplitude-vs-bloch", abs(c_amp - c_blo)),
        ("concurrence-amplitude-vs-schmidt", abs(c_amp - c_sch)),
        ("concurrence-bloch-vs-schmidt", abs(c_blo - c_sch)),
        ("concurrence-range", np.maximum(_outside_unit(c_blo), _outside_unit(c_sch))),
        ("eof-vs-entropy-a", abs(report.eof - s_a)),
        ("entropy-a-vs-entropy-b", abs(s_a - von_neumann_entropy(rho_b))),
        ("schmidt-quadratic", abs(4.0 * det_a - c_amp * c_amp)),
    ):
        _record(worst, name, np.where(amplified, errors, 0.0))

    _record(worst, "concurrence-range", _outside_unit(c_amp))
    _record(worst, "schmidt-normalization", abs(square(form.k1) + square(form.k2) - 1.0))
    _record(worst, "schmidt-orthonormality", np.maximum.reduce([
        modulus(dot(np.conj(form.x1), form.x2)),
        modulus(dot(np.conj(form.y1), form.y2)),
        *(abs(norm(vec) - 1.0) for vec in (form.x1, form.x2, form.y1, form.y2)),
    ]))

    # Distance minimized over a global phase, computed on the difference
    # vector itself (an expansion into squared norms cancels catastrophically).
    rebuilt = form.reconstruct().reshape(-1, 6)
    vec = psi.vector()
    overlap = dot(np.conj(rebuilt), vec)
    size = modulus(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0.0)
    _record(worst, "schmidt-reconstruction", norm(vec - rebuilt * phase[:, None]))

    _record(worst, "codec-round-trip",
            np.abs(reconstruct(coeffs) - rho.matrix).max(axis=(1, 2)))
    expect_a = 0.5 * (np.eye(2) + np.einsum("nk,kab->nab", coeffs.u, PAULI))
    expect_b = (np.eye(3)
                + math.sqrt(3.0) * np.einsum("nk,kab->nab", coeffs.v, GELL_MANN)) / 3.0
    _record(worst, "reduced-consistency", np.maximum(
        np.abs(rho_a.matrix - expect_a).max(axis=(1, 2)),
        np.abs(rho_b.matrix - expect_b).max(axis=(1, 2))))
    _record(worst, "purity-relation",
            abs(square(report.v_norm) - (1.0 + 3.0 * square(report.u_norm)) / 4.0))

    return report, np.einsum("nij,nji->n", rho_a.matrix, rho_a.matrix).real


def run_verification(n_states: int = 1000, seed: int = 42,
                     tol: float = 1e-10) -> VerifyOutcome:
    """Run every named check; deterministic for a given ``(n_states, seed)``.

    ``tol``, finite and >= 0, applies to all floating-point checks (the
    statistical purity-mean check keeps its own bound).  Requires ``n_states >= 1``.
    """
    n_states = require_count(n_states, "n_states")
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tol must be finite and >= 0, got {tol}")

    stream = RandomStream(seed)
    worst = dict.fromkeys(CHECK_NAMES, 0.0)
    purity_sum = 0.0
    gap_max = 0.0

    for psi in haar_chunks((2, 3), stream, n_states):
        report, purity_a = _check_stack(psi, worst, True)
        # Summed left to right, as one state at a time: np.sum adds pairwise
        # and Python's sum() compensates (3.12+), both changing the last bits.
        for purity in purity_a.tolist():
            purity_sum += purity
        gap_max = max(gap_max, float(np.max(abs(report.u_norm - report.v_norm))))

    # Rotated maximally entangled states cover the C = 1 boundary.  The
    # stream gives each pair's two unitaries in turn.
    bell = schmidt_pair_state(1.0 / math.sqrt(2.0))
    pairs = [(random_unitary(2, stream), random_unitary(3, stream))
             for _ in range(_N_ROTATED_BELL)]
    u_a, u_b = (np.stack(unitaries) for unitaries in zip(*pairs))
    _check_stack(rotate_local(bell, u_a, u_b), worst, True)

    # Diagonal two-term states evaluate exactly at every grid point, but the
    # k1 = 1 endpoint is rank-1, where the cubic solver's entropy loses
    # precision; keep that point out of the sqrt-amplified comparisons.
    grid = np.array(_SCHMIDT_GRID)
    report, _ = _check_stack(
        PureState(np.stack([schmidt_pair_state(k1).amplitudes for k1 in _SCHMIDT_GRID])),
        worst, grid < 1.0)
    k2 = np.sqrt(np.maximum(0.0, 1.0 - grid * grid))
    _record(worst, "schmidt-pair-round-trip",
            np.maximum(abs(report.k1 - grid), abs(report.k2 - k2)))

    # Product states sit exactly on the C = 0 boundary: only their robust
    # observables are compared.
    factors = _complex_gaussians(stream, 5 * _N_PRODUCT).reshape(_N_PRODUCT, 5)
    phi_a, phi_b = factors[:, :2], factors[:, 2:]
    report, _ = _check_stack(product_state(unit(phi_a), unit(phi_b)), worst, False)
    _record(worst, "product-state-norms",
            np.maximum(abs(report.u_norm - 1.0), abs(report.v_norm - 1.0)))
    _record(worst, "product-state-concurrence", report.c_amplitude)

    # The stream gives each pair as its state's 6 complex Gaussians, then
    # those of its two unitaries (4 and 9): one block per chunk of pairs.
    for size in chunk_sizes(min(n_states, _MAX_ROTATIONS)):
        block = _complex_gaussians(stream, 19 * size).reshape(size, 19)
        psi = PureState(_haar_grids(block[:, :6]))
        u_a = _haar_unitaries(block[:, 6:10].reshape(size, 2, 2))
        u_b = _haar_unitaries(block[:, 10:].reshape(size, 3, 3))
        _record(worst, "local-unitary-invariance",
                abs(concurrence_amplitudes(psi)
                    - concurrence_amplitudes(rotate_local(psi, u_a, u_b))))

    purity_mean = purity_sum / n_states
    purity_target = (2 + 3) / (2 * 3 + 1)
    purity_tol = PURITY_MEAN_TOL * max(
        1.0, math.sqrt(PURITY_MEAN_REFERENCE_N / n_states))

    checks = []
    for name in CHECK_NAMES:
        if name == "purity-mean":
            checks.append(CheckResult(name, abs(purity_mean - purity_target),
                                      purity_tol))
        else:
            checks.append(CheckResult(name, worst[name], tol))
    observations = {
        "purity-mean": purity_mean,
        "max-u-v-norm-gap": gap_max,
    }
    return VerifyOutcome(checks=tuple(checks), observations=observations)
