"""Cross-formula verification over random ensembles.

Each named check records the worst error it observes across an ensemble of
uniform random qubit-qutrit states plus canonical families (product states,
rotated maximally entangled states, and the two-term diagonal family).  A
check passes when that maximum stays within its tolerance; the floating-point
checks all share the caller's tolerance, while the one statistical check (the
ensemble purity mean) carries its own Monte-Carlo bound.

Canonical families feed only the checks that are numerically meaningful for
them: the Bloch- and Schmidt-route concurrences and the subsystem entropies
take square roots of quantities that vanish on rank-deficient reduced states,
where rounding noise is amplified to ~1e-8.  Random states never enter that
regime, exact diagonal states evaluate exactly, but generic product states do
sit on it, so they are checked through the robust routes only (amplitude
concurrence, coherence-vector norms, codec round trips).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import decompose, reconstruct, reduced_a, reduced_b, GELL_MANN, PAULI
from .errors import ValidationError
from .measures import (
    PureState,
    concurrence_amplitudes,
    concurrence_bloch,
    concurrence_schmidt,
    eof_from_concurrence,
    schmidt_decompose,
    von_neumann_entropy,
)
from .rng import RandomStream
from .sampling import (
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


class _Worst:
    """Running maxima keyed by check name."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {name: 0.0 for name in CHECK_NAMES}

    def update(self, name: str, error: float) -> None:
        error = float(error)
        if error > self.values[name]:
            self.values[name] = error


def _range_violation(value: float) -> float:
    return max(0.0, -value, value - 1.0)


def _reconstruction_error(psi: PureState, form) -> float:
    rebuilt = form.reconstruct().reshape(-1)
    vec = psi.vector()
    # Distance minimized over a global phase, computed on the difference
    # vector itself (an expansion into squared norms cancels catastrophically).
    overlap = np.vdot(rebuilt, vec)
    if abs(overlap) > 0.0:
        rebuilt = rebuilt * (overlap / abs(overlap))
    return float(np.linalg.norm(vec - rebuilt))


def _examine_state(psi: PureState, worst: _Worst, fragile: bool = True) -> dict:
    """Run every per-state check; ``fragile=False`` skips the sqrt-amplified ones."""
    c_amp = concurrence_amplitudes(psi)
    form = schmidt_decompose(psi)
    rho = psi.density()
    coeffs = decompose(rho)
    rho_a = reduced_a(rho)
    rho_b = reduced_b(rho)
    u_norm = float(np.linalg.norm(coeffs.u))
    v_norm = float(np.linalg.norm(coeffs.v))

    worst.update("concurrence-range", _range_violation(c_amp))
    if fragile:
        c_blo = concurrence_bloch(coeffs)
        c_sch = concurrence_schmidt(form)
        s_a = von_neumann_entropy(rho_a)
        s_b = von_neumann_entropy(rho_b)
        worst.update("concurrence-amplitude-vs-bloch", abs(c_amp - c_blo))
        worst.update("concurrence-amplitude-vs-schmidt", abs(c_amp - c_sch))
        worst.update("concurrence-bloch-vs-schmidt", abs(c_blo - c_sch))
        worst.update("concurrence-range", _range_violation(c_blo))
        worst.update("concurrence-range", _range_violation(c_sch))
        worst.update("eof-vs-entropy-a", abs(eof_from_concurrence(c_amp) - s_a))
        worst.update("entropy-a-vs-entropy-b", abs(s_a - s_b))
        det_a = float(np.linalg.det(rho_a.matrix).real)
        worst.update("schmidt-quadratic", abs(4.0 * det_a - c_amp * c_amp))

    worst.update("schmidt-normalization",
                 abs(form.k1 ** 2 + form.k2 ** 2 - 1.0))
    ortho = max(
        abs(np.vdot(form.x1, form.x2)),
        abs(np.vdot(form.y1, form.y2)),
        abs(np.linalg.norm(form.x1) - 1.0),
        abs(np.linalg.norm(form.x2) - 1.0),
        abs(np.linalg.norm(form.y1) - 1.0),
        abs(np.linalg.norm(form.y2) - 1.0),
    )
    worst.update("schmidt-orthonormality", float(ortho))
    worst.update("schmidt-reconstruction", _reconstruction_error(psi, form))

    rebuilt = reconstruct(coeffs)
    worst.update("codec-round-trip", float(np.max(np.abs(rebuilt - rho.matrix))))

    expect_a = 0.5 * (np.eye(2) + sum(coeffs.u[i] * PAULI[i] for i in range(3)))
    expect_b = (np.eye(3) + math.sqrt(3.0)
                * sum(coeffs.v[j] * GELL_MANN[j] for j in range(8))) / 3.0
    worst.update("reduced-consistency", float(max(
        np.max(np.abs(rho_a.matrix - expect_a)),
        np.max(np.abs(rho_b.matrix - expect_b)),
    )))

    worst.update("purity-relation",
                 abs(v_norm ** 2 - (1.0 + 3.0 * u_norm ** 2) / 4.0))

    purity_a = float(np.einsum("ij,ji->", rho_a.matrix, rho_a.matrix).real)
    return {"u_norm": u_norm, "v_norm": v_norm, "purity_a": purity_a,
            "c_amp": c_amp, "form": form}


def run_verification(n_states: int = 1000, seed: int = 42,
                     tol: float = 1e-10) -> VerifyOutcome:
    """Run every named check; deterministic for a given ``(n_states, seed)``.

    ``tol`` applies to all floating-point checks (the statistical purity-mean
    check keeps its own bound).  Requires ``n_states >= 1`` and ``tol >= 0``.
    """
    if n_states < 1:
        raise ValidationError(f"n_states must be >= 1, got {n_states}")
    if tol < 0.0:
        raise ValidationError(f"tol must be >= 0, got {tol}")

    stream = RandomStream(seed)
    worst = _Worst()
    purity_sum = 0.0
    gap_max = 0.0

    for _ in range(n_states):
        psi = haar_random((2, 3), stream)
        stats = _examine_state(psi, worst, fragile=True)
        purity_sum += stats["purity_a"]
        gap_max = max(gap_max, abs(stats["u_norm"] - stats["v_norm"]))

    # Rotated maximally entangled states cover the C = 1 boundary.
    for _ in range(_N_ROTATED_BELL):
        bell = schmidt_pair_state(1.0 / math.sqrt(2.0))
        rotated = rotate_local(bell, random_unitary(2, stream),
                               random_unitary(3, stream))
        _examine_state(rotated, worst, fragile=True)

    # Diagonal two-term states evaluate exactly at every grid point, but the
    # k1 = 1 endpoint is rank-1, where the cubic solver's entropy loses
    # precision; keep that point out of the fragile comparisons.
    for k1 in _SCHMIDT_GRID:
        psi = schmidt_pair_state(k1)
        stats = _examine_state(psi, worst, fragile=k1 < 1.0)
        k2 = math.sqrt(max(0.0, 1.0 - k1 * k1))
        worst.update("schmidt-pair-round-trip",
                     max(abs(stats["form"].k1 - k1), abs(stats["form"].k2 - k2)))

    # Product states sit exactly on the C = 0 boundary: only their robust
    # observables are compared.
    for _ in range(_N_PRODUCT):
        phi_a = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                          for _ in range(2)])
        phi_b = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                          for _ in range(3)])
        psi = product_state(phi_a / np.linalg.norm(phi_a),
                            phi_b / np.linalg.norm(phi_b))
        stats = _examine_state(psi, worst, fragile=False)
        worst.update("product-state-norms",
                     max(abs(stats["u_norm"] - 1.0), abs(stats["v_norm"] - 1.0)))
        worst.update("product-state-concurrence", stats["c_amp"])

    n_rotations = min(n_states, _MAX_ROTATIONS)
    for _ in range(n_rotations):
        psi = haar_random((2, 3), stream)
        rotated = rotate_local(psi, random_unitary(2, stream),
                               random_unitary(3, stream))
        worst.update("local-unitary-invariance",
                     abs(concurrence_amplitudes(psi)
                         - concurrence_amplitudes(rotated)))

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
            checks.append(CheckResult(name, worst.values[name], tol))
    observations = {
        "purity-mean": purity_mean,
        "max-u-v-norm-gap": gap_max,
    }
    return VerifyOutcome(checks=tuple(checks), observations=observations)
