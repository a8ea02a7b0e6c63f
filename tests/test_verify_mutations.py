"""Every check of the verification suite can fail.

Each case breaks one route, binding or table with a single monkeypatch and
asserts that the check it names reports FAIL on a small ensemble.  Each
perturbation is of relative or absolute size 1e-9 (1e-7 where a
renormalization divides it down), above the default tolerance of 1e-10.
"""

import cmath
import dataclasses

import numpy as np
import pytest

import ent23.measures as measures
import ent23.verify as verify
from ent23 import CoherenceDecomposition, DensityMatrix, PureState
from ent23._exact import unit
from ent23.verify import CHECK_NAMES, run_verification


def shifted(module, name, shift):
    """Patch ``module.name`` to return its value plus ``shift(value)``."""
    real = getattr(module, name)

    def patched(*args):
        value = real(*args)
        return value + shift(value)

    def patch(mp):
        mp.setattr(module, name, patched)
    return patch


def schmidt_scaled(field, factor):
    """Patch the Schmidt route to return ``field`` times ``factor``: a
    coefficient by ``replace`` on the form, a vector where the form builds
    its vectors."""
    if field in ("k1", "k2"):
        real = measures.schmidt_decompose

        def schmidt_decompose(psi):
            form = real(psi)
            return dataclasses.replace(form, **{field: getattr(form, field) * factor})
        return lambda mp: mp.setattr(measures, "schmidt_decompose", schmidt_decompose)
    real = measures._schmidt_vectors
    index = ("x1", "x2", "y1", "y2").index(field)

    def _schmidt_vectors(*args):
        vectors = list(real(*args))
        vectors[index] = vectors[index] * factor
        return tuple(vectors)
    return lambda mp: mp.setattr(measures, "_schmidt_vectors", _schmidt_vectors)


def codec_scaled(field, factor):
    """Patch the codec to return the coefficients ``field`` times ``factor``."""
    real = measures.decompose

    def patch(mp):
        def decompose(rho):
            coeffs = dataclasses.asdict(real(rho))
            coeffs[field] = coeffs[field] * factor
            return CoherenceDecomposition(**coeffs)
        mp.setattr(measures, "decompose", decompose)
    return patch


def report_scaled(field, factor):
    """Patch the report to carry ``field`` times ``factor``; what is computed
    from the unpatched value, as the entanglement of formation is from
    ``c_amplitude``, keeps it."""
    real = measures.EntanglementReport

    def patch(mp):
        def report(**fields):
            fields[field] = fields[field] * factor
            return real(**fields)
        mp.setattr(measures, "EntanglementReport", report)
    return patch


def gell_mann_shifted(mp):
    tables = list(verify.GELL_MANN)
    tables[7] = tables[7] + 1e-9 * np.eye(3)
    mp.setattr(verify, "GELL_MANN", tuple(tables))


def rotation_mixed(mp):
    # Adding a multiple of one qubit row to the other keeps the minors; the
    # renormalization that follows scales the concurrence.
    real = verify.rotate_local

    def rotate_local(psi, u_a, u_b):
        amp = real(psi, u_a, u_b).amplitudes.copy()
        amp[..., 0, :] += 1e-7 * amp[..., 1, :]
        return PureState(unit(amp.reshape(amp.shape[:-2] + (-1,))).reshape(amp.shape))
    mp.setattr(verify, "rotate_local", rotate_local)


def reduced_a_mixed(mp):
    real = measures.reduced_a

    def reduced_a(rho):
        return DensityMatrix(0.5 * (real(rho).matrix + 0.5 * np.eye(2)))
    mp.setattr(measures, "reduced_a", reduced_a)


def amplitudes_off_product(mp):
    real = measures.concurrence_amplitudes

    def concurrence_amplitudes(psi):
        c = real(psi)
        return np.where(c < 1e-6, c + 1e-9, c)[()]
    mp.setattr(measures, "concurrence_amplitudes", concurrence_amplitudes)


MUTATIONS = {
    "concurrence-amplitude-vs-bloch": shifted(measures, "concurrence_bloch", lambda c: 1e-9),
    "concurrence-amplitude-vs-schmidt": shifted(measures, "concurrence_schmidt", lambda c: 1e-9),
    "concurrence-bloch-vs-schmidt": schmidt_scaled("k2", 1.0 + 1e-9),
    # Every real route clamps its concurrence to [0, 1] before this check
    # sees it, so only a patched route that returns C > 1 (here on the
    # maximally entangled states) can trip it.  Checking the values before
    # the clamp stays open in the ROADMAP.  This row breaks the masked
    # (Bloch and Schmidt) part; PART_MUTATIONS breaks the amplitude part.
    "concurrence-range": shifted(measures, "concurrence_schmidt", lambda c: 1e-9 * c),
    "eof-vs-entropy-a": shifted(measures, "eof_from_concurrence", lambda e: 1e-9),
    "entropy-a-vs-entropy-b": shifted(verify, "von_neumann_entropy", lambda s: 1e-9),
    "schmidt-quadratic": shifted(np.linalg, "det", lambda d: 1e-9),
    "schmidt-normalization": schmidt_scaled("k1", 1.0 + 1e-9),
    "schmidt-orthonormality": schmidt_scaled("y2", 1.0 + 1e-9),
    "schmidt-reconstruction": schmidt_scaled("y1", cmath.exp(1e-9j)),
    "schmidt-pair-round-trip": schmidt_scaled("k2", 1.0 + 1e-9),
    "codec-round-trip": shifted(verify, "reconstruct", lambda m: 1e-9),
    "reduced-consistency": gell_mann_shifted,
    "purity-relation": codec_scaled("v", 1.0 + 1e-9),
    "product-state-norms": codec_scaled("u", 1.0 + 1e-9),
    "product-state-concurrence": amplitudes_off_product,
    "local-unitary-invariance": rotation_mixed,
    "purity-mean": reduced_a_mixed,
}


# Further mutations, one per other part of a check: test id -> (check, patch).
PART_MUTATIONS = {
    # The report's amplitude concurrence, C > 1 on the maximally entangled
    # states.  Patching the route itself would not do: eof_from_concurrence
    # rejects its C > 1 + 1e-12 before the check runs.
    "concurrence-range-amplitudes": (
        "concurrence-range", report_scaled("c_amplitude", 1.0 + 1e-9)),
}
CASES = {**{name: (name, patch) for name, patch in MUTATIONS.items()}, **PART_MUTATIONS}


def test_every_check_has_a_mutation():
    assert sorted(MUTATIONS) == sorted(CHECK_NAMES)


def test_unpatched_suite_passes():
    assert run_verification(n_states=60, seed=1).overall


@pytest.mark.parametrize("case", CASES)
def test_mutation_fails_its_check(case, monkeypatch):
    name, patch = CASES[case]
    patch(monkeypatch)
    result = run_verification(n_states=60, seed=1).check(name)
    assert not result.passed, result
