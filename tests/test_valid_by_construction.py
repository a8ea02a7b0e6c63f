"""Values built from a checked state skip re-validation, and lose nothing by it.

``PureState.density()``, the partial traces of its projector and the codec
output ``decompose`` makes from a ``DensityMatrix`` are stored without the
constructor checks, ``decompose`` of such a projector skips its
imaginary-part check, and the Schmidt route's qubit matrix reaches
``hermitian_eigvecs2`` without its input checks and scaling test
(``ent23.bases`` notes, "Valid by construction").  These tests show that
every such value passes the public checks, and that no caller outside the
package can reach the unchecked construction.
"""

import dataclasses

import numpy as np
import pytest

import ent23
import ent23.measures
from ent23 import (
    CoherenceDecomposition,
    ConsistencyError,
    DensityMatrix,
    PureState,
    ValidationError,
    decompose,
    full_report,
    hermitian_eig2,
    hermitian_eig3,
    hermitian_eigvecs2,
    reduced_a,
    reduced_b,
    schmidt_decompose,
)
from ent23.bases import _ENCODE_IMAG, DENSITY_EIGENVALUE_FLOOR, _gather_sum
from ent23.linalg import _checked, _scaled, _Valid
from test_batch import family_stack, same_bits

DIMS = pytest.mark.parametrize("d_b", (2, 3))


def stack(d_b):
    """Haar, product, near-product (k2 = 1e-2 ... 1e-9), rotated Bell and
    two-term states (:func:`family_stack`) as one stacked state."""
    return PureState(np.stack([psi.amplitudes for psi in family_stack(d_b)]))


@DIMS
def test_public_constructors_accept_what_the_skip_stores(d_b):
    for psi in family_stack(d_b) + [stack(d_b)]:
        rho = psi.density()
        for built in (rho, reduced_a(rho), reduced_b(rho)):
            assert same_bits(DensityMatrix(built.matrix).matrix, built.matrix)
        coeffs = decompose(rho)
        checked = CoherenceDecomposition(coeffs.u, coeffs.v, coeffs.beta)
        # The public path from the same matrix gives the same codec bits.
        public = decompose(DensityMatrix(rho.matrix))
        for name in ("u", "v", "beta"):
            assert getattr(coeffs, name).flags.c_contiguous
            assert same_bits(getattr(checked, name), getattr(coeffs, name))
            assert same_bits(getattr(public, name), getattr(coeffs, name))


@DIMS
def test_skipped_checks_pass_with_a_wide_margin(d_b):
    # Rounding is the only error: each check passes by orders of magnitude.
    rho = stack(d_b).density()
    for built in (rho, reduced_a(rho), reduced_b(rho)):
        mat = built.matrix
        assert np.abs(mat - np.conj(mat.swapaxes(-1, -2))).max() < 1e-15
        assert np.abs(mat.trace(axis1=-2, axis2=-1) - 1.0).max() < 1e-14
        assert np.linalg.eigvalsh(mat).min() > DENSITY_EIGENVALUE_FLOOR * 1e-4


@DIMS
def test_decompose_imaginary_parts_stay_far_below_the_skipped_tolerance(d_b):
    # decompose skips its TRACE_IMAG_TOL (1e-10) check on these projectors.
    for psi in family_stack(d_b) + [stack(d_b)]:
        mat = psi.density().matrix
        imag = _gather_sum(mat.reshape(mat.shape[:-2] + (36,)).view(float), _ENCODE_IMAG)
        assert np.abs(imag).max() <= 1e-14


def test_trust_does_not_leak():
    rho = family_stack(3)[0].density()
    assert type(rho) is DensityMatrix
    skew = rho.matrix.copy()
    skew[0, 1] += 1e-3
    with pytest.raises(ValidationError, match="not Hermitian"):
        dataclasses.replace(rho, matrix=skew)
    with pytest.raises(ValidationError, match="trace"):
        dataclasses.replace(rho, matrix=2.0 * rho.matrix)
    coeffs = decompose(rho)
    with pytest.raises(ValidationError, match="NaN or Inf"):
        dataclasses.replace(coeffs, u=np.array([np.nan, 0.0, 0.0]))


def test_partial_trace_of_a_public_matrix_is_checked():
    # Three deviations of 0.9e-10 pass the public check one by one; the
    # qubit partial trace adds them in its (0, 1) entry, and that is caught.
    mat = np.eye(6, dtype=complex) / 6.0
    for j in range(3):
        mat[j, 3 + j] += 0.9e-10
    rho = DensityMatrix(mat)
    with pytest.raises(ValidationError, match="not Hermitian: max deviation 2.7"):
        reduced_a(rho)
    reduced_b(rho)  # the qutrit trace adds no two of them


def test_decompose_of_a_public_matrix_checks_imaginary_parts():
    # Three imaginary deviations of 0.9e-10 pass the public Hermiticity check
    # one by one; the sigma_1 x I trace adds them, and decompose still sees it.
    mat = np.eye(6, dtype=complex) / 6.0
    for j in range(3):
        mat[j, 3 + j] += 0.9e-10j
    with pytest.raises(ConsistencyError, match="imaginary part 2.7"):
        decompose(DensityMatrix(mat))


def test_full_report_constructs_density_matrices_through_init(monkeypatch):
    # perfbench traces DensityMatrix.__init__ as a layer; the skip must still
    # run it, once for the projector and once for the qubit reduced matrix.
    calls = []
    init = DensityMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", counting)
    full_report(family_stack(3)[0])
    assert len(calls) == 2


def schmidt_matrices(psi, monkeypatch):
    """What :func:`schmidt_decompose` of ``psi`` passes to ``hermitian_eigvecs2``."""
    passed = []

    def recording(matrix):
        passed.append(matrix)
        return hermitian_eigvecs2(matrix)

    monkeypatch.setattr(ent23.measures, "hermitian_eigvecs2", recording)
    schmidt_decompose(psi)
    monkeypatch.undo()
    return passed


@DIMS
def test_schmidt_matrix_skips_only_checks_that_pass(d_b, monkeypatch):
    for psi in family_stack(d_b) + [stack(d_b)]:
        (passed,) = schmidt_matrices(psi, monkeypatch)
        assert type(passed) is _Valid
        m = passed.array
        # The public checks accept it and copy it bit for bit ...
        assert same_bits(_checked(m, 2), m)
        # ... it is exactly Hermitian (a deviation of 0, not a few ulps) ...
        assert np.abs(m - np.conj(m.swapaxes(-1, -2))).max() == 0.0
        # ... and, of trace ~1, far from the 2**+-500 scaling limits.
        assert np.abs(m.trace(axis1=-2, axis2=-1) - 1.0).max() < 1e-9
        scaled, shift = _scaled(m)
        assert scaled is m and type(shift) is int and shift == 0
        # So the unchecked call gives the public call's bits.
        for unchecked, public in zip(hermitian_eigvecs2(passed), hermitian_eigvecs2(m)):
            assert same_bits(unchecked, public)


def test_public_entry_points_reach_no_valid(monkeypatch):
    # _Valid is private: the package binds no public name to it.
    assert not [name for name in dir(ent23) if getattr(ent23, name) is _Valid]
    # A matrix passed by a caller is checked, even the Schmidt route's own.
    calls = []

    def counting(matrix, dim):
        calls.append(dim)
        return _checked(matrix, dim)

    psi = stack(3)
    (passed,) = schmidt_matrices(psi, monkeypatch)
    monkeypatch.setattr(ent23.linalg, "_checked", counting)
    for solve, m in ((hermitian_eig2, passed.array), (hermitian_eigvecs2, passed.array),
                     (hermitian_eig2, passed.array[0]), (hermitian_eigvecs2, passed.array[0]),
                     (hermitian_eig3, reduced_b(psi.density()).matrix)):
        solve(m)
    assert calls == [2, 2, 2, 2, 3]
    with pytest.raises(ValidationError, match="not Hermitian"):
        hermitian_eigvecs2(passed.array + np.triu(np.full((2, 2), 1e-3), 1))
