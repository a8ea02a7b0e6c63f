import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ent23.measures
import ent23.verify
from ent23 import (
    CheckResult,
    DensityMatrix,
    PureState,
    RandomStream,
    SchmidtForm,
    ValidationError,
    VerifyOutcome,
    binary_entropy,
    concurrence_amplitudes,
    concurrence_bloch,
    concurrence_schmidt,
    eof_from_concurrence,
    full_report,
    haar_random,
    random_unitary,
    reduced_a,
    reduced_b,
    rotate_local,
    schmidt_decompose,
    von_neumann_entropy,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)

KET_00 = PureState(np.array([[1, 0, 0], [0, 0, 0]], dtype=complex))
BELL = PureState(np.array([[INV_SQRT2, 0, 0], [0, INV_SQRT2, 0]], dtype=complex))
TRIPLE = PureState(np.array([[INV_SQRT3, 0, 0], [0, INV_SQRT3, INV_SQRT3]]))

# high-precision references: 2*sqrt(2)/3 and h(2/3)
C_TRIPLE = 0.9428090415820634
E_TRIPLE = 0.9182958340544896


def phase_aligned_error(psi, form):
    rebuilt = form.reconstruct().reshape(-1)
    vec = psi.vector()
    overlap = np.vdot(rebuilt, vec)
    if abs(overlap) > 0.0:
        rebuilt = rebuilt * (overlap / abs(overlap))
    return float(np.linalg.norm(vec - rebuilt))


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValidationError):
        PureState(np.array([[1, 0, 0], [0, 1, 0]], dtype=complex))


def test_pure_state_rejects_bad_shape():
    with pytest.raises(ValidationError):
        PureState(np.ones((3, 3)) / 3)
    # A 1-D vector, an empty stack and a stack of stacks; the message names the shape.
    for shape in ((6,), (0, 2, 3), (2, 2, 2, 3)):
        with pytest.raises(ValidationError, match=re.escape(str(shape))):
            PureState(np.full(shape, 1.0 / math.sqrt(6.0)))


def test_pure_state_rejects_overflowing_norm():
    # 1e200 squares past the float range; the norm check rejects the inf
    # without NumPy's overflow RuntimeWarning (an error under the test config).
    amp = np.zeros((2, 3), dtype=complex)
    amp[0, 0] = 1e200
    with pytest.raises(ValidationError,
                       match=re.escape("state is not normalized: sum of |a|^2 is inf")):
        PureState(amp)


def test_pure_state_rejects_nan():
    amp = np.zeros((2, 3), dtype=complex)
    amp[0, 0] = complex(np.nan, 0)
    with pytest.raises(ValidationError):
        PureState(amp)


def test_concurrence_amplitudes_examples():
    assert concurrence_amplitudes(KET_00) == 0.0
    assert abs(concurrence_amplitudes(BELL) - 1.0) < 1e-15
    assert abs(concurrence_amplitudes(TRIPLE) - C_TRIPLE) < 1e-15


def test_concurrence_amplitudes_matches_svd_oracle():
    stream = RandomStream(21)
    for _ in range(200):
        psi = haar_random((2, 3), stream)
        s = np.linalg.svd(psi.amplitudes, compute_uv=False)
        assert abs(concurrence_amplitudes(psi) - 2.0 * s[0] * s[1]) < 1e-12


def test_concurrence_bloch_examples():
    assert concurrence_bloch(KET_00) == 0.0
    assert abs(concurrence_bloch(BELL) - 1.0) < 1e-15
    # reduced qubit state diag(1/3, 2/3) gives |u| = 1/3, C = sqrt(8)/3
    assert abs(concurrence_bloch(TRIPLE) - C_TRIPLE) < 1e-15


def test_concurrence_two_qubit_form():
    bell22 = PureState(np.array([[INV_SQRT2, 0], [0, INV_SQRT2]]))
    assert abs(concurrence_amplitudes(bell22) - 1.0) < 1e-15
    assert abs(concurrence_bloch(bell22) - 1.0) < 1e-15
    product22 = PureState(np.array([[1, 0], [0, 0]], dtype=complex))
    assert concurrence_amplitudes(product22) == 0.0


def padded(psi):
    """``psi`` (or a stack) with a zero column appended to each amplitude grid."""
    return PureState(np.pad(psi.amplitudes, [(0, 0)] * (psi.amplitudes.ndim - 1) + [(0, 1)]))


def report_bits(psi):
    report = full_report(psi).as_dict()
    return {name: np.asarray(value).tobytes() for name, value in report.items()}


def test_embedding_preserves_amplitude_concurrence():
    # A qubit-qubit state and its grid zero-padded to (2, 3) are the same
    # state: every measure of the one has the bits of the other.
    stream = RandomStream(22)
    for _ in range(100):
        psi = haar_random((2, 2), stream)
        assert abs(concurrence_amplitudes(psi)
                   - concurrence_amplitudes(padded(psi))) < 1e-12
        assert report_bits(psi) == report_bits(padded(psi))
    stack = haar_random((2, 2), stream, n=100)
    assert report_bits(stack) == report_bits(padded(stack))


def test_qubit_qubit_density_is_the_zero_padded_projector():
    # d_b = 2 is the qubit-qutrit formula with a zero qutrit column: one
    # state and a stack give the 6x6 projector of the padded grid, bit for bit.
    stream = RandomStream(23)
    for psi in (haar_random((2, 2), stream), haar_random((2, 2), stream, n=3)):
        rho = psi.density()
        assert isinstance(rho, DensityMatrix) and rho.dim == 6
        assert rho.matrix.shape == psi.amplitudes.shape[:-2] + (6, 6)
        assert rho.matrix.tobytes() == padded(psi).density().matrix.tobytes()


def test_schmidt_decompose_product_state():
    form = schmidt_decompose(KET_00)
    assert form.k1 == 1.0
    assert form.k2 == 0.0
    assert np.allclose(form.x1, [1, 0], atol=1e-15)
    assert np.allclose(form.y1, [1, 0, 0], atol=1e-15)
    # completed basis stays orthonormal
    assert abs(np.vdot(form.y1, form.y2)) < 1e-15
    assert abs(np.linalg.norm(form.y2) - 1.0) < 1e-15


def test_schmidt_decompose_bell_uses_standard_basis():
    form = schmidt_decompose(BELL)
    assert abs(form.k1 - INV_SQRT2) < 1e-12
    assert abs(form.k2 - INV_SQRT2) < 1e-12
    assert np.array_equal(form.x1, np.array([1, 0], dtype=complex))
    assert np.array_equal(form.x2, np.array([0, 1], dtype=complex))


def test_schmidt_decompose_triple():
    form = schmidt_decompose(TRIPLE)
    assert abs(form.k1 - math.sqrt(2 / 3)) < 1e-15
    assert abs(form.k2 - math.sqrt(1 / 3)) < 1e-15
    assert np.allclose(form.x1, [0, 1], atol=1e-15)
    assert np.allclose(form.y1, [0, INV_SQRT2, INV_SQRT2], atol=1e-15)
    assert np.allclose(form.x2, [1, 0], atol=1e-15)
    assert np.allclose(form.y2, [1, 0, 0], atol=1e-15)


def test_schmidt_vectors_are_built_once_on_first_read(monkeypatch):
    # full_report reads only k1 and k2, so it never builds the vectors; a
    # form builds all four on its first vector read, with the bits of a
    # direct build.
    builds = []
    build = ent23.measures._schmidt_vectors

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(ent23.measures, "_schmidt_vectors", counting)
    full_report(TRIPLE)
    form = schmidt_decompose(TRIPLE)
    assert repr(form) == f"SchmidtForm(k1={form.k1!r}, k2={form.k2!r})"
    assert builds == []
    y2 = form.y2
    assert len(builds) == 1
    assert form.y2 is y2 and form.x1 is form.x1
    direct = build(*builds[0])
    for name, vec in zip(("x1", "x2", "y1", "y2"), direct):
        assert not getattr(form, name).flags.writeable
        assert getattr(form, name).tobytes() == vec.tobytes()
    assert len(builds) == 1
    with pytest.raises(AttributeError, match="'x3'"):
        form.x3


def test_schmidt_invariants_on_random_states():
    stream = RandomStream(23)
    for _ in range(200):
        psi = haar_random((2, 3), stream)
        form = schmidt_decompose(psi)
        assert form.k1 >= form.k2 >= 0.0
        assert abs(form.k1 ** 2 + form.k2 ** 2 - 1.0) < 1e-10
        assert abs(np.vdot(form.x1, form.x2)) < 1e-10
        assert abs(np.vdot(form.y1, form.y2)) < 1e-10
        assert phase_aligned_error(psi, form) < 1e-10
        # leading qubit-side components are real positive by convention
        for vec in (form.x1, form.x2):
            lead = next(c for c in vec if abs(c) > 1e-12)
            assert abs(lead.imag) < 1e-15 and lead.real > 0.0


def test_package_root_exports_the_result_classes():
    # No other test imports these from the package root, which has no __all__.
    assert SchmidtForm is ent23.measures.SchmidtForm
    assert CheckResult is ent23.verify.CheckResult
    assert VerifyOutcome is ent23.verify.VerifyOutcome


def test_schmidt_coefficients_match_svd_oracle():
    stream = RandomStream(24)
    for _ in range(100):
        psi = haar_random((2, 3), stream)
        form = schmidt_decompose(psi)
        s = np.linalg.svd(psi.amplitudes, compute_uv=False)
        assert abs(form.k1 - s[0]) < 1e-12
        assert abs(form.k2 - s[1]) < 1e-12


def test_concurrence_schmidt_values():
    form = schmidt_decompose(KET_00)
    assert concurrence_schmidt(form) == 0.0
    assert abs(concurrence_schmidt(schmidt_decompose(BELL)) - 1.0) < 1e-12
    assert abs(concurrence_schmidt(schmidt_decompose(TRIPLE)) - C_TRIPLE) < 1e-12


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # direct evaluation of -(2/3)log2(2/3) - (1/3)log2(1/3)
    assert abs(binary_entropy(2 / 3) - E_TRIPLE) < 1e-15


def test_binary_entropy_clamps_boundary_noise():
    assert binary_entropy(-1e-13) == 0.0
    assert binary_entropy(1.0 + 1e-13) == 0.0


def test_binary_entropy_domain_error():
    with pytest.raises(ValidationError):
        binary_entropy(1.001)
    with pytest.raises(ValidationError):
        binary_entropy(-0.001)
    with pytest.raises(ValidationError):
        binary_entropy(math.nan)
    with pytest.raises(ValidationError):
        binary_entropy(np.array([0.5, math.nan]))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetric_and_bounded(x):
    h = binary_entropy(x)
    assert 0.0 <= h <= 1.0
    assert abs(h - binary_entropy(1.0 - x)) < 1e-12


def test_eof_endpoints_and_golden():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0
    # sqrt(1 - 8/9) = 1/3, argument (1 + 1/3)/2 = 2/3
    assert abs(eof_from_concurrence(C_TRIPLE) - E_TRIPLE) < 1e-12


def test_eof_strictly_increasing():
    grid = np.linspace(0.0, 1.0, 1000)
    values = [eof_from_concurrence(c) for c in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_eof_domain_error():
    with pytest.raises(ValidationError):
        eof_from_concurrence(1.1)
    with pytest.raises(ValidationError):
        eof_from_concurrence(math.nan)
    with pytest.raises(ValidationError):
        eof_from_concurrence(np.array([0.5, math.nan]))


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]))) == 0.0
    assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == 1.0
    assert abs(von_neumann_entropy(DensityMatrix(np.diag([2 / 3, 1 / 3])))
               - E_TRIPLE) < 1e-15
    assert abs(von_neumann_entropy(DensityMatrix(np.eye(3) / 3))
               - math.log2(3.0)) < 1e-15


def test_von_neumann_entropy_matches_numpy_oracle():
    rng = np.random.default_rng(25)
    for _ in range(50):
        probs = rng.dirichlet([1.0, 1.0, 1.0])
        basis = np.linalg.qr(rng.normal(size=(3, 3))
                             + 1j * rng.normal(size=(3, 3)))[0]
        rho = DensityMatrix(basis @ np.diag(probs) @ basis.conj().T)
        expected = -sum(p * math.log2(p) for p in probs if p > 0)
        assert abs(von_neumann_entropy(rho) - expected) < 1e-10


def test_von_neumann_entropy_rejects_dim6():
    with pytest.raises(ValidationError):
        von_neumann_entropy(DensityMatrix(np.eye(6) / 6))


def test_von_neumann_entropy_tolerates_density_level_hermiticity():
    # skew within the density-matrix tolerance but beyond the eigensolvers'
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 5e-11
    assert abs(von_neumann_entropy(DensityMatrix(m)) - 1.0) < 1e-9


def test_three_concurrence_routes_agree():
    stream = RandomStream(26)
    for dims in ((2, 3), (2, 2)):
        for _ in range(150):
            psi = haar_random(dims, stream)
            c_amp = concurrence_amplitudes(psi)
            c_blo = concurrence_bloch(psi)
            c_sch = concurrence_schmidt(schmidt_decompose(psi))
            assert abs(c_amp - c_blo) < 1e-10
            assert abs(c_amp - c_sch) < 1e-10


def test_eof_equals_subsystem_entropies():
    stream = RandomStream(27)
    for _ in range(150):
        psi = haar_random((2, 3), stream)
        rho = psi.density()
        eof = eof_from_concurrence(concurrence_amplitudes(psi))
        s_a = von_neumann_entropy(reduced_a(rho))
        s_b = von_neumann_entropy(reduced_b(rho))
        assert abs(eof - s_a) < 1e-10
        assert abs(s_a - s_b) < 1e-10


def test_quadratic_invariant():
    # det(rho_A) = (C/2)^2, i.e. the coefficients solve x^2 - x + C^2/4 = 0
    stream = RandomStream(28)
    for _ in range(150):
        psi = haar_random((2, 3), stream)
        det_a = np.linalg.det(reduced_a(psi.density()).matrix).real
        c = concurrence_amplitudes(psi)
        assert abs(4.0 * det_a - c * c) < 1e-10


def test_local_unitary_invariance():
    stream = RandomStream(29)
    for _ in range(100):
        psi = haar_random((2, 3), stream)
        rotated = rotate_local(psi, random_unitary(2, stream),
                               random_unitary(3, stream))
        assert abs(concurrence_amplitudes(psi)
                   - concurrence_amplitudes(rotated)) < 1e-10


def test_full_report_ket00():
    rep = full_report(KET_00)
    assert rep.c_amplitude == rep.c_bloch == rep.c_schmidt == 0.0
    assert rep.eof == 0.0
    assert rep.vn_entropy_a == 0.0
    assert abs(rep.u_norm - 1.0) < 1e-15
    assert abs(rep.v_norm - 1.0) < 1e-15
    assert rep.k1 == 1.0
    assert rep.k2 == 0.0


def test_full_report_bell():
    rep = full_report(BELL)
    for c in (rep.c_amplitude, rep.c_bloch, rep.c_schmidt):
        assert abs(c - 1.0) < 1e-12
    assert abs(rep.eof - 1.0) < 1e-12
    assert abs(rep.vn_entropy_a - 1.0) < 1e-12
    assert rep.u_norm < 1e-12
    assert abs(rep.v_norm - 0.5) < 1e-12


def test_full_report_triple():
    rep = full_report(TRIPLE)
    for c in (rep.c_amplitude, rep.c_bloch, rep.c_schmidt):
        assert abs(c - C_TRIPLE) < 1e-10
    assert abs(rep.eof - E_TRIPLE) < 1e-10
    assert abs(rep.vn_entropy_a - E_TRIPLE) < 1e-10
    assert abs(rep.u_norm - 1 / 3) < 1e-12
    assert abs(rep.v_norm - INV_SQRT3) < 1e-12
    assert abs(rep.k1 - math.sqrt(2 / 3)) < 1e-12
    assert abs(rep.k2 - math.sqrt(1 / 3)) < 1e-12


def test_full_report_as_dict_field_order():
    rep = full_report(BELL)
    assert list(rep.as_dict()) == [
        "c_amplitude", "c_bloch", "c_schmidt", "eof", "vn_entropy_a",
        "u_norm", "v_norm", "k1", "k2",
    ]


def test_as_dict_equals_dataclasses_asdict():
    # The shallow dict holds the same values as the deep copy it replaced.
    for psi in (TRIPLE, haar_random((2, 3), RandomStream(8), n=5)):
        rep = full_report(psi)
        shallow, deep = rep.as_dict(), dataclasses.asdict(rep)
        assert list(shallow) == list(deep)
        assert all(np.array_equal(shallow[key], deep[key]) for key in deep)
        assert all(shallow[key] is getattr(rep, key) for key in shallow)
