import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ent23 import (
    CoherenceDecomposition,
    ConsistencyError,
    DensityMatrix,
    GELL_MANN,
    PAULI,
    PureState,
    RandomStream,
    ValidationError,
    concurrence_bloch,
    decompose,
    full_report,
    haar_random,
    hermitian_eig2,
    hermitian_eig3,
    hermitian_eigvecs2,
    product_state,
    random_unitary,
    reconstruct,
    reduced_a,
    reduced_b,
    rotate_local,
    run_verification,
    schmidt_decompose,
    von_neumann_entropy,
)
from ent23.bases import (_PAIR_OPS, _QUBIT_OPS, _QUTRIT_OPS, DENSITY_EIGENVALUE_FLOOR,
                         TRACE_IMAG_TOL)
from ent23._exact import dot
from ent23.cli import main
from test_batch import family_stack, same_bits
from test_cli import STATES_DIR

SQRT3 = math.sqrt(3.0)


def pure_density(amplitudes):
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return DensityMatrix(np.outer(vec, vec.conj()))


KET_00 = pure_density([1, 0, 0, 0, 0, 0])
BELL = pure_density(np.array([1, 0, 0, 0, 1, 0]) / math.sqrt(2))
MIXED_6 = DensityMatrix(np.eye(6) / 6)


def partial_trace_oracle(rho, keep):
    """Independent partial trace via tensor reshape."""
    t = rho.reshape(2, 3, 2, 3)
    if keep == "a":
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


@pytest.mark.parametrize("g", PAULI + GELL_MANN)
def test_generators_hermitian_traceless(g):
    assert np.max(np.abs(g - g.conj().T)) == 0.0
    assert abs(g.trace()) < 1e-15


@pytest.mark.parametrize("family", [PAULI, GELL_MANN])
def test_generator_orthogonality(family):
    for i, gi in enumerate(family):
        for j, gj in enumerate(family):
            expected = 2.0 if i == j else 0.0
            assert abs((gi @ gj).trace().real - expected) < 1e-15
            assert abs((gi @ gj).trace().imag) < 1e-15


@pytest.mark.parametrize("sigma", PAULI)
def test_pauli_squares_to_identity(sigma):
    assert np.array_equal(sigma @ sigma, np.eye(2))


def test_reduced_a_examples():
    assert np.allclose(reduced_a(KET_00).matrix, np.diag([1, 0]), atol=1e-15)
    assert np.allclose(reduced_a(BELL).matrix, np.eye(2) / 2, atol=1e-15)
    assert np.allclose(reduced_a(MIXED_6).matrix, np.eye(2) / 2, atol=1e-15)


def test_reduced_b_examples():
    assert np.allclose(reduced_b(KET_00).matrix, np.diag([1, 0, 0]), atol=1e-15)
    assert np.allclose(reduced_b(BELL).matrix, np.diag([0.5, 0.5, 0.0]), atol=1e-15)
    assert np.allclose(reduced_b(MIXED_6).matrix, np.eye(3) / 3, atol=1e-15)


def test_reduced_matches_oracle_on_random_states():
    stream = RandomStream(11)
    for _ in range(100):
        rho = haar_random((2, 3), stream).density()
        assert np.max(np.abs(reduced_a(rho).matrix
                             - partial_trace_oracle(rho.matrix, "a"))) < 1e-14
        assert np.max(np.abs(reduced_b(rho).matrix
                             - partial_trace_oracle(rho.matrix, "b"))) < 1e-14


def test_reduced_requires_dim6():
    qubit = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValidationError):
        reduced_a(qubit)
    with pytest.raises(ValidationError):
        reduced_b(qubit)


def test_decompose_maximally_mixed_is_zero():
    coeffs = decompose(MIXED_6)
    assert np.max(np.abs(coeffs.u)) < 1e-15
    assert np.max(np.abs(coeffs.v)) < 1e-15
    assert np.max(np.abs(coeffs.beta)) < 1e-15


def test_decompose_ket00():
    coeffs = decompose(KET_00)
    assert np.allclose(coeffs.u, [0, 0, 1], atol=1e-15)
    expected_v = np.zeros(8)
    expected_v[2] = SQRT3 / 2
    expected_v[7] = 0.5
    assert np.allclose(coeffs.v, expected_v, atol=1e-15)
    assert abs(np.linalg.norm(coeffs.v) - 1.0) < 1e-15


def test_decompose_bell():
    coeffs = decompose(BELL)
    assert np.max(np.abs(coeffs.u)) < 1e-15
    assert abs(np.linalg.norm(coeffs.v) - 0.5) < 1e-15
    # only the two diagonal qutrit generators contribute
    assert np.max(np.abs(coeffs.v[[0, 1, 3, 4, 5, 6]])) < 1e-15


def test_reconstruct_zero_is_maximally_mixed():
    zero = CoherenceDecomposition(np.zeros(3), np.zeros(8), np.zeros((3, 8)))
    assert np.allclose(reconstruct(zero), np.eye(6) / 6, atol=1e-16)


def test_roundtrip_on_pure_states():
    stream = RandomStream(12)
    worst = 0.0
    for _ in range(100):
        rho = haar_random((2, 3), stream).density()
        rebuilt = reconstruct(decompose(rho))
        worst = max(worst, float(np.max(np.abs(rebuilt - rho.matrix))))
    assert worst < 1e-12


def test_roundtrip_exact_on_ket00():
    rebuilt = reconstruct(decompose(KET_00))
    assert np.max(np.abs(rebuilt - KET_00.matrix)) < 1e-15


@settings(max_examples=100, deadline=None)
@given(
    u=arrays(float, (3,), elements=st.floats(-2, 2)),
    v=arrays(float, (8,), elements=st.floats(-2, 2)),
    beta=arrays(float, (3, 8), elements=st.floats(-2, 2)),
)
def test_roundtrip_on_arbitrary_coefficients(u, v, beta):
    coeffs = CoherenceDecomposition(u, v, beta)
    back = decompose(reconstruct(coeffs))
    assert np.max(np.abs(back.u - coeffs.u)) < 1e-12
    assert np.max(np.abs(back.v - coeffs.v)) < 1e-12
    assert np.max(np.abs(back.beta - coeffs.beta)) < 1e-12


def einsum_traces(mat):
    """The 35 complex coefficient traces of the dense codec the sparse sums
    replace: the bit-for-bit reference."""
    stack = mat if mat.ndim == 3 else mat[None]
    raw = np.concatenate((np.einsum("nab,kba->nk", stack, _QUBIT_OPS),
                          np.einsum("nab,kba->nk", stack, _QUTRIT_OPS),
                          np.einsum("nab,kjba->nkj", stack, _PAIR_OPS).reshape(-1, 24)), axis=-1)
    return raw if mat.ndim == 3 else raw[0]


def einsum_decompose(mat):
    """The coefficients of the dense codec."""
    traces = einsum_traces(mat).real
    return (traces[..., :3], (SQRT3 / 2.0) * traces[..., 3:11],
            1.5 * traces[..., 11:].reshape(traces.shape[:-1] + (3, 8)))


def einsum_reconstruct(coeffs):
    mat = (np.eye(6, dtype=complex)
           + np.einsum("...k,kab->...ab", coeffs.u, _QUBIT_OPS)
           + SQRT3 * np.einsum("...k,kab->...ab", coeffs.v, _QUTRIT_OPS)
           + np.einsum("...kj,kjab->...ab", coeffs.beta, _PAIR_OPS))
    return mat / 6.0


def codec_test_matrices():
    """Haar, product and near-product states of both dims (the qubit-qubit ones
    zero-padded to (2, 3)), then every basis state and every two-term
    superposition of basis states with amplitudes +-1 and +-i."""
    grids = [np.pad(psi.amplitudes, ((0, 0), (0, 3 - psi.d_b)))
             for d_b in (2, 3) for psi in family_stack(d_b)]
    mats = [PureState(grid).density().matrix for grid in grids]
    phases = (1, -1, 1j, -1j)
    for first in range(6):
        for p in phases:
            amp = np.zeros(6, dtype=complex)
            amp[first] = p
            mats.append(np.outer(amp, amp.conj()))
            for second in range(first + 1, 6):
                for q in phases:
                    pair = amp.copy()
                    pair[second] = q
                    pair /= math.sqrt(2.0)
                    mats.append(np.outer(pair, pair.conj()))
    return np.stack(mats)


def test_sparse_codec_equals_einsum_bits():
    mats = codec_test_matrices()
    stacked = decompose(mats)
    for name, expected in zip(("u", "v", "beta"), einsum_decompose(mats)):
        assert same_bits(getattr(stacked, name), expected), name
    assert same_bits(reconstruct(stacked), einsum_reconstruct(stacked))
    for mat in mats:
        one = decompose(mat)
        for name, expected in zip(("u", "v", "beta"), einsum_decompose(mat)):
            assert same_bits(getattr(one, name), expected), name
        assert same_bits(reconstruct(one), einsum_reconstruct(one))


def with_signed_zeros(rng, parts):
    """``parts`` with about 40 % of their entries set to +0.0 or -0.0."""
    for part in parts:
        zeros = rng.random(part.shape) < 0.4
        part[zeros] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[zeros]
    return parts


def assert_decoder_matches_einsum(parts):
    """The sparse decoder gives the einsum decoder's bits on the stack of
    coefficients ``parts`` and on each of its states alone."""
    stacked = CoherenceDecomposition(*parts)
    assert same_bits(reconstruct(stacked), einsum_reconstruct(stacked))
    for index in range(len(parts[0])):
        one = CoherenceDecomposition(*(part[index] for part in parts))
        assert same_bits(reconstruct(one), einsum_reconstruct(one)), index


def test_sparse_decoder_equals_einsum_bits_with_signed_zeros():
    rng = np.random.default_rng(2006)
    n = 3000
    assert_decoder_matches_einsum(with_signed_zeros(
        rng, [rng.normal(size=(n,) + shape) for shape in ((3,), (8,), (3, 8))]))


@pytest.mark.parametrize("scale", (1e-320, 5e-324, 1.7e308))
def test_sparse_decoder_equals_einsum_bits_at_edge_scales(scale):
    # Subnormal coefficients: the final division by 6 underflows entries to
    # +-0, whose sign a lower triangle mirrored after the division gets
    # wrong.  Coefficients near the largest float: entries overflow to inf,
    # and the division turns some into nan.
    rng = np.random.default_rng(2006)
    n = 1000
    parts = with_signed_zeros(rng, [rng.uniform(-1.0, 1.0, size=(n,) + shape) * scale
                                    for shape in ((3,), (8,), (3, 8))])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_decoder_matches_einsum(parts)


def einsum_decompose_outcome(mat):
    """What decompose of the raw array ``mat`` gives by the dense codec: the
    coefficients, or the type and message of the exception it raises."""
    worst_imag = float(np.max(np.abs(einsum_traces(mat).imag)))
    if worst_imag > TRACE_IMAG_TOL:
        return ConsistencyError, (f"coefficient traces have imaginary part {worst_imag:.3e}; "
                                  "input matrix is not Hermitian")
    coeffs = einsum_decompose(mat)
    for name, part in zip(("u", "v", "beta"), coeffs):
        if not np.isfinite(part).all():
            return ValidationError, f"{name} contains NaN or Inf entries"
    return coeffs


def decompose_outcome(mat):
    try:
        coeffs = decompose(mat)
    except (ConsistencyError, ValidationError) as error:
        return type(error), str(error)
    return coeffs.u, coeffs.v, coeffs.beta


def same_outcome(got, expected):
    if type(expected[0]) is type:
        return got == expected
    return type(got[0]) is not type and all(map(same_bits, got, expected))


def hermitian_raw(rng, n, scale):
    """``n`` Hermitian 6x6 matrices, not of unit trace: real and imaginary
    parts uniform in [-1, 1] times ``scale`` and one power of two from 1 to
    1/16 per matrix, about 40 % of them +-0.0."""
    mats = np.empty((n, 6, 6), dtype=complex)
    factor = 2.0 ** -rng.integers(0, 5, size=(n, 1, 1)) * scale
    mats.real, mats.imag = with_signed_zeros(
        rng, [rng.uniform(-1.0, 1.0, size=(n, 6, 6)) * factor for _ in range(2)])
    rows, cols = np.tril_indices(6, -1)
    mats[:, rows, cols] = np.conj(mats[:, cols, rows])
    mats.imag[:, range(6), range(6)] = 0.0
    return mats


# Layouts of a raw stack; decompose copies each into C order where it
# enters, so every one must give the dense codec's outcome on the same values.
RAW_LAYOUTS = {
    "C": lambda mats: mats,
    "Fortran": np.asfortranarray,
    "strided": lambda mats: mats[::2],
    "stack-major": lambda mats: np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1),
}


@pytest.mark.parametrize("scale", (1e-320, 5e-324, 1.7e308))
def test_sparse_encoder_equals_einsum_bits_at_edge_scales(scale):
    # Subnormal entries: products underflow to +-0, whose sign a sum from
    # +0.0 must drop.  Entries near the largest float: products and sums
    # overflow to inf or nan, and decompose must raise what the dense codec's
    # traces call for, with the same message.
    rng = np.random.default_rng(2006)
    mats = hermitian_raw(rng, 300, scale)
    outcomes = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for layout, arrange in RAW_LAYOUTS.items():
            stack = arrange(mats)
            assert same_outcome(decompose_outcome(stack), einsum_decompose_outcome(stack)), layout
            for index, mat in enumerate(stack):
                for one in (mat, np.asfortranarray(mat)):
                    expected = einsum_decompose_outcome(one)
                    assert same_outcome(decompose_outcome(one), expected), (layout, index)
                    outcomes.add(expected[0] if type(expected[0]) is type else "coefficients")
    assert outcomes == ({"coefficients"} if scale < 1.0
                        else {"coefficients", ConsistencyError, ValidationError})


def test_decompose_of_a_non_hermitian_raw_matrix_prints_the_dense_codecs_imaginary_part():
    rng = np.random.default_rng(11)
    for scale in (1e-9, 1.0, 1e300):
        mats = (rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))) * scale
        for mat in (mats, *mats):
            expected = einsum_decompose_outcome(mat)
            assert expected[0] is ConsistencyError
            assert decompose_outcome(mat) == expected


def test_coherence_bits_do_not_depend_on_memory_layout():
    coeffs = decompose(haar_random((2, 3), RandomStream(7), n=2000).density())
    fortran = CoherenceDecomposition(*(np.asfortranarray(part)
                                       for part in (coeffs.u, coeffs.v, coeffs.beta)))
    for name in ("u", "v", "beta"):
        assert same_bits(getattr(fortran, name), getattr(coeffs, name))
    assert same_bits(concurrence_bloch(fortran), concurrence_bloch(coeffs))
    assert same_bits(reconstruct(fortran), reconstruct(coeffs))
    assert same_bits(dot(fortran.v, fortran.v), dot(coeffs.v, coeffs.v))


def strided(x):
    """``x`` as every second entry of a last axis twice as long."""
    big = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), x.dtype)
    big[..., ::2] = x
    return big[..., ::2]


# Other layouts of the same values, stack axis first.
LAYOUTS = {
    "Fortran": np.asfortranarray,
    "strided": strided,
    "reversed": lambda x: np.ascontiguousarray(x[::-1])[::-1],
}


def layout_outputs(arrange):
    """Every public output of the layout test, by name, from C-ordered stacks
    passed through ``arrange``."""
    out = {}
    stream = RandomStream(7)
    for d_b in (2, 3):
        amps = np.concatenate([haar_random((2, d_b), stream, n=500).amplitudes,
                               [psi.amplitudes for psi in family_stack(d_b)]])
        psi = PureState(arrange(amps))
        out.update({(d_b, name): value for name, value in full_report(psi).as_dict().items()})
        form = schmidt_decompose(psi)
        for name in ("k1", "k2", "x1", "x2", "y1", "y2"):
            out[d_b, name] = getattr(form, name)
        unitaries = random_unitary(2, stream, len(amps)), random_unitary(d_b, stream, len(amps))
        c_ordered = PureState(amps)
        out[d_b, "rotate_local"] = rotate_local(c_ordered, *map(arrange, unitaries)).amplitudes

        rho = DensityMatrix(arrange(c_ordered.density().matrix))
        coeffs = decompose(rho)
        out.update({(d_b, name): getattr(coeffs, name) for name in ("u", "v", "beta")})
        for reduce in (reduced_a, reduced_b):
            reduced = reduce(rho)
            out[d_b, reduce.__name__] = reduced.matrix
            out[d_b, reduce.__name__, "entropy"] = von_neumann_entropy(reduced)
            # Exactly Hermitian, so that scaling by a power of two keeps it
            # Hermitian; the scaled copies take the solvers' scaled path.
            m = 0.5 * (reduced.matrix + np.conj(reduced.matrix).swapaxes(-1, -2))
            m = np.concatenate([m, m * 2.0 ** 600, m * 2.0 ** -600])
            if reduced.dim == 2:
                out[d_b, "eig2"] = hermitian_eig2(arrange(m))
                out[d_b, "eigvecs2", "values"], out[d_b, "eigvecs2"] = hermitian_eigvecs2(
                    arrange(m))
            else:
                out[d_b, "eig3"] = hermitian_eig3(arrange(m))
    return out


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_bits_do_not_depend_on_memory_layout(layout):
    # Every array input is copied into C order where it enters, so a
    # Fortran-ordered, strided or reversed stack gives the C stack's bits.
    expected = layout_outputs(lambda x: x)
    got = layout_outputs(LAYOUTS[layout])
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert same_bits(got[key], value), key


def test_reduced_matrices_match_coefficient_form():
    stream = RandomStream(13)
    for _ in range(100):
        rho = haar_random((2, 3), stream).density()
        coeffs = decompose(rho)
        expect_a = 0.5 * (np.eye(2) + sum(coeffs.u[i] * PAULI[i] for i in range(3)))
        expect_b = (np.eye(3)
                    + SQRT3 * sum(coeffs.v[j] * GELL_MANN[j] for j in range(8))) / 3.0
        assert np.max(np.abs(reduced_a(rho).matrix - expect_a)) < 1e-12
        assert np.max(np.abs(reduced_b(rho).matrix - expect_b)) < 1e-12


def test_product_states_have_unit_coherence_norms():
    stream = RandomStream(14)
    for _ in range(50):
        phi_a = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                          for _ in range(2)])
        phi_b = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                          for _ in range(3)])
        psi = product_state(phi_a / np.linalg.norm(phi_a),
                            phi_b / np.linalg.norm(phi_b))
        coeffs = decompose(psi.density())
        assert abs(np.linalg.norm(coeffs.u) - 1.0) < 1e-10
        assert abs(np.linalg.norm(coeffs.v) - 1.0) < 1e-10


def test_purity_relation_between_norms():
    # for every pure joint state |v|^2 = (1 + 3 |u|^2) / 4
    stream = RandomStream(15)
    for _ in range(200):
        coeffs = decompose(haar_random((2, 3), stream).density())
        u_sq = float(coeffs.u @ coeffs.u)
        v_sq = float(coeffs.v @ coeffs.v)
        assert abs(v_sq - (1.0 + 3.0 * u_sq) / 4.0) < 1e-10


def test_decompose_flags_non_hermitian_input():
    bad = np.zeros((6, 6), dtype=complex)
    bad[0, 1] = 1.0  # upper-triangular, clearly not Hermitian
    bad[0, 0] = 1.0
    with pytest.raises(ConsistencyError):
        decompose(bad)


def test_decompose_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        decompose(np.eye(3) / 3)
    with pytest.raises(ValidationError, match=re.escape("(3, 3)")):
        decompose(DensityMatrix(np.eye(3) / 3))
    for shape in ((4, 4), (6,), (0, 6, 6), (2, 3, 6, 6)):
        with pytest.raises(ValidationError, match=re.escape(str(shape))):
            decompose(np.zeros(shape))


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4) / 4)  # unsupported dimension
    for shape in ((4, 4), (2, 3), (3,), (0, 2, 2), (2, 3, 3, 3)):
        with pytest.raises(ValidationError, match=re.escape(str(shape))):
            DensityMatrix(np.zeros(shape))
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(6))  # trace 6
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    skew = np.eye(6, dtype=complex) / 6
    skew[0, 1] = 1e-3
    with pytest.raises(ValidationError):
        DensityMatrix(skew)  # not Hermitian
    nan = np.eye(2, dtype=complex) / 2
    nan[0, 0] = np.nan
    with pytest.raises(ValidationError):
        DensityMatrix(nan)


def test_density_matrix_is_immutable():
    rho = DensityMatrix(np.eye(6) / 6)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.5


def test_coherence_decomposition_validation():
    with pytest.raises(ValidationError):
        CoherenceDecomposition(np.zeros(2), np.zeros(8), np.zeros((3, 8)))
    with pytest.raises(ValidationError):
        CoherenceDecomposition(np.full(3, np.inf), np.zeros(8), np.zeros((3, 8)))


def matrix_with_smallest_eigenvalue(rng, d, smallest):
    """A Hermitian unit-trace ``d x d`` matrix whose spectrum has minimum ``smallest``."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rest = rng.random(d - 1) + 0.05
    spectrum = np.concatenate([[smallest], rest * ((1.0 - smallest) / rest.sum())])
    m = (q * spectrum) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def accepts(matrix):
    try:
        DensityMatrix(matrix)
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("d", (2, 3, 6))
def test_positivity_decision_is_eigvalsh_at_the_floor(d):
    # Within 3e-12 of the floor the decision must still be eigvalsh's, for
    # each matrix and for the stack.
    rng = np.random.default_rng(d)
    grid = DENSITY_EIGENVALUE_FLOOR + np.linspace(-3e-12, 3e-12, 61)
    stack = np.array([matrix_with_smallest_eigenvalue(rng, d, t) for t in grid])
    decisions = [accepts(m) for m in stack]
    assert decisions == [np.linalg.eigvalsh(m).min() >= DENSITY_EIGENVALUE_FLOOR for m in stack]
    assert any(decisions) and not all(decisions)
    accepted = stack[decisions]
    assert accepts(accepted) and not accepts(stack)


def test_stack_with_one_negative_matrix_names_it():
    rng = np.random.default_rng(5)
    stack = np.array([matrix_with_smallest_eigenvalue(rng, 6, 0.05) for _ in range(5)])
    stack[3] = matrix_with_smallest_eigenvalue(rng, 6, -1e-3)
    smallest = np.linalg.eigvalsh(stack[3]).min()
    with pytest.raises(ValidationError) as info:
        DensityMatrix(stack)
    assert str(info.value) == ("density matrix has negative eigenvalue "
                               f"{smallest:.3e} (item 3 of the stack)")


def test_built_values_never_reach_the_positivity_check(monkeypatch, capsys):
    # Only the public DensityMatrix constructor runs eigvalsh: the projectors,
    # partial traces and codecs of full_report, verify and compute are built
    # valid (module notes) and must not pay for it, nor depend on it.
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called on a value built valid")

    def run_all():
        reports = [full_report(psi).as_dict() for psi in (
            haar_random((2, 2), RandomStream(21), n=250),
            haar_random((2, 3), RandomStream(22), n=250),
            haar_random((2, 3), RandomStream(23)))]
        outcome = run_verification(n_states=60, seed=1)
        printed = []
        for path in sorted(STATES_DIR.glob("*.json")):
            for fmt in ("text", "json"):
                assert main(["compute", str(path), "--format", fmt]) == 0
                printed.append(capsys.readouterr().out)
        return reports, repr(outcome), printed

    expected_reports, *expected_rest = run_all()
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports, *rest = run_all()
    assert rest == expected_rest
    for report, expected in zip(reports, expected_reports):
        assert report.keys() == expected.keys()
        assert all(same_bits(report[key], expected[key]) for key in expected)
