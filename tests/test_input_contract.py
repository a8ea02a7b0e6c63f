"""Malformed input gives ``ValidationError`` and no warning.

Each case was a leak: complex input where reals are expected lost its
imaginary part (NumPy warned with ``ComplexWarning`` and went on), text
arrays reached ``require_finite`` and ``require_hermitian`` as a bare
``TypeError``, and an overflowing "unitary" printed a ``RuntimeWarning``
before ``rotate_local`` rejected it.  ``require_hermitian`` failed on a
list and on a matrix that is not square, and passed NaN.  ``rotate_local``
let mismatched stacks reach ``matmul``, ``render_state_file`` failed on a
stack, and ``product_state`` warned of an overflow in a factor's norm.  ``pyproject.toml`` turns every
``RuntimeWarning``, ``ComplexWarning`` included, into an error.
``require_hermitian`` passed an integer matrix whose difference wraps, and
took a NaN or infinite ``tol``; a long double beyond the float range warned
of an overflow in its cast before it was rejected.  Entries near the float
limit warned of an overflow in ``require_hermitian``'s deviation, in
``DensityMatrix``'s trace and in a raw ``decompose``'s sums before they were
rejected.  The eigensolvers warned of an overflow on finite matrices whose
eigenvalues, or whose spectral gap, leave the float range.
"""

import numpy as np
import pytest

from ent23 import (CoherenceDecomposition, ConsistencyError, DensityMatrix, PureState,
                   RandomStream, ValidationError, binary_entropy, decompose,
                   eof_from_concurrence, haar_random, hermitian_eig2, hermitian_eig3,
                   hermitian_eigvecs2, product_state, render_state_file, rotate_local,
                   schmidt_pair_state)
from ent23.linalg import require_finite, require_hermitian

COMPLEX_INPUTS = {
    "array": np.array([0.3 + 0.4j, 0.5]),
    "zero-imaginary-array": np.array([0.3 + 0j, 0.5 + 0j]),
    "0-d-array": np.array(0.3 + 0.4j),
    "numpy-scalar": np.complex128(0.3 + 0.4j),
    "numpy-complex64-scalar": np.complex64(0.3 + 0.4j),
    "list-of-numpy-scalars": [np.complex128(0.3 + 0.4j), 0.5],
    "python-scalar": 0.3 + 0.4j,
}


@pytest.mark.parametrize("kind", sorted(COMPLEX_INPUTS))
def test_binary_entropy_rejects_complex_input(kind):
    with pytest.raises(ValidationError, match="binary entropy argument must be real"):
        binary_entropy(COMPLEX_INPUTS[kind])


@pytest.mark.parametrize("kind", sorted(COMPLEX_INPUTS))
def test_eof_from_concurrence_rejects_complex_input(kind):
    with pytest.raises(ValidationError, match="concurrence must be real"):
        eof_from_concurrence(COMPLEX_INPUTS[kind])


@pytest.mark.parametrize("name", ("u", "v", "beta"))
def test_coherence_decomposition_rejects_complex_coefficients(name):
    coefficients = {"u": np.zeros(3), "v": np.zeros(8), "beta": np.zeros((3, 8))}
    coefficients[name] = coefficients[name] + 0.1j
    with pytest.raises(ValidationError, match=f"{name} must be real"):
        CoherenceDecomposition(**coefficients)
    with pytest.raises(ValidationError, match=f"{name} must be real"):
        CoherenceDecomposition(**dict(coefficients, **{name: coefficients[name].tolist()}))


@pytest.mark.parametrize("value", (np.float64(0.3), np.float32(0.3), np.int64(0), 0.3, 1,
                                   [0.3, np.float64(0.5)], np.array([0.3, 0.5], np.float32)),
                         ids=("float64", "float32", "int64", "float", "int", "list", "float32-array"))
def test_real_input_of_every_kind_is_still_taken(value):
    for call in (binary_entropy, eof_from_concurrence):
        assert np.ravel(call(value)).tolist() == [call(float(x)) for x in np.ravel(value)]


@pytest.mark.parametrize("matrix", (np.array([["a", "b"], ["c", "d"]]),
                                    np.array([[1.0, None], [None, 1.0]]),
                                    np.array([[b"x"]])), ids=("text", "object", "bytes"))
def test_require_finite_and_require_hermitian_reject_arrays_that_are_not_numbers(matrix):
    with pytest.raises(ValidationError, match="input is not a rectangular array of numbers"):
        require_finite(matrix)
    with pytest.raises(ValidationError, match="matrix is not a rectangular array of numbers"):
        require_hermitian(matrix)


@pytest.mark.parametrize("scale", (1e300, -1e300, 1e300j))
def test_rotate_local_rejects_an_overflowing_unitary_without_a_warning(scale):
    psi = schmidt_pair_state(0.75)
    with pytest.raises(ValidationError, match="u_a is not unitary"):
        rotate_local(psi, scale * np.eye(2), np.eye(3))
    with pytest.raises(ValidationError, match="u_b is not unitary"):
        rotate_local(psi, np.eye(2), scale * np.full((3, 3), 1.0))


def test_require_hermitian_takes_a_list():
    require_hermitian([[1.0, 0.5j], [-0.5j, 1.0]])
    with pytest.raises(ValidationError, match="matrix is not Hermitian"):
        require_hermitian([[1.0, 2.0], [0.0, 1.0]])


@pytest.mark.parametrize("matrix, message", (
    (np.array(1.0), "must be square"),
    (np.array([1.0]), "must be square"),
    (np.zeros((2, 3)), "must be square"),
    (np.zeros((4, 2, 3)), "must be square"),
    (np.array([[np.nan]]), "contains NaN or Inf"),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), "contains NaN or Inf"),
), ids=("0-d", "1-d", "2x3", "stack-2x3", "nan", "inf"))
def test_require_hermitian_rejects_matrices_not_square_or_not_finite(matrix, message):
    with pytest.raises(ValidationError, match=message):
        require_hermitian(matrix)


def test_rotate_local_rejects_stacks_that_do_not_match_the_states():
    psi = haar_random((2, 3), RandomStream(1), 3)
    with pytest.raises(ValidationError, match="or stacks of one length"):
        rotate_local(psi, np.stack([np.eye(2)] * 2), np.eye(3))
    with pytest.raises(ValidationError, match="or stacks of one length"):
        rotate_local(psi, np.eye(2), np.stack([np.eye(3)] * 2))


def test_render_state_file_rejects_a_stack():
    with pytest.raises(ValidationError, match="holds one state"):
        render_state_file(haar_random((2, 3), RandomStream(1), 2))


def test_a_numpy_bool_is_not_an_integer():
    # NumPy before 2.0 takes np.True_ as the index 1, with a DeprecationWarning.
    with pytest.raises(ValidationError, match="seed must be an integer"):
        RandomStream(np.True_)


def test_product_state_rejects_a_factor_whose_norm_overflows_without_a_warning():
    with pytest.raises(ValidationError, match="phi_a is not normalized"):
        product_state(np.full((2, 2), 1e154), np.ones((2, 3)) / np.sqrt(3.0))


@pytest.mark.parametrize("matrix", (np.array([[0, -2**63], [0, 0]]),
                                    np.array([[0, -128], [0, 0]], np.int8)),
                         ids=("int64", "int8"))
def test_require_hermitian_rejects_an_integer_matrix_whose_difference_wraps(matrix):
    with pytest.raises(ValidationError, match="matrix is not Hermitian"):
        require_hermitian(matrix)


@pytest.mark.parametrize("tol, message", (
    (float("nan"), "tol must be finite and >= 0, got nan"),
    (float("inf"), "tol must be finite and >= 0, got inf"),
    (-1e-12, "tol must be finite and >= 0, got -1e-12"),
    ("1e-12", "tol must be a real number"),
    (True, "tol must be a real number"),
), ids=("nan", "inf", "negative", "text", "bool"))
def test_require_hermitian_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol, message):
    for matrix in (np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])):
        with pytest.raises(ValidationError, match=message):
            require_hermitian(matrix, tol)


BEYOND_DOUBLE = np.longdouble("1e4000")


@pytest.mark.skipif(not np.isfinite(BEYOND_DOUBLE), reason="long double is a double here")
@pytest.mark.parametrize("call, message", (
    (lambda x: PureState(np.array([[x, 0, 0], [0, 0, 0]])), "amplitudes contains NaN or Inf"),
    (lambda x: PureState(np.array([[1j * x, 0], [0, 0]], np.clongdouble)),
     "amplitudes contains NaN or Inf"),
    (lambda x: DensityMatrix(np.array([[x, 0], [0, 0]])), "density matrix contains NaN or Inf"),
    (lambda x: hermitian_eig2(np.array([[x, 0], [0, 0]])), "matrix contains NaN or Inf"),
    (lambda x: CoherenceDecomposition(np.array([x, 0, 0]), np.zeros(8), np.zeros((3, 8))),
     "u contains NaN or Inf"),
    (lambda x: binary_entropy(np.array([x])), "argument inf is outside"),
), ids=("PureState", "PureState-clongdouble", "DensityMatrix", "hermitian_eig2",
        "CoherenceDecomposition", "binary_entropy"))
def test_a_long_double_beyond_the_float_range_is_rejected_without_a_warning(call, message):
    with pytest.raises(ValidationError, match=message):
        call(BEYOND_DOUBLE)


NEAR_THE_LIMIT = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])


@pytest.mark.parametrize("call, error, message", (
    (lambda: require_hermitian(NEAR_THE_LIMIT), ValidationError,
     "matrix is not Hermitian: max deviation inf exceeds 1e-12"),
    (lambda: hermitian_eig2(NEAR_THE_LIMIT), ValidationError,
     "matrix is not Hermitian: max deviation inf exceeds 1e-12"),
    (lambda: DensityMatrix(np.diag([1.7e308, 1.7e308])), ValidationError,
     "density matrix trace is inf, expected 1"),
    (lambda: decompose(np.full((6, 6), 1e308)), ConsistencyError,
     "coefficient traces have imaginary part inf; input matrix is not Hermitian"),
), ids=("require_hermitian", "hermitian_eig2", "DensityMatrix", "decompose"))
def test_entries_near_the_float_limit_are_rejected_without_a_warning(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("call, expected", (
    (lambda: hermitian_eig2(np.full((2, 2), 1e308)), (np.inf, 0.0)),
    (lambda: hermitian_eig3(np.full((3, 3), 1e308)), (np.inf, 0.0, 0.0)),
    (lambda: tuple(hermitian_eigvecs2(np.diag([1.7e308, -1.7e308]))[0]), (1.7e308, -1.7e308)),
), ids=("hermitian_eig2", "hermitian_eig3", "hermitian_eigvecs2"))
def test_eigenvalues_beyond_the_float_range_are_solved_without_a_warning(call, expected):
    assert call() == expected
