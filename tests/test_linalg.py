import re
import warnings

import numpy as np
import pytest

from ent23 import ValidationError, hermitian_eig2, hermitian_eig3, hermitian_eigvecs2


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def test_eig2_identity():
    assert hermitian_eig2(np.eye(2)) == (1.0, 1.0)


def test_eig2_diagonal():
    assert hermitian_eig2(np.diag([2 / 3, 1 / 3])) == (2 / 3, 1 / 3)


def test_eig2_uniform_projector():
    # characteristic polynomial x^2 - x = 0 by hand
    w1, w2 = hermitian_eig2(np.full((2, 2), 0.5))
    assert abs(w1 - 1.0) < 1e-15
    assert abs(w2) < 1e-15


def test_eig2_zero_matrix():
    assert hermitian_eig2(np.zeros((2, 2))) == (0.0, 0.0)


def test_eig2_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = random_hermitian(rng, 2)
        ours = hermitian_eig2(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.allclose(ours, ref, rtol=0, atol=1e-12)


def test_eig2_trace_and_det_invariants():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = random_hermitian(rng, 2)
        w1, w2 = hermitian_eig2(m)
        assert abs(w1 + w2 - m.trace().real) < 1e-12
        assert abs(w1 * w2 - np.linalg.det(m).real) < 1e-12


def test_eig2_charpoly_residual():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = random_hermitian(rng, 2) / 2  # unit-scale entries
        trace = m.trace().real
        det = np.linalg.det(m).real
        for w in hermitian_eig2(m):
            assert abs(w * w - trace * w + det) < 1e-10


def test_eig2_small_eigenvalue_is_accurate():
    # nearly rank-one: the small root must come out at the det / trace scale,
    # not at the sqrt(eps) scale a cancelling formula would give
    eps = 1e-13
    m = np.array([[1.0, 0.0], [0.0, eps]])
    q = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    w1, w2 = hermitian_eig2(q @ m @ q.T)
    assert abs(w1 - 1.0) < 1e-12
    assert abs(w2 - eps) < 1e-15


def test_eig2_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eig2(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig2_rejects_nan():
    with pytest.raises(ValidationError):
        hermitian_eig2(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_eig2_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        hermitian_eig2(np.eye(3))
    for shape in ((3,), (0, 2, 2), (2, 3, 2, 2)):
        with pytest.raises(ValidationError, match=re.escape(str(shape))):
            hermitian_eig2(np.zeros(shape))


def test_eigvecs2_reconstructs():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = random_hermitian(rng, 2)
        values, vectors = hermitian_eigvecs2(m)
        assert abs(np.vdot(vectors[:, 0], vectors[:, 1])) < 1e-14
        for k in range(2):
            v = vectors[:, k]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14
            assert np.max(np.abs(m @ v - values[k] * v)) < 1e-12


def test_eigvecs2_degenerate_returns_standard_basis():
    values, vectors = hermitian_eigvecs2(np.eye(2) / 2)
    assert np.array_equal(vectors, np.eye(2))
    assert values[0] == values[1] == 0.5


def test_eig3_identity():
    assert hermitian_eig3(np.eye(3)) == (1.0, 1.0, 1.0)


def test_eig3_diagonal():
    w = hermitian_eig3(np.diag([0.5, 0.5, 0.0]))
    assert np.allclose(w, (0.5, 0.5, 0.0), rtol=0, atol=1e-15)


def test_eig3_rank_one_projector():
    # (1/3) * all-ones is a trace-one rank-one projector
    w = hermitian_eig3(np.full((3, 3), 1 / 3))
    assert np.allclose(w, (1.0, 0.0, 0.0), rtol=0, atol=1e-12)


def test_eig3_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = random_hermitian(rng, 3)
        ours = hermitian_eig3(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.allclose(ours, ref, rtol=0, atol=1e-11)


def test_eig3_sum_matches_trace():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = random_hermitian(rng, 3)
        assert abs(sum(hermitian_eig3(m)) - m.trace().real) < 1e-12


def test_eig3_charpoly_residual():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_hermitian(rng, 3) / 3  # unit-scale entries
        coeffs = np.poly(m)  # characteristic polynomial, leading 1
        for w in hermitian_eig3(m):
            assert abs(np.polyval(coeffs, w).real) < 1e-10


def test_eig3_rejects_non_hermitian():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(ValidationError):
        hermitian_eig3(m)


def test_eig3_takes_a_stack():
    rng = np.random.default_rng(10)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    values = hermitian_eig3(stack)
    assert values.shape == (4, 3)
    assert np.all(values[:, :-1] >= values[:, 1:])


@pytest.mark.parametrize("scale", (1e160, 1e-170))
def test_eig3_of_huge_and_tiny_entries(scale):
    # Squares of the entries overflow or underflow: diag(1, 2, 3) * 1e160
    # gave (inf, nan, nan) and * 1e-170 gave (2e-170,) * 3.  A matrix scaled
    # on its own leaves its stack neighbours' bits alone.
    extreme = np.diag([1.0, 2.0, 3.0]) * scale
    plain = np.diag([0.2, 0.3, 0.5])
    expected = scale * np.array([3.0, 2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = np.array(hermitian_eig3(extreme))
        stacked = hermitian_eig3(np.stack([plain, extreme, plain]))
    for values in (alone, stacked[1]):
        assert np.all(np.isfinite(values))
        # Relative to the spectral norm, the measure Weyl's bound uses.
        assert np.max(np.abs(values - expected)) <= 1e-15 * expected[0]
    assert tuple(stacked[0]) == tuple(stacked[2]) == hermitian_eig3(plain)


@pytest.mark.parametrize("scale", (1e170, 1e-170))
def test_eig2_of_huge_and_tiny_entries(scale):
    # diag(1, 2) * 1e170 gave (nan, nan) with overflow warnings and * 1e-170
    # gave (1.5e-170, 0.0).  Both solvers scale such a matrix on its own.
    extreme = np.diag([1.0, 2.0]) * scale
    plain = np.diag([0.3, 0.7])
    expected = scale * np.array([2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = np.array(hermitian_eig2(extreme))
        stacked = hermitian_eig2(np.stack([plain, extreme, plain]))
        vec_values, vectors = hermitian_eigvecs2(np.stack([plain, extreme, plain]))
    for values in (alone, stacked[1], vec_values[1]):
        assert np.max(np.abs(values - expected)) <= 1e-15 * expected[0]
    assert tuple(stacked[0]) == tuple(stacked[2]) == hermitian_eig2(plain)
    # The degeneracy test is absolute: a spectrum 1e-170 wide is degenerate.
    expected_vectors = np.eye(2) if scale < 1 else np.array([[0, -1], [1, 0]])
    assert np.allclose(vectors[1], expected_vectors, rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", ((2, 3, 3, 3), (0, 3, 3), (3,), (2, 2)))
def test_eig3_rejects_bad_shapes(shape):
    with pytest.raises(ValidationError):
        hermitian_eig3(np.zeros(shape))


def test_eig3_descending_order():
    rng = np.random.default_rng(8)
    for _ in range(100):
        w1, w2, w3 = hermitian_eig3(random_hermitian(rng, 3))
        assert w1 >= w2 >= w3
