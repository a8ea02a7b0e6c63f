import math

import numpy as np
import pytest

from ent23 import (
    PureState,
    RandomStream,
    ValidationError,
    concurrence_amplitudes,
    haar_random,
    product_state,
    random_unitary,
    rotate_local,
    run_verification,
    schmidt_decompose,
    schmidt_pair_state,
)
from ent23.sampling import haar_chunks

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_haar_random_is_normalized():
    stream = RandomStream(31)
    for dims in ((2, 3), (2, 2)):
        for _ in range(50):
            psi = haar_random(dims, stream)
            assert abs(np.linalg.norm(psi.vector()) - 1.0) < 1e-12
            assert psi.amplitudes.shape == dims


def test_haar_random_deterministic():
    a = haar_random((2, 3), RandomStream(77))
    b = haar_random((2, 3), RandomStream(77))
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_haar_random_independent_streams_differ():
    a = haar_random((2, 3), RandomStream(78))
    b = haar_random((2, 3), RandomStream(79))
    assert not np.array_equal(a.amplitudes, b.amplitudes)


def test_haar_random_rejects_bad_dims():
    for dims in ((3, 3), (2, 3, 4), (2,), 3):
        with pytest.raises(ValidationError, match=r"supported dims are \(2, 2\) and \(2, 3\)"):
            haar_random(dims, RandomStream(0))


def test_haar_purity_mean():
    # closed-form ensemble average of tr(rho_A^2) is (d_a + d_b)/(d_a d_b + 1)
    stream = RandomStream(32)
    total = 0.0
    n = 2000
    for _ in range(n):
        a = haar_random((2, 3), stream).amplitudes
        rho_a = a @ a.conj().T
        total += float(np.einsum("ij,ji->", rho_a, rho_a).real)
    assert abs(total / n - 5 / 7) < 0.02


def test_product_state_layout():
    psi = product_state([1, 0], [0, 0, 1])
    expected = np.zeros((2, 3))
    expected[0, 2] = 1.0
    assert np.array_equal(psi.amplitudes, expected)
    plus = product_state([INV_SQRT2, INV_SQRT2], [0, 0, 1])
    assert abs(plus.amplitudes[0, 2] - INV_SQRT2) < 1e-15
    assert abs(plus.amplitudes[1, 2] - INV_SQRT2) < 1e-15


def test_product_state_has_zero_concurrence():
    stream = RandomStream(33)
    for _ in range(50):
        phi_a = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                          for _ in range(2)])
        phi_b = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                          for _ in range(3)])
        psi = product_state(phi_a / np.linalg.norm(phi_a),
                            phi_b / np.linalg.norm(phi_b))
        assert concurrence_amplitudes(psi) < 1e-12


def test_product_state_rejects_unnormalized():
    with pytest.raises(ValidationError):
        product_state([1, 1], [1, 0, 0])


def test_schmidt_pair_states():
    assert np.array_equal(schmidt_pair_state(1.0).amplitudes[0, 0], 1.0)
    assert concurrence_amplitudes(schmidt_pair_state(1.0)) == 0.0
    assert abs(concurrence_amplitudes(schmidt_pair_state(INV_SQRT2)) - 1.0) < 1e-12
    c = concurrence_amplitudes(schmidt_pair_state(math.sqrt(3) / 2))
    assert abs(c - math.sqrt(3) / 2) < 1e-12


def test_schmidt_pair_round_trip():
    for k1 in np.linspace(INV_SQRT2, 1.0, 20):
        form = schmidt_decompose(schmidt_pair_state(float(k1)))
        assert abs(form.k1 - k1) < 1e-12
        assert abs(form.k2 - math.sqrt(1.0 - k1 * k1)) < 1e-12


def test_schmidt_pair_rejects_out_of_range():
    with pytest.raises(ValidationError):
        schmidt_pair_state(0.5)
    with pytest.raises(ValidationError):
        schmidt_pair_state(1.1)
    with pytest.raises(ValidationError, match="must be an integer, got 2.0"):
        schmidt_pair_state(0.8, 2.0)
    with pytest.raises(ValidationError, match="k1 must be a real number, got True"):
        schmidt_pair_state(True)


def test_random_unitary_is_unitary():
    stream = RandomStream(34)
    for dim in (2, 3):
        for _ in range(20):
            u = random_unitary(dim, stream)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


BAD_SIZES = {
    "unitary dim 0": lambda stream: random_unitary(0, stream),
    "unitary dim -1": lambda stream: random_unitary(-1, stream),
    "unitary dim 2.0": lambda stream: random_unitary(2.0, stream),
    "unitary dim True": lambda stream: random_unitary(True, stream),
    "unitary n 2.5": lambda stream: random_unitary(2, stream, n=2.5),
    "haar dims (2, 3.0)": lambda stream: haar_random((2, 3.0), stream),
    "haar n 2.0": lambda stream: haar_random((2, 3), stream, n=2.0),
    "haar chunks n 0": lambda stream: haar_chunks((2, 3), stream, 0),
    "haar chunks n -3": lambda stream: haar_chunks((2, 3), stream, -3),
    "haar chunks n 2.5": lambda stream: haar_chunks((2, 3), stream, 2.5),
    "haar chunks n True": lambda stream: haar_chunks((2, 3), stream, True),
    "gaussian n 2.0": lambda stream: stream.next_gaussian(2.0),
    "gaussian n True": lambda stream: stream.next_gaussian(True),
    "verify n_states 2.5": lambda stream: run_verification(n_states=2.5),
    "verify n_states 0": lambda stream: run_verification(n_states=0),
}


@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_bad_sizes_are_rejected_before_any_draw(case):
    stream = RandomStream(3)
    with pytest.raises(ValidationError):
        BAD_SIZES[case](stream)
    assert stream.counter == 0


def test_numpy_integer_sizes_draw_like_ints():
    expected = random_unitary(3, RandomStream(8), n=4)
    assert np.array_equal(random_unitary(np.int64(3), RandomStream(8), n=np.int32(4)), expected)
    assert np.array_equal(haar_random((np.int64(2), np.int64(3)), RandomStream(8), n=np.int64(5))
                          .amplitudes, haar_random((2, 3), RandomStream(8), n=5).amplitudes)


def test_rotate_local_preserves_norm():
    stream = RandomStream(35)
    psi = haar_random((2, 3), stream)
    rotated = rotate_local(psi, random_unitary(2, stream),
                           random_unitary(3, stream))
    assert isinstance(rotated, PureState)
    assert abs(np.linalg.norm(rotated.vector()) - 1.0) < 1e-12
    # A unitary of the wrong shape is named, not left to NumPy's matmul.
    with pytest.raises(ValidationError, match=r"got shapes \(2, 2\) and \(2, 2\)"):
        rotate_local(psi, np.eye(2), np.eye(2))


@pytest.mark.parametrize(("u_a", "u_b", "name"), [
    ([[1, 0], [0, 2]], np.diag([1, 5, 7]), "u_a"),
    (np.eye(2), np.diag([1, 5, 7]), "u_b"),
    (np.eye(2), np.diag([1.0, 1.0, np.nan]), "u_b"),
    (np.eye(2), np.eye(3) * (1 + 1e-8), "u_b"),
], ids=["diag-1-2", "diag-1-5-7", "nan", "scaled"])
def test_rotate_local_rejects_non_unitary_matrices(u_a, u_b, name):
    # diag(1, 2) and diag(1, 5, 7) keep |00> a unit vector: PureState alone accepts the result.
    with pytest.raises(ValidationError, match=f"{name} is not unitary"):
        rotate_local(schmidt_pair_state(1.0), u_a, u_b)


def test_rotate_local_checks_every_unitary_of_a_stack():
    stream = RandomStream(36)
    u_a, u_b = random_unitary(2, stream, n=3), random_unitary(3, stream, n=3)
    stack = haar_random((2, 3), stream, n=3)
    rotate_local(stack, u_a, u_b)
    u_b[1] *= 1.5
    with pytest.raises(ValidationError, match="u_b is not unitary"):
        rotate_local(stack, u_a, u_b)
