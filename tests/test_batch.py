"""A stack of states gives, element for element, the bits of one call per state."""

import dataclasses
import hashlib
import math
import os
import threading
import time

import numpy as np
import pytest

import ent23.measures
import ent23.sampling
import ent23.verify
from ent23 import (
    CoherenceDecomposition,
    DensityMatrix,
    EntanglementReport,
    PureState,
    RandomStream,
    ValidationError,
    binary_entropy,
    concurrence_amplitudes,
    concurrence_bloch,
    concurrence_schmidt,
    decompose,
    eof_from_concurrence,
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
    schmidt_pair_state,
    von_neumann_entropy,
)
from ent23._exact import dot
from ent23.linalg import require_finite
from ent23.sampling import _complex_gaussians, chunk_sizes

FIELDS = [field.name for field in dataclasses.fields(EntanglementReport)]
SCHMIDT_GRID = (1.0 / math.sqrt(2.0), 0.75, math.sqrt(3.0) / 2.0, 0.9, 0.97, 1.0)


def unit(vec):
    return vec / np.linalg.norm(vec)


def family_stack(d_b, seed=2006):
    """Every branch of the kernels in one stack: Haar, product (k2 flush and
    orthonormal extension), near-product, rotated Bell (degenerate qubit
    spectrum) and the two-term grid including the product point k1 = 1."""
    stream = RandomStream(seed)
    gauss = lambda n: np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                                for _ in range(n)])
    states = [haar_random((2, d_b), stream) for _ in range(40)]
    states += [product_state(unit(gauss(2)), unit(gauss(d_b))) for _ in range(10)]
    states.append(product_state(np.array([1, 0]), np.eye(d_b)[0]))
    states.append(product_state(np.array([0, 1]), np.eye(d_b)[1]))
    for exponent in range(2, 10):
        k2 = 10.0 ** -exponent
        states.append(rotate_local(schmidt_pair_state(math.sqrt(1.0 - k2 * k2), d_b),
                                   random_unitary(2, stream), random_unitary(d_b, stream)))
    for _ in range(5):
        states.append(rotate_local(schmidt_pair_state(SCHMIDT_GRID[0], d_b),
                                   random_unitary(2, stream), random_unitary(d_b, stream)))
    states += [schmidt_pair_state(k1, d_b) for k1 in SCHMIDT_GRID]
    return states


def same_bits(a, b):
    """Equal shape, dtype and bytes; ``np.array_equal`` would not tell -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d_b", (2, 3))
def test_stacked_full_report_equals_per_state_calls(d_b):
    states = family_stack(d_b)
    stacked = full_report(PureState(np.stack([psi.amplitudes for psi in states])))
    for index, psi in enumerate(states):
        single = full_report(psi)
        for name in FIELDS:
            value = getattr(single, name)
            assert type(value) is float
            assert same_bits(getattr(stacked, name)[index], value), (name, index)


@pytest.mark.parametrize("d_b", (2, 3))
def test_stacked_schmidt_form_equals_per_state_calls(d_b):
    states = family_stack(d_b)
    stacked = schmidt_decompose(PureState(np.stack([psi.amplitudes for psi in states])))
    flushed = 0
    for index, psi in enumerate(states):
        single = schmidt_decompose(psi)
        assert same_bits(stacked.k1[index], single.k1)
        assert same_bits(stacked.k2[index], single.k2)
        flushed += single.k2 == 0.0
        for name in ("x1", "x2", "y1", "y2"):
            assert same_bits(getattr(stacked, name)[index], getattr(single, name)), (name, index)
    assert flushed >= 12  # the product states and k1 = 1 take the flush branch


@pytest.mark.parametrize("d_b", (2, 3))
def test_stacked_routes_equal_per_state_calls(d_b):
    states = family_stack(d_b)
    stack = PureState(np.stack([psi.amplitudes for psi in states]))
    c_amp = concurrence_amplitudes(stack)
    c_blo = concurrence_bloch(stack)
    c_sch = concurrence_schmidt(schmidt_decompose(stack))
    for index, psi in enumerate(states):
        assert same_bits(c_amp[index], concurrence_amplitudes(psi))
        assert same_bits(c_blo[index], concurrence_bloch(psi))
        assert same_bits(c_sch[index], concurrence_schmidt(schmidt_decompose(psi)))
        # full_report hands the Bloch route the codec output it already holds
        assert same_bits(full_report(psi).c_bloch, concurrence_bloch(psi))


def test_stacked_codec_and_reduced_state_equal_per_state_calls():
    states = family_stack(3)
    rho = PureState(np.stack([psi.amplitudes for psi in states])).density()
    coeffs = decompose(rho)
    rho_a = reduced_a(rho)
    rho_b = reduced_b(rho)
    entropies = von_neumann_entropy(rho_a)
    entropies_b = von_neumann_entropy(rho_b)
    rebuilt = reconstruct(coeffs)
    v_squared = dot(coeffs.v, coeffs.v)
    # The stacked v·v of a differently laid out v differs in its last bits.
    for index, psi in enumerate(states):
        single = psi.density()
        assert same_bits(rho.matrix[index], single.matrix)
        one = decompose(single)
        for name in ("u", "v", "beta"):
            assert same_bits(getattr(coeffs, name)[index], getattr(one, name))
        assert same_bits(v_squared[index], dot(one.v, one.v))
        assert same_bits(rebuilt[index], reconstruct(one))
        assert same_bits(rho_a.matrix[index], reduced_a(single).matrix)
        assert same_bits(rho_b.matrix[index], reduced_b(single).matrix)
        assert same_bits(entropies[index], von_neumann_entropy(reduced_a(single)))
        assert same_bits(entropies_b[index], von_neumann_entropy(reduced_b(single)))


@pytest.mark.parametrize("d_b", (2, 3))
def test_stacked_haar_draw_equals_per_state_draws(d_b):
    stacked_stream, single_stream = RandomStream(2006), RandomStream(2006)
    stack = haar_random((2, d_b), stacked_stream, n=37)
    singles = [haar_random((2, d_b), single_stream) for _ in range(37)]
    assert stack.amplitudes.shape == (37, 2, d_b)
    assert same_bits(stack.amplitudes, np.stack([psi.amplitudes for psi in singles]))
    assert stacked_stream.counter == single_stream.counter == 37 * 8 * d_b
    assert haar_random((2, d_b), RandomStream(5)).amplitudes.shape == (2, d_b)
    with pytest.raises(ValidationError):
        haar_random((2, d_b), RandomStream(5), n=0)


@pytest.mark.parametrize("dim", (2, 3))
def test_stacked_unitary_draw_equals_per_matrix_draws(dim):
    stacked_stream, single_stream = RandomStream(2006), RandomStream(2006)
    stack = random_unitary(dim, stacked_stream, n=37)
    singles = [random_unitary(dim, single_stream) for _ in range(37)]
    assert stack.shape == (37, dim, dim)
    assert same_bits(stack, np.stack(singles))
    assert stacked_stream.counter == single_stream.counter == 37 * 4 * dim * dim
    with pytest.raises(ValidationError):
        random_unitary(dim, RandomStream(5), n=0)


@pytest.mark.parametrize("d_b", (2, 3))
def test_stacked_rotation_and_product_equal_per_state_calls(d_b):
    states = family_stack(d_b)
    stream = RandomStream(17)
    u_a = [random_unitary(2, stream) for _ in states]
    u_b = [random_unitary(d_b, stream) for _ in states]
    stack = PureState(np.stack([psi.amplitudes for psi in states]))
    rotated = rotate_local(stack, np.stack(u_a), np.stack(u_b))
    for index, psi in enumerate(states):
        one = rotate_local(psi, u_a[index], u_b[index])
        assert same_bits(rotated.amplitudes[index], one.amplitudes)
    phi_a = np.stack([unit(u[:, 0]) for u in u_a])
    phi_b = np.stack([unit(u[:, 1]) for u in u_b])
    products = product_state(phi_a, phi_b)
    for index in range(len(states)):
        one = product_state(phi_a[index], phi_b[index])
        assert same_bits(products.amplitudes[index], one.amplitudes)
    with pytest.raises(ValidationError):
        product_state(phi_a, phi_b[:-1])


def outcome_bits(outcome):
    return ([(c.name, repr(c.max_error), repr(c.tolerance)) for c in outcome.checks],
            {key: repr(value) for key, value in outcome.observations.items()})


def test_verification_outcome_does_not_depend_on_chunk_size(monkeypatch):
    # Chunks of 1 and 7 cut the Haar ensemble and the 41 rotation pairs into
    # several stacks, the last one short.
    default = outcome_bits(run_verification(n_states=41, seed=23))
    for chunk in (1, 7):
        monkeypatch.setattr(ent23.sampling, "CHUNK_STATES", chunk)
        assert outcome_bits(run_verification(n_states=41, seed=23)) == default, chunk
    # Chunks of 250 and 500 cut 1001 states and the 1000 rotation pairs into
    # full stacks of either size, the Haar ensemble with a one-state remainder.
    outcomes = []
    for chunk in (250, 500):
        monkeypatch.setattr(ent23.sampling, "CHUNK_STATES", chunk)
        outcomes.append(outcome_bits(run_verification(n_states=1001, seed=23)))
    assert outcomes[0] == outcomes[1]


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls this process makes, counted."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


# At most 5 processes: the caller and 4 forked children.
@pytest.mark.parametrize("n_states, chunk", ((1, 500), (41, 7), (1001, 500), (4000, 500)))
def test_verification_outcome_does_not_depend_on_the_cpu_count(monkeypatch, forks, n_states,
                                                                chunk):
    monkeypatch.setattr(ent23.sampling, "CHUNK_STATES", chunk)
    outcomes = []
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(ent23.verify, "_cpu_count", lambda: cpus)
        forks.clear()
        outcomes.append(outcome_bits(run_verification(n_states=n_states, seed=29)))
        units = ent23.verify._units(n_states)
        assert len(forks) == min(cpus, len(units) - 1) - 1
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@pytest.mark.parametrize("n_states, chunk", ((1, 500), (41, 7), (1001, 500), (4000, 500)))
def test_each_unit_starts_at_the_serial_streams_counter(monkeypatch, n_states, chunk):
    # The serial run's draws, one unit after another on one stream: the Haar
    # chunks, the families' unitaries and product factors, the rotation chunks.
    monkeypatch.setattr(ent23.sampling, "CHUNK_STATES", chunk)
    stream = RandomStream(29)
    starts = []
    for size in chunk_sizes(n_states):
        starts.append(stream.counter)
        haar_random((2, 3), stream, size)
    starts.append(stream.counter)
    for _ in range(5):
        random_unitary(2, stream)
        random_unitary(3, stream)
    _complex_gaussians(stream, 5 * 50)
    for size in chunk_sizes(min(n_states, 1000)):
        starts.append(stream.counter)
        _complex_gaussians(stream, 19 * size)
    assert [unit.counter for unit in ent23.verify._units(n_states)] == starts


def test_a_nan_in_a_childs_units_fails_its_check(monkeypatch):
    caller = os.getpid()

    def nan_in_a_child(form):
        c = concurrence_schmidt(form)
        return c if os.getpid() == caller else np.full_like(c, np.nan)

    monkeypatch.setattr(ent23.measures, "concurrence_schmidt", nan_in_a_child)
    monkeypatch.setattr(ent23.verify, "_cpu_count", lambda: 2)
    outcome = run_verification(n_states=1001, seed=1)
    assert math.isnan(outcome.check("concurrence-amplitude-vs-schmidt").max_error)
    assert not outcome.check("concurrence-amplitude-vs-schmidt").passed
    assert outcome.check("concurrence-amplitude-vs-bloch").passed
    # In one process the patch never sees a child, and every check passes.
    monkeypatch.setattr(ent23.verify, "_cpu_count", lambda: 1)
    assert run_verification(n_states=1001, seed=1).overall


def child_raises(stream, size, worst):
    raise ValidationError("a rotation chunk failed")


class Unpicklable(ValidationError):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # a lambda does not pickle


def child_raises_what_does_not_pickle(stream, size, worst):
    raise Unpicklable("a rotation chunk failed")


def child_dies(stream, size, worst):
    os._exit(3)


@pytest.mark.parametrize("fail, error, message", (
    (child_raises, ValidationError, "^a rotation chunk failed$"),
    (child_raises_what_does_not_pickle, RuntimeError, "^Unpicklable: a rotation chunk failed$"),
    (child_dies, RuntimeError, r"sent no result \(wait status 768\)"),
), ids=("raises", "raises-unpicklable", "dies"))
def test_a_child_that_fails_fails_the_call_and_every_child_is_reaped(monkeypatch, fail, error,
                                                                      message):
    caller = os.getpid()
    rotation_unit = ent23.verify._rotation_unit

    def fail_in_a_child(stream, size, worst):
        if os.getpid() == caller:
            return rotation_unit(stream, size, worst)
        return fail(stream, size, worst)

    monkeypatch.setattr(ent23.verify, "_rotation_unit", fail_in_a_child)
    monkeypatch.setattr(ent23.verify, "_cpu_count", lambda: 3)
    with pytest.raises(error, match=message) as raised:
        run_verification(n_states=1001, seed=1)
    assert type(raised.value) is error
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_error_in_the_callers_share_kills_and_reaps_every_child(monkeypatch):
    caller = os.getpid()
    haar_unit = ent23.verify._haar_unit

    def stall_in_a_child(stream, size, worst):
        if os.getpid() != caller:
            time.sleep(60)
        return haar_unit(stream, size, worst)

    def fail_here(stream, size, worst):
        raise ValidationError("the families failed")

    monkeypatch.setattr(ent23.verify, "_haar_unit", stall_in_a_child)
    monkeypatch.setattr(ent23.verify, "_family_unit", fail_here)
    monkeypatch.setattr(ent23.verify, "_cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(ValidationError, match="^the families failed$"):
        run_verification(n_states=1001, seed=1)
    assert time.monotonic() - start < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verification_forks_no_child_where_forking_is_unsafe(monkeypatch, forks):
    monkeypatch.setattr(ent23.verify, "_cpu_count", lambda: 2)
    expected = outcome_bits(run_verification(n_states=1001, seed=5))
    assert len(forks) == 1
    forks.clear()
    # Another thread runs: a forked child would hold a copy of its locks.
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert outcome_bits(run_verification(n_states=1001, seed=5)) == expected
    finally:
        done.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    # No os.fork on this platform.
    monkeypatch.delattr(os, "fork")
    assert outcome_bits(run_verification(n_states=1001, seed=5)) == expected
    assert forks == []


def test_one_stack_of_families_records_what_one_stack_per_family_records():
    # verify's families with its masks: a Haar chunk and rotated maximally
    # entangled states take every comparison, the two-term grid all but its
    # rank-1 endpoint, and product states only the robust ones.
    stream = RandomStream(61)
    grid = np.array(SCHMIDT_GRID)
    factors = [random_unitary(dim, stream, n=20)[..., 0] for dim in (2, 3)]
    families = [
        (haar_random((2, 3), stream, n=30).amplitudes, True),
        (rotate_local(schmidt_pair_state(SCHMIDT_GRID[0]), random_unitary(2, stream, n=5),
                      random_unitary(3, stream, n=5)).amplitudes, True),
        (np.stack([schmidt_pair_state(k1).amplitudes for k1 in SCHMIDT_GRID]), grid < 1.0),
        (product_state(*factors).amplitudes, False),
    ]
    per_family = dict.fromkeys(ent23.verify.CHECK_NAMES, 0.0)
    parts = [ent23.verify._check_stack(PureState(amplitudes), per_family, amplified)
             for amplitudes, amplified in families]
    stacked = dict.fromkeys(ent23.verify.CHECK_NAMES, 0.0)
    report, purity = ent23.verify._check_stack(
        PureState(np.concatenate([amplitudes for amplitudes, _ in families])), stacked,
        np.concatenate([np.broadcast_to(amplified, len(amplitudes))
                        for amplitudes, amplified in families]))
    assert {name: float.hex(value) for name, value in stacked.items()} == {
        name: float.hex(value) for name, value in per_family.items()}
    assert stacked["concurrence-amplitude-vs-bloch"] > 0.0
    start = 0
    for part_report, part_purity in parts:
        rows = slice(start, start + len(part_purity))
        for name in FIELDS:
            assert same_bits(getattr(report, name)[rows], getattr(part_report, name)), name
        assert same_bits(purity[rows], part_purity)
        start = rows.stop
    assert start == len(purity)


def test_stacked_eig2_covers_zero_and_degenerate_matrices():
    rng = np.random.default_rng(5)
    matrices = [np.zeros((2, 2)), np.eye(2) / 2, np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        matrices.append(0.5 * (m + m.conj().T))
    stack = np.stack(matrices).astype(complex)
    values = hermitian_eig2(stack)
    vec_values, vectors = hermitian_eigvecs2(stack)
    for index, m in enumerate(matrices):
        assert same_bits(values[index], hermitian_eig2(m))
        one_values, one_vectors = hermitian_eigvecs2(m)
        assert same_bits(vec_values[index], one_values)
        assert same_bits(vectors[index], one_vectors)
    assert hermitian_eig2(np.zeros((2, 2))) == (0.0, 0.0)
    assert same_bits(vectors[1], np.eye(2, dtype=complex))


def eig2_inputs():
    """The qubit reduced matrices of both family stacks, one at a time and as
    one stack, and stacks of four of them with one extreme (entries ~1e±170,
    solved scaled) or degenerate matrix put first, second or last."""
    qubit = [m for d_b in (2, 3)
             for m in reduced_a(PureState(np.stack([psi.amplitudes for psi in family_stack(d_b)]))
                                .density()).matrix]
    odd = [np.diag([1.0, 2.0]) * 1e170, np.diag([1.0, 2.0]) * 1e-170,
           np.full((2, 2), 0.5e170), np.eye(2) / 2, np.diag([0.5 + 4e-13, 0.5 - 4e-13])]
    inputs = qubit + [np.stack(qubit)] + [m.astype(complex) for m in odd]
    for m in odd:
        inputs += [np.insert(np.stack(qubit[:4]), at, m, axis=0) for at in (0, 1, 4)]
    return inputs


#: sha256 of every output of :func:`hermitian_eig2` and :func:`hermitian_eigvecs2`
#: on :func:`eig2_inputs`, recorded before the unscaled solvers stopped calling
#: ``np.ldexp`` and assigning the degenerate basis through an all-false mask.
EIG2_DIGEST = "d8f0f4f5bdeee08855957fb7f5c569a7e5ee89ac2c033644f0fe03d368e5abed"


def test_eig2_and_eigvecs2_outputs_match_recorded_digest():
    digest = hashlib.sha256()
    for m in eig2_inputs():
        values = hermitian_eig2(m)
        assert type(values) is (tuple if m.ndim == 2 else np.ndarray)
        for out in (values, *hermitian_eigvecs2(m)):
            digest.update(repr(np.shape(out)).encode() + np.asarray(out).tobytes())
    assert digest.hexdigest() == EIG2_DIGEST


#: sha256 of every field of the one-state :func:`full_report` and
#: :func:`schmidt_decompose` (``k1``, ``k2``, ``x1``, ``x2``, ``y1``, ``y2``) of each
#: state of both family stacks, recorded before the Schmidt route passed its
#: matrix to the eigensolver unchecked and built the eigenvectors from fewer
#: NumPy calls.  Stacked-vs-one-state equality alone would pass a change that
#: moved both sides.
ONE_STATE_DIGEST = "b92d19533b8af0b095193b0f92641aa2443197bc8eeab08f92a8bbff59348b28"


def test_one_state_report_and_schmidt_form_match_recorded_digest():
    digest = hashlib.sha256()
    for d_b in (2, 3):
        for psi in family_stack(d_b):
            report, form = full_report(psi), schmidt_decompose(psi)
            for out in ([getattr(report, name) for name in FIELDS]
                        + [getattr(form, name) for name in ("k1", "k2", "x1", "x2", "y1", "y2")]):
                digest.update(repr(np.shape(out)).encode() + np.asarray(out).tobytes())
    assert digest.hexdigest() == ONE_STATE_DIGEST


def eig3_matrices():
    """I/3 (p2 == 0), the rank-one partner matrices of product states
    (big == 0), every reduced_b of the family stack, and random matrices."""
    matrices = [np.eye(3) / 3, np.zeros((3, 3)), np.diag([0.5, 0.5, 0.0])]
    products = product_state(np.eye(2)[[0, 1, 0]], np.eye(3)[[0, 1, 2]])
    for psi in (products, PureState(np.stack([psi.amplitudes for psi in family_stack(3)]))):
        matrices.extend(reduced_b(psi.density()).matrix)
    rng = np.random.default_rng(9)
    matrices += list(rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3)))
    return [0.5 * (m + m.conj().T) for m in matrices]


#: sha256 of the eigenvalues of :func:`eig3_matrices` as float64 bytes, from
#: one call per matrix of the solver that predates the stacked one.
EIG3_DIGEST = "a390202d34681a91a41bd401c847f917ada48d08ad4f275adbd9a0ee545c49d4"


def test_stacked_eig3_equals_per_matrix_calls():
    matrices = eig3_matrices()
    values = hermitian_eig3(np.stack(matrices).astype(complex))
    assert values.shape == (len(matrices), 3)
    for index, m in enumerate(matrices):
        assert same_bits(values[index], hermitian_eig3(m)), index
    assert hashlib.sha256(values.tobytes()).hexdigest() == EIG3_DIGEST
    assert hermitian_eig3(np.eye(3) / 3) == (1 / 3, 1 / 3, 1 / 3)


def test_elementwise_entropies_equal_scalar_calls():
    xs = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-300, 1.0 - 1e-16]])
    assert same_bits(binary_entropy(xs), [binary_entropy(float(x)) for x in xs])
    assert same_bits(eof_from_concurrence(xs), [eof_from_concurrence(float(x)) for x in xs])
    assert type(eof_from_concurrence(0.5)) is float


def test_stack_with_one_unnormalized_state_is_rejected():
    amps = np.stack([psi.amplitudes for psi in family_stack(3)])
    amps[7] *= 1.001
    with pytest.raises(ValidationError, match="item 7"):
        PureState(amps)


def test_stack_with_one_nan_is_rejected():
    amps = np.stack([psi.amplitudes for psi in family_stack(2)])
    amps[3, 1, 0] = complex(np.nan, 0.0)
    with pytest.raises(ValidationError):
        PureState(amps)


def test_stacked_density_checks_every_matrix():
    good = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
    DensityMatrix(good)
    for bad in (np.diag([1.5, -0.5]), np.diag([0.6, 0.6]), np.array([[0.5, 0.1], [0.0, 0.5]])):
        with pytest.raises(ValidationError):
            DensityMatrix(np.concatenate([good, bad[None]]))


@pytest.mark.parametrize("shape", ((3, 3), (4, 3, 3), (4, 2, 4), (0, 2, 3), (2, 2, 2, 3)))
def test_unsupported_shapes_are_rejected(shape):
    with pytest.raises(ValidationError):
        PureState(np.ones(shape) / math.sqrt(max(1, np.prod(shape[-2:]))))


@pytest.mark.parametrize("call", (
    lambda: PureState([["a", "b"], ["c", "d"]]),
    lambda: PureState([[1.0, 0.0, 0.0], [0.0, 0.0]]),
    lambda: DensityMatrix([["a", "b"], ["c", "d"]]),
    lambda: hermitian_eig2([[1.0, 0.0], [0.0]]),
    lambda: hermitian_eig3([["a"] * 3] * 3),
    lambda: hermitian_eigvecs2([[1.0, None], ["x", 1.0]]),
    lambda: product_state("ab", [1.0, 0.0, 0.0]),
    lambda: CoherenceDecomposition("abc", np.zeros(8), np.zeros((3, 8))),
    lambda: binary_entropy("x"),
    lambda: eof_from_concurrence([0.1, [0.2]]),
    lambda: rotate_local(schmidt_pair_state(1.0), [["a", "b"], ["c", "d"]], np.eye(3)),
    # Numeric text, which NumPy parses where a dtype is asked for.
    lambda: binary_entropy(b"0.3"),
    lambda: eof_from_concurrence("0.5"),
    lambda: PureState([["1", "0", "0"], ["0", "0", "0"]]),
    lambda: DensityMatrix([["1", "0"], ["0", "0"]]),
    lambda: CoherenceDecomposition(["0", "0", "0"], np.zeros(8), np.zeros((3, 8))),
    lambda: hermitian_eig2([["1", "0"], ["0", "1"]]),
    lambda: product_state(["1", "0"], [1.0, 0.0, 0.0]),
    lambda: rotate_local(schmidt_pair_state(1.0), [["1", "0"], ["0", "1"]], np.eye(3)),
    # Python ints beyond the float range, which NumPy holds as objects.
    lambda: PureState([[10 ** 400, 0, 0], [0, 0, 0]]),
    lambda: DensityMatrix([[10 ** 400, 0], [0, 0]]),
    lambda: CoherenceDecomposition([10 ** 400, 0, 0], np.zeros(8), np.zeros((3, 8))),
    lambda: decompose([[10 ** 400] * 6] * 6),
    lambda: hermitian_eig2([[10 ** 400, 0], [0, 1]]),
    lambda: binary_entropy(10 ** 400),
    lambda: product_state([10 ** 400, 0], [1.0, 0.0, 0.0]),
    lambda: rotate_local(schmidt_pair_state(1.0), [[-10 ** 400, 0], [0, 1]], np.eye(3)),
    # None, which NumPy made a NaN where a float was asked for, and a ragged
    # list reaching require_finite.
    lambda: eof_from_concurrence(None),
    lambda: require_finite([[1, 2], [3]]),
), ids=("pure-text", "pure-ragged", "density-text", "eig2-ragged", "eig3-text",
        "eigvecs2-text", "product-text", "coherence-text", "entropy-text", "eof-ragged",
        "rotate-text", "entropy-numeric-bytes", "eof-numeric-text", "pure-numeric-text",
        "density-numeric-text", "coherence-numeric-text", "eig2-numeric-text",
        "product-numeric-text", "rotate-numeric-text", "pure-big-int", "density-big-int",
        "coherence-big-int", "decompose-big-int", "eig2-big-int", "entropy-big-int",
        "product-big-int", "rotate-big-int", "eof-none", "require-finite-ragged"))
def test_non_numeric_or_ragged_input_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="not a rectangular array of numbers"):
        call()


def test_nan_error_fails_its_check(monkeypatch):
    def nan_on_second(form):
        c = concurrence_schmidt(form)
        return np.where(np.arange(len(c)) == 1, np.nan, c)

    monkeypatch.setattr(ent23.measures, "concurrence_schmidt", nan_on_second)
    outcome = run_verification(n_states=5, seed=1)
    assert math.isnan(outcome.check("concurrence-amplitude-vs-schmidt").max_error)
    assert not outcome.check("concurrence-amplitude-vs-schmidt").passed
    assert outcome.check("concurrence-amplitude-vs-bloch").passed
