"""Deterministic generators for random and canonical test states.

Everything here is a pure function of an explicit :class:`RandomStream`, so an
ensemble is reproducible from its seed alone.  The states of one ensemble are
drawn from one stream in order; there is no split operation, so ensembles
generated side by side each need a seed of their own.
"""

from __future__ import annotations

import math

import numpy as np

from ._exact import unit
from .errors import ValidationError
from .linalg import (_require_array, _require_type, require_count, require_finite,
                     require_integer, require_real)
from .measures import SUPPORTED_DIMS, PureState
from .rng import RandomStream

#: Tolerance on the norm of the factors passed to :func:`product_state`.
FACTOR_NORM_TOL = 1e-9

#: Largest entry of ``|U U^H - I|`` that :func:`rotate_local` takes as unitary.
UNITARY_TOL = 1e-9

#: Random states that :func:`haar_chunks` draws, stacks and hands on at a
#: time (``ent23 sample`` and ``ent23 verify``).  No output depends on it: a
#: stacked call gives the same bits as one call per state.  Each stack pays a
#: fixed cost in NumPy calls (``verify`` checks 6 states in ~1.1 ms, 500 in
#: ~8 ms), and the memory it holds grows with it.  verify-suite, 20 s runs on
#: a 2-CPU VM, three at each size: 62.0k states/s at 250, 62.5k at 500, 67.3k
#: at 1000 and 70.2k at 2000, with peak RSS 39.9, 41.7, 44.3 and 47.8 MB.  500
#: is the largest of these that keeps peak RSS within 10 % of 250's.
CHUNK_STATES = 500

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _require_dims(dims) -> tuple[int, int]:
    """``dims`` as a pair of ints, one of :data:`~ent23.measures.SUPPORTED_DIMS`."""
    try:
        pair = tuple(require_integer(d, "dims entry") for d in dims)
    except TypeError:  # not iterable, like a bare 3
        pair = None
    if pair not in SUPPORTED_DIMS:
        raise ValidationError(f"supported dims are {' and '.join(map(str, SUPPORTED_DIMS))}, "
                              f"got {dims!r}")
    return pair


def _complex_gaussians(stream: RandomStream, count: int) -> np.ndarray:
    """``count`` standard complex Gaussians, each two stream draws, real part first."""
    return stream.next_gaussian(2 * count).view(complex)


def haar_random(dims: tuple[int, int], stream: RandomStream, n: int | None = None) -> PureState:
    """Uniform (unitarily invariant) random pure state of shape ``dims``, or a
    stack of ``n`` of them drawn one after another.

    Each amplitude is an independent standard complex Gaussian (row-major
    order) and each grid is normalized as a whole; that construction is
    exactly the uniform measure on the unit sphere of the state space.  A
    stack holds the bits of ``n`` one-state calls on the same stream and
    leaves the stream where they would.
    """
    d_b = _require_dims(dims)[1]
    count = 1 if n is None else require_count(n, "n")
    gaussians = _complex_gaussians(stream, 2 * d_b * count).reshape(count, 2 * d_b)
    grids = _haar_grids(gaussians)
    return PureState(grids if n is not None else grids[0])


def _haar_grids(gaussians: np.ndarray) -> np.ndarray:
    """The amplitude grids of :func:`haar_random` from a stack ``(N, 2 * d_b)``
    of its complex Gaussians."""
    return unit(gaussians).reshape(len(gaussians), 2, -1)


def haar_chunks(dims: tuple[int, int], stream: RandomStream, n: int):
    """The ``n`` states of ``haar_random(dims, stream, n)`` as stacks of at
    most :data:`CHUNK_STATES`, each drawn when the previous one is done with;
    ``n`` is checked at the call."""
    return (haar_random(dims, stream, size) for size in chunk_sizes(require_count(n, "n")))


def chunk_sizes(n: int):
    """Sizes of the stacks of at most :data:`CHUNK_STATES` that ``n`` draws are cut into."""
    for start in range(0, n, CHUNK_STATES):
        yield min(CHUNK_STATES, n - start)


def product_state(phi_a, phi_b) -> PureState:
    """Tensor product of a qubit vector and a qubit/qutrit vector, or of each
    pair of a stack of factors ``(N, 2)`` and ``(N, d_b)``."""
    a = require_finite(_require_array(phi_a, complex, "phi_a"), "phi_a")
    b = require_finite(_require_array(phi_b, complex, "phi_b"), "phi_b")
    if (a.shape[-1:] + b.shape[-1:] not in SUPPORTED_DIMS
            or a.shape[:-1] != b.shape[:-1] or a.ndim > 2):
        raise ValidationError(
            f"expected factor shapes (d_a,) and (d_b,), (d_a, d_b) one of {SUPPORTED_DIMS}, "
            f"each with the same optional leading stack axis; got {a.shape}, {b.shape}"
        )
    for vec, name in ((a, "phi_a"), (b, "phi_b")):
        with np.errstate(over="ignore"):  # a norm beyond the float range is inf, and fails
            norms = np.linalg.norm(vec, axis=-1)
        if np.any(abs(norms - 1.0) > FACTOR_NORM_TOL):
            raise ValidationError(f"{name} is not normalized")
    return PureState(a[..., :, None] * b[..., None, :])


def schmidt_pair_state(k1: float, d_b: int = 3) -> PureState:
    """Canonical state ``k1 |00> + sqrt(1 - k1**2) |11>``.

    Requires ``1/sqrt(2) <= k1 <= 1`` so the coefficients are already in
    descending order.
    """
    if not _INV_SQRT2 - 1e-12 <= require_real(k1, "k1") <= 1.0 + 1e-12:
        raise ValidationError(f"k1 must lie in [1/sqrt(2), 1], got {k1!r}")
    d_b = _require_dims((2, d_b))[1]
    k1 = min(1.0, max(_INV_SQRT2, k1))
    amp = np.zeros((2, d_b), dtype=complex)
    amp[0, 0] = k1
    amp[1, 1] = math.sqrt(max(0.0, 1.0 - k1 * k1))
    return PureState(amp)


def random_unitary(dim: int, stream: RandomStream, n: int | None = None) -> np.ndarray:
    """Haar-distributed unitary, or a stack ``(n, dim, dim)`` of them drawn one
    after another: QR of a complex Gaussian matrix, phases fixed.

    A stack holds the bits of ``n`` one-matrix calls on the same stream and
    leaves the stream where they would.
    """
    dim = require_count(dim, "dim")
    count = 1 if n is None else require_count(n, "n")
    unitaries = _haar_unitaries(_complex_gaussians(stream, count * dim * dim)
                               .reshape(count, dim, dim))
    return unitaries if n is not None else unitaries[0]


def _haar_unitaries(gaussians: np.ndarray) -> np.ndarray:
    """The unitaries of :func:`random_unitary` from a stack ``(N, dim, dim)`` of
    its complex Gaussian matrices, each drawn in row-major order."""
    q, r = np.linalg.qr(gaussians)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def rotate_local(psi: PureState, u_a: np.ndarray, u_b: np.ndarray) -> PureState:
    """Apply the product unitary ``u_a (x) u_b`` to a pure state; on a stack,
    unitaries ``(N, 2, 2)`` and ``(N, d_b, d_b)`` rotate each state with its own."""
    d_b = _require_type(psi, "psi", PureState).d_b
    u_a, u_b = _require_array(u_a, complex, "u_a"), _require_array(u_b, complex, "u_b")
    # The state and each unitary are one, or a stack; all stacks of one length.
    stacks = {psi.amplitudes.shape[:-2], u_a.shape[:-2], u_b.shape[:-2]} - {()}
    if u_a.shape[-2:] + u_b.shape[-2:] != (2, 2, d_b, d_b) or len(stacks) > 1:
        raise ValidationError(f"a (2, {d_b}) state takes unitaries (2, 2) and ({d_b}, {d_b}), "
                              f"or stacks of one length; got shapes {u_a.shape} and {u_b.shape}")
    for u, name in ((u_a, "u_a"), (u_b, "u_b")):
        # Entries that overflow (or make inf - inf) fail the test as inf or NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            error = abs(u @ np.conj(np.swapaxes(u, -1, -2)) - np.eye(u.shape[-1]))
        if not np.all(error <= UNITARY_TOL):  # so that a NaN entry fails too
            raise ValidationError(f"{name} is not unitary: some entry of |U U^H - I| "
                                  f"exceeds {UNITARY_TOL}")
    return PureState(u_a @ psi.amplitudes @ np.swapaxes(u_b, -1, -2))
