"""Deterministic generators for random and canonical test states.

Everything here is a pure function of an explicit :class:`RandomStream`, so an
ensemble is reproducible from its seed alone and shards can be generated
independently by deriving per-shard streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .linalg import _complex_norms, require_finite
from .measures import PureState
from .rng import RandomStream

#: Tolerance on the norm of the factors passed to :func:`product_state`.
FACTOR_NORM_TOL = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def haar_random(dims: tuple[int, int], stream: RandomStream) -> PureState:
    """Uniform (unitarily invariant) random pure state of shape ``dims``.

    Each amplitude is an independent standard complex Gaussian (two stream
    draws, real part first, row-major order) and the grid is normalized as a
    whole; that construction is exactly the uniform measure on the unit
    sphere of the state space.
    """
    d_a, d_b = dims
    if d_a != 2 or d_b not in (2, 3):
        raise ValidationError(f"supported dims are (2, 2) and (2, 3), got {dims}")
    amp = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                    for _ in range(2 * d_b)])
    # _complex_norms makes the BLAS calls np.linalg.norm makes, for less overhead.
    return PureState(amp.reshape(2, d_b) / _complex_norms(amp))


def product_state(phi_a, phi_b) -> PureState:
    """Tensor product of a qubit vector and a qubit/qutrit vector."""
    a = require_finite(np.asarray(phi_a, dtype=complex), "phi_a")
    b = require_finite(np.asarray(phi_b, dtype=complex), "phi_b")
    if a.shape != (2,) or b.shape not in ((2,), (3,)):
        raise ValidationError(
            f"expected factor shapes (2,) and (2,) or (3,), got {a.shape}, {b.shape}"
        )
    for vec, name in ((a, "phi_a"), (b, "phi_b")):
        if abs(np.linalg.norm(vec) - 1.0) > FACTOR_NORM_TOL:
            raise ValidationError(f"{name} is not normalized")
    return PureState(np.outer(a, b))


def schmidt_pair_state(k1: float, d_b: int = 3) -> PureState:
    """Canonical state ``k1 |00> + sqrt(1 - k1**2) |11>``.

    Requires ``1/sqrt(2) <= k1 <= 1`` so the coefficients are already in
    descending order.
    """
    if not (_INV_SQRT2 - 1e-12 <= k1 <= 1.0 + 1e-12):
        raise ValidationError(f"k1 must lie in [1/sqrt(2), 1], got {k1!r}")
    if d_b not in (2, 3):
        raise ValidationError(f"d_b must be 2 or 3, got {d_b!r}")
    k1 = min(1.0, max(_INV_SQRT2, k1))
    amp = np.zeros((2, d_b), dtype=complex)
    amp[0, 0] = k1
    amp[1, 1] = math.sqrt(max(0.0, 1.0 - k1 * k1))
    return PureState(amp)


def random_unitary(dim: int, stream: RandomStream) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            z[i, j] = complex(stream.next_gaussian(), stream.next_gaussian())
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rotate_local(psi: PureState, u_a: np.ndarray, u_b: np.ndarray) -> PureState:
    """Apply the product unitary ``u_a (x) u_b`` to a pure state."""
    return PureState(u_a @ psi.amplitudes @ u_b.T)


class StateFamily(Enum):
    HAAR = "haar"
    PRODUCT = "product"
    MAXIMALLY_ENTANGLED = "maximally_entangled"
    SCHMIDT_PAIR = "schmidt_pair"


@dataclass(frozen=True)
class StateFamilySpec:
    """Recipe for one test state: a family plus its parameter, if any."""

    kind: StateFamily
    k1: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind is StateFamily.SCHMIDT_PAIR:
            if self.k1 is None:
                raise ValidationError("schmidt_pair requires k1")
            if not (_INV_SQRT2 - 1e-12 <= self.k1 <= 1.0 + 1e-12):
                raise ValidationError(f"k1 must lie in [1/sqrt(2), 1], got {self.k1!r}")


def make_state(spec: StateFamilySpec, stream: RandomStream | None = None,
               d_b: int = 3) -> PureState:
    """Realize a :class:`StateFamilySpec`; random kinds draw from ``stream``."""
    if spec.kind is StateFamily.SCHMIDT_PAIR:
        return schmidt_pair_state(spec.k1, d_b=d_b)
    if spec.kind is StateFamily.MAXIMALLY_ENTANGLED:
        return schmidt_pair_state(_INV_SQRT2, d_b=d_b)
    if stream is None:
        stream = RandomStream(spec.seed if spec.seed is not None else 0)
    if spec.kind is StateFamily.HAAR:
        return haar_random((2, d_b), stream)
    phi_a = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                      for _ in range(2)])
    phi_b = np.array([complex(stream.next_gaussian(), stream.next_gaussian())
                      for _ in range(d_b)])
    return product_state(phi_a / np.linalg.norm(phi_a),
                         phi_b / np.linalg.norm(phi_b))
