"""SU(2)/SU(3) generator tables and the coherence-vector codec.

Conventions, all of which downstream signs depend on:

- Both generator families are normalized to ``tr(g_i g_j) = 2 delta_ij``.
- The composite index of the qubit-qutrit space is ``3*i + j`` for qubit
  level ``i`` and qutrit level ``j`` (qubit-major, row-major).
- A 6x6 Hermitian unit-trace matrix ``rho`` is encoded as the real
  coefficients ``u`` (length 3), ``v`` (length 8) and ``beta`` (3x8)::

      u_i     = tr(rho . sigma_i x I)
      v_j     = (sqrt(3)/2) tr(rho . I x lambda_j)
      beta_ij = (3/2) tr(rho . sigma_i x lambda_j)

  and decoded as::

      rho = (1/6) (I x I + sum_i u_i sigma_i x I
                   + sqrt(3) sum_j v_j I x lambda_j
                   + sum_ij beta_ij sigma_i x lambda_j)

  Note the asymmetry: the sqrt(3) weight sits on the qutrit term only.  With
  these scalings encode/decode are exact inverses, and the reduced matrices
  are ``rho_A = (I + sum u_i sigma_i)/2`` and
  ``rho_B = (I + sqrt(3) sum v_j lambda_j)/3``.

Sparse codec.  Each of the 35 operators ``sigma_i x I``, ``I x lambda_j``
and ``sigma_i x lambda_j`` has at most six nonzero entries of 36, so the codec
reads index/value tables built once at import (``_sum_table``) and adds only
the nonzero terms (``_gather_sum``).  ``_ENCODE`` gives, for each coefficient
trace, the positions ``x = 6a + b`` of ``rho`` and the weights ``op[b, a]``;
``_DECODE_U``, ``_DECODE_V`` and ``_DECODE_BETA`` give, for each entry
``6a + b`` of the rebuilt matrix, the coefficients ``k`` and the weights
``op_k[a, b]`` of one group.  Terms are added in the order ``einsum`` adds
them, so every bit matches the dense ``einsum`` codec (why, in
:mod:`ent23._exact`).

The decoder accepts arbitrary finite coefficients; the affine map above is a
bijection on Hermitian unit-trace matrices, not on physical states, so its
output is a plain array and positivity is checked only where a
:class:`DensityMatrix` is actually constructed.

Positivity certificate.  :class:`DensityMatrix` accepts a matrix ``M`` when
the smallest eigenvalue LAPACK ``eigvalsh`` computes is at least
:data:`DENSITY_EIGENVALUE_FLOOR`.  Before that it runs one Cholesky
factorization of the whole stack ``A = M + s I`` with
``s = -DENSITY_EIGENVALUE_FLOOR - 1e-12``; if it completes, every matrix is
accepted and ``eigvalsh`` does not run.  Otherwise ``eigvalsh`` runs on the
stack and decides, so every rejection, its message and its item index are
those of ``eigvalsh`` alone.  A completed factorization never accepts a
matrix that ``eigvalsh`` would reject:

- ``eigvalsh`` (``UPLO='L'``) and ``cholesky`` (lower) both read the
  Hermitian matrix formed from the lower triangle of ``M``, whose trace is
  the real part of ``tr(M)``.
- If ``zpotrf`` completes on ``A`` with factor ``R``, then
  ``A + dA = R* R`` with ``|dA| <= g |R*| |R|``, where ``g`` is
  ``gamma_{d+1}`` (Higham, *Accuracy and Stability of Numerical
  Algorithms*, 2nd ed., Thm 10.3), a few times larger in complex
  arithmetic: below 1e-14 for ``d <= 6``.  Hence
  ``||dA||_2 <= g ||R||_F**2``, and taking traces of the same relation gives
  ``||R||_F**2 <= tr(A) / (1 - g)``.  No bound on the size of the entries
  is needed.
- The trace check has already bounded ``tr(A)`` by ``1 + 7e-10``, so
  ``||dA||_2`` is ~1e-14 at most, far below the 1e-12 margin, and
  ``lambda_min(M) > -s - ||dA||_2 > DENSITY_EIGENVALUE_FLOOR + 9e-13``.
- Then ``||M||_2`` is about 1, and ``eigvalsh``'s error, a small multiple
  of ``d eps ||M||_2``, cannot take its smallest eigenvalue below the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .linalg import _require_stack, _worst, require_finite, require_hermitian

#: Validation tolerances for density matrices.
DENSITY_HERMITICITY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIGENVALUE_FLOOR = -1e-10

#: Largest imaginary part tolerated in a coefficient trace before the input
#: is declared inconsistent (a non-Hermitian matrix slipped through).
TRACE_IMAG_TOL = 1e-10

_SQRT3 = math.sqrt(3.0)


def _constant(rows) -> np.ndarray:
    arr = np.array(rows, dtype=complex)
    arr.setflags(write=False)
    return arr


#: Pauli matrices sigma_1, sigma_2, sigma_3.
PAULI = (
    _constant([[0, 1], [1, 0]]),
    _constant([[0, -1j], [1j, 0]]),
    _constant([[1, 0], [0, -1]]),
)

#: Gell-Mann matrices lambda_1 .. lambda_8 in the standard convention.
GELL_MANN = (
    _constant([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
    _constant([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
    _constant([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
    _constant([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
    _constant([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
    _constant([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
    _constant([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    _constant(np.diag([1, 1, -2]) / _SQRT3),
)

_ID2 = np.eye(2, dtype=complex)
_ID3 = np.eye(3, dtype=complex)
_ID6 = np.eye(6, dtype=complex)

# s I of the positivity certificate (module notes), per dimension.
_CERTIFICATE_SHIFTS = {d: (-DENSITY_EIGENVALUE_FLOOR - 1e-12) * np.eye(d) for d in (2, 3, 6)}

# Stacked tensor-product operator tables, built once at import.
_QUBIT_OPS = np.stack([np.kron(s, _ID3) for s in PAULI])                 # (3, 6, 6)
_QUTRIT_OPS = np.stack([np.kron(_ID2, g) for g in GELL_MANN])            # (8, 6, 6)
_PAIR_OPS = np.stack([np.stack([np.kron(s, g) for g in GELL_MANN])
                      for s in PAULI])                                   # (3, 8, 6, 6)


def _sum_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(index, value)`` table of :func:`_gather_sum` for ``weights[j, x]``,
    the weight of input ``x`` in output ``j``: row ``t`` holds each output's
    ``t``-th nonzero weight and its input, in ascending ``x``; zeros pad the end."""
    nonzero = weights != 0
    index = np.argsort(~nonzero, axis=-1, kind="stable")[:, :nonzero.sum(axis=-1).max()]
    return index.T.copy(), np.take_along_axis(weights, index, axis=-1).T.copy()


# Sparse codec tables (module notes): the 35 coefficient traces read
# rho[a, b] * op[b, a] at x = 6a + b; each group of the decoder reads
# c_k * op_k[a, b] per entry 6a + b.
_ENCODE = _sum_table(np.concatenate((_QUBIT_OPS, _QUTRIT_OPS, _PAIR_OPS.reshape(24, 6, 6)))
                     .transpose(0, 2, 1).reshape(35, 36))
_DECODE_U, _DECODE_V, _DECODE_BETA = (_sum_table(ops.reshape(-1, 36).T)
                                      for ops in (_QUBIT_OPS, _QUTRIT_OPS, _PAIR_OPS))
for _arr in (_QUBIT_OPS, _QUTRIT_OPS, _PAIR_OPS, *_CERTIFICATE_SHIFTS.values(),
             *_ENCODE, *_DECODE_U, *_DECODE_V, *_DECODE_BETA):
    _arr.setflags(write=False)


def _gather_sum(x: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``sum_t x[..., index[t]] * value[t]`` for ``table = (index, value)``,
    added left to right from 0.0, as ``einsum`` adds the nonzero terms."""
    total = 0.0
    for index, value in zip(*table):
        total = total + x.take(index, axis=-1) * value
    return total


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of dimension 2, 3 or 6.

    ``matrix`` may also be a stack ``(N, d, d)``; every check then runs on
    every matrix of the stack.  Positivity means a smallest ``eigvalsh``
    eigenvalue of at least :data:`DENSITY_EIGENVALUE_FLOOR`; a shifted
    Cholesky factorization certifies it first, and ``eigvalsh`` runs only on
    a stack that the factorization does not certify (see the module notes).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _require_stack(self.matrix, ((2, 2), (3, 3), (6, 6)), "density matrix")
        require_hermitian(mat, DENSITY_HERMITICITY_TOL, "density matrix")
        trace = mat.trace(axis1=-2, axis2=-1)
        error = abs(trace - 1.0)
        if error.max() > DENSITY_TRACE_TOL:
            index, where = _worst(error)
            raise ValidationError("density matrix trace is "
                                  f"{np.ravel(trace)[index].real:.12g}, expected 1{where}")
        try:
            np.linalg.cholesky(mat + _CERTIFICATE_SHIFTS[mat.shape[-1]])
        except np.linalg.LinAlgError:
            # Not certified: eigvalsh decides (see the module notes).
            smallest = np.linalg.eigvalsh(mat).T[0]
            if smallest.min() < DENSITY_EIGENVALUE_FLOOR:
                index, where = _worst(-smallest)
                raise ValidationError("density matrix has negative eigenvalue "
                                      f"{np.ravel(smallest)[index]:.3e}{where}") from None
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class CoherenceDecomposition:
    """Real expansion coefficients of a qubit-qutrit matrix in the generator basis.

    ``u`` is the Bloch vector of the qubit subsystem, ``v`` the coherence
    vector of the qutrit subsystem and ``beta`` the 3x8 correlation tensor;
    for a stack of ``N`` matrices each carries a leading axis of length ``N``.
    """

    u: np.ndarray
    v: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        # C-ordered copies: the bits of a stacked dot depend on the layout.
        u = np.array(self.u, dtype=float, order="C")
        v = np.array(self.v, dtype=float, order="C")
        beta = np.array(self.beta, dtype=float, order="C")
        batch = u.shape[:-1]
        if (u.shape[-1:] != (3,) or v.shape != batch + (8,)
                or beta.shape != batch + (3, 8) or len(batch) > 1):
            raise ValidationError(
                f"expected shapes (3,), (8,), (3, 8), each with an optional leading "
                f"stack axis; got {u.shape}, {v.shape}, {beta.shape}"
            )
        for arr, name in ((u, "u"), (v, "v"), (beta, "beta")):
            require_finite(arr, name)
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "beta", beta)


def _as_matrix6(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        if rho.dim == 6:
            return rho.matrix  # already checked
        rho = rho.matrix
    return _require_stack(rho, ((6, 6),), "matrix")


def decompose(rho) -> CoherenceDecomposition:
    """Extract the coherence-vector coefficients of a 6x6 matrix.

    Accepts a :class:`DensityMatrix` or a raw Hermitian array (the decoder's
    output never re-enters as a validated state, so the raw form keeps the
    round trip testable on unphysical coefficients), one matrix or a stack
    ``(N, 6, 6)``.  Each coefficient trace must be real within
    :data:`TRACE_IMAG_TOL`; a larger imaginary part means the input was not
    Hermitian and raises :class:`ConsistencyError`.
    """
    mat = _as_matrix6(rho)
    raw = _gather_sum(mat.reshape(mat.shape[:-2] + (36,)), _ENCODE)
    worst_imag = float(np.max(np.abs(raw.imag)))
    if worst_imag > TRACE_IMAG_TOL:
        raise ConsistencyError(
            f"coefficient traces have imaginary part {worst_imag:.3e}; "
            "input matrix is not Hermitian"
        )
    traces = raw.real
    return CoherenceDecomposition(
        u=traces[..., :3],
        v=(_SQRT3 / 2.0) * traces[..., 3:11],
        beta=1.5 * traces[..., 11:].reshape(traces.shape[:-1] + (3, 8)),
    )


def reconstruct(coeffs: CoherenceDecomposition) -> np.ndarray:
    """Rebuild the 6x6 matrix encoded by ``coeffs``, or the ``(N, 6, 6)``
    stack encoded by stacked coefficients.

    The result is Hermitian with unit trace by construction.  Positivity is
    not checked: arbitrary coefficients need not describe a physical state.
    Wrap the result in :class:`DensityMatrix` when a validated state is needed.
    """
    beta = coeffs.beta.reshape(coeffs.beta.shape[:-2] + (24,))
    mat = (_ID6.reshape(36)
           + _gather_sum(coeffs.u, _DECODE_U)
           + _SQRT3 * _gather_sum(coeffs.v, _DECODE_V)
           + _gather_sum(beta, _DECODE_BETA))
    return mat.reshape(mat.shape[:-1] + (6, 6)) / 6.0


def _partial_trace(rho_ab: DensityMatrix, subscripts: str, caller: str) -> DensityMatrix:
    if not isinstance(rho_ab, DensityMatrix) or rho_ab.dim != 6:
        raise ValidationError(f"{caller} expects a 6-dimensional DensityMatrix")
    blocks = rho_ab.matrix.reshape(rho_ab.matrix.shape[:-2] + (2, 3, 2, 3))
    return DensityMatrix(np.einsum(subscripts, blocks))


def reduced_a(rho_ab: DensityMatrix) -> DensityMatrix:
    """Qubit reduced density matrix: trace out the qutrit (per matrix of a stack)."""
    return _partial_trace(rho_ab, "...ijkj->...ik", "reduced_a")


def reduced_b(rho_ab: DensityMatrix) -> DensityMatrix:
    """Qutrit reduced density matrix: trace out the qubit (per matrix of a stack)."""
    return _partial_trace(rho_ab, "...ijik->...jk", "reduced_b")
