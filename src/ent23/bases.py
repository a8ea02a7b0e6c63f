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
the nonzero terms (``_gather_sum``), accumulating each stack in place.  The
encoder reads the float view of ``rho``, where entry ``x = 6a + b`` has its
real part at ``2x`` and its imaginary part at ``2x + 1``, and adds real
products only.  Every weight ``op[b, a]`` is real or purely imaginary, so
``_ENCODE_REAL`` gives, for each coefficient trace, one position and one real
weight per nonzero term of its real part, ``re * w.real`` or
``im * -w.imag``; ``_ENCODE_IMAG`` gives those of its imaginary part,
``re * w.imag`` or ``im * w.real``, which only the :data:`TRACE_IMAG_TOL`
check reads.  ``_DECODE_U``, ``_DECODE_V`` and ``_DECODE_BETA`` give, for
each of the 21 entries ``6a + b`` with ``a <= b`` of the rebuilt matrix
(``_UPPER``), the coefficients ``k`` and the complex weights ``op_k[a, b]``
of one group.  The rebuilt matrix is Hermitian, so the 15 entries below the
diagonal are the conjugates of those above, plus +0.0, which makes a zero
imaginary part +0, taken before the final division by 6.  Terms are added
in the order ``einsum`` adds them, so every bit matches the dense ``einsum``
codec (why, why the real parts and the mirror keep them, and why the decoder
stays complex, in :mod:`ent23._exact`).

The decoder accepts arbitrary finite coefficients; the affine map above is a
bijection on Hermitian unit-trace matrices, not on physical states, so its
output is a plain array and positivity is checked only where a
:class:`DensityMatrix` is actually constructed.

Valid by construction.  Inputs are checked once, where they enter: the
public :class:`DensityMatrix` and :class:`CoherenceDecomposition`
constructors, :class:`~ent23.measures.PureState` and the eigensolvers check
every argument.  Four values built inside the package from an already
checked one skip those checks, because each check would pass:

- The projector of :meth:`PureState.density() <ent23.measures.PureState.density>`
  skips every :class:`DensityMatrix` check.  The state is finite with
  ``|sum |a|**2 - 1| <= 1e-9``, so the entries ``a_i conj(a_j) / trace``
  are finite and at most 1 in modulus; entries ``(i, j)`` and ``(j, i)``
  are rounded conjugate products (a deviation of a few ulps, against
  :data:`DENSITY_HERMITICITY_TOL`); the division by the computed trace
  leaves a trace within a few ulps of 1; and a rank-1 projector has
  eigenvalues ``1, 0, ..., 0``, which rounding moves by ~``eps``, far above
  :data:`DENSITY_EIGENVALUE_FLOOR`.
- :func:`reduced_a` and :func:`reduced_b` of such a projector skip them too:
  each entry sums two or three entries of the projector, so it stays finite,
  Hermitian within a few ulps, of trace 1 within a few ulps, and positive
  semidefinite up to rounding (a partial trace of a positive matrix is
  positive).  The partial trace of a matrix that came in through the public
  constructor is checked as before: its deviations from Hermiticity, up to
  the tolerance each, can add up in the sum.
- The :class:`CoherenceDecomposition` that :func:`decompose` makes from a
  :class:`DensityMatrix` skips its shape and finiteness checks.  A checked
  density matrix has entries of modulus at most ~1 (positive semidefinite
  with unit trace), so each coefficient trace, a sum of at most six such
  entries, is finite; the shapes are the ones :func:`decompose` builds.
- :func:`decompose` of a projector built that way also skips its
  :data:`TRACE_IMAG_TOL` check, and does not sum the imaginary parts that
  the check reads.  Each coefficient trace adds the terms
  ``rho[a, b] op[b, a]`` and ``rho[b, a] op[a, b]`` in pairs; with ``op``
  Hermitian their imaginary parts cancel up to ``rho``'s deviation from
  Hermiticity, a few ulps, and the rounding of at most six products of
  modulus at most ~1.15.  The imaginary parts are therefore a few ulps
  (at most 1.2e-16 on the test families), against a tolerance of 1e-10.
- The qubit matrix ``0.5 (A A^+ + (A A^+)^+)`` that
  :func:`~ent23.measures.schmidt_decompose` builds from the amplitude grid
  ``A`` of a checked state skips the checks and the scaling test of
  :func:`~ent23.linalg.hermitian_eigvecs2`.  The entries of ``A`` are finite
  and at most ~1 in modulus, so those of ``A A^+`` are finite sums of at
  most three such products; its shape is ``(2, 2)``, or ``(N, 2, 2)`` for
  a stack ``A``.  Entries ``(i, j)`` and ``(j, i)`` of the symmetrized
  matrix add the same two numbers in either order, conjugated, and each
  imaginary part is an exact negation of the other (``fl(x - y) =
  -fl(y - x)``), so it is exactly Hermitian: a deviation of 0 against
  :data:`~ent23.linalg.HERMITICITY_TOL`.  Its diagonal is ``sum_j |a_ij|**2``,
  nonnegative, with a sum within ~1e-9 of 1, so its largest part is at
  least ~0.5, far inside the ``2**+-500`` band outside which
  :func:`~ent23.linalg._scaled` scales; the copy that the checks make has
  the same bits.

The trusted constructions still run ``DensityMatrix.__init__``,
``CoherenceDecomposition.__init__`` and ``hermitian_eigvecs2``: the argument
arrives wrapped in the private :class:`~ent23.linalg._Valid`, which they
unwrap.  What the constructors store is a plain array, so
``dataclasses.replace`` and every other caller outside this package reach
the checks, and the wrapped matrix never leaves ``schmidt_decompose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .linalg import (_require_array, _require_stack, _Valid, _worst, require_finite,
                     require_hermitian)

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
# rho[a, b] * op[b, a] at x = 6a + b, each weight real or purely imaginary;
# on the float view of rho, whose parts are (re, im) at (2x, 2x + 1), the
# real part of a trace reads re * w.real and im * -w.imag, and its
# imaginary part re * w.imag and im * w.real.  Each group of the decoder
# reads c_k * op_k[a, b] per entry 6a + b with a <= b, the 21 of _UPPER.
_ROWS, _COLS = np.triu_indices(6)
_UPPER = 6 * _ROWS + _COLS
_weights = (np.concatenate((_QUBIT_OPS, _QUTRIT_OPS, _PAIR_OPS.reshape(24, 6, 6)))
            .transpose(0, 2, 1).reshape(35, 36))
_ENCODE_REAL, _ENCODE_IMAG = (_sum_table(np.stack(parts, axis=-1).reshape(35, 72))
                              for parts in ((_weights.real, -_weights.imag),
                                            (_weights.imag, _weights.real)))
_DECODE_U, _DECODE_V, _DECODE_BETA = (_sum_table(ops.reshape(-1, 36)[:, _UPPER].T)
                                      for ops in (_QUBIT_OPS, _QUTRIT_OPS, _PAIR_OPS))
_ID6_UPPER = _ID6.reshape(36)[_UPPER]
for _arr in (_QUBIT_OPS, _QUTRIT_OPS, _PAIR_OPS, *_ENCODE_REAL, *_ENCODE_IMAG, *_DECODE_U,
             *_DECODE_V, *_DECODE_BETA, _ID6_UPPER):
    _arr.setflags(write=False)


def _gather_sum(x: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``sum_t x[..., index[t]] * value[t]`` for ``table = (index, value)``,
    added left to right from 0.0, as ``einsum`` adds the nonzero terms.

    The sum accumulates in place, and each term is gathered and multiplied
    in one reused buffer: ``p + 0.0`` has the bits of ``0.0 + p``.  A real
    ``x`` with complex values is cast to complex once: each term gets the
    ``a + 0j`` that a mixed multiply casts it to, without the cast buffer
    that such a multiply allocates on every call.  The indices are in range,
    so ``mode="clip"`` only spares ``take`` the copy of ``out`` that its
    default mode makes.
    """
    index, value = table
    x = x.astype(value.dtype, copy=False)
    term = x.take(index[0], axis=-1)
    term *= value[0]
    total = term + 0.0
    for i, v in zip(index[1:], value[1:]):
        x.take(i, axis=-1, out=term, mode="clip")
        term *= v
        total += term
    return total


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of dimension 2, 3 or 6.

    ``matrix`` may also be a stack ``(N, d, d)``; every check then runs on
    every matrix of the stack.  Positivity means a smallest ``eigvalsh``
    eigenvalue of at least :data:`DENSITY_EIGENVALUE_FLOOR`.
    """

    matrix: np.ndarray

    #: Built valid by construction (module notes), so its partial traces are too.
    _valid = False

    def __post_init__(self) -> None:
        if type(self.matrix) is _Valid:
            mat = self.matrix.array
            object.__setattr__(self, "_valid", True)
        else:
            mat = _require_stack(self.matrix, ((2, 2), (3, 3), (6, 6)), "density matrix")
            require_hermitian(mat, DENSITY_HERMITICITY_TOL, "density matrix")
            with np.errstate(over="ignore"):  # an inf trace fails the test below
                trace = mat.trace(axis1=-2, axis2=-1)
            error = abs(trace - 1.0)
            if error.max() > DENSITY_TRACE_TOL:
                index, where = _worst(error)
                raise ValidationError("density matrix trace is "
                                      f"{np.ravel(trace)[index].real:.12g}, expected 1{where}")
            smallest = np.linalg.eigvalsh(mat).T[0]
            if smallest.min() < DENSITY_EIGENVALUE_FLOOR:
                index, where = _worst(-smallest)
                raise ValidationError("density matrix has negative eigenvalue "
                                      f"{np.ravel(smallest)[index]:.3e}{where}")
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
        if type(self.u) is _Valid:
            # decompose's output from a DensityMatrix (module notes).
            arrays = (self.u.array, self.v.array, self.beta.array)
        else:
            u, v, beta = (require_finite(_require_array(x, float, name), name)
                          for x, name in ((self.u, "u"), (self.v, "v"), (self.beta, "beta")))
            batch = u.shape[:-1]
            if (u.shape[-1:] != (3,) or v.shape != batch + (8,)
                    or beta.shape != batch + (3, 8) or len(batch) > 1):
                raise ValidationError(
                    f"expected shapes (3,), (8,), (3, 8), each with an optional leading "
                    f"stack axis; got {u.shape}, {v.shape}, {beta.shape}"
                )
            arrays = (u, v, beta)
        for name, arr in zip(("u", "v", "beta"), arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _as_matrix6(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        if rho.dim == 6:
            return rho.matrix  # already checked
        rho = rho.matrix
    return require_finite(_require_stack(rho, ((6, 6),), "matrix"), "matrix")


def _coefficients(parts: np.ndarray, check_imag: bool):
    """``(u, v, beta)`` from the float views ``parts`` of 6x6 matrices, after
    the :data:`TRACE_IMAG_TOL` check if ``check_imag``."""
    if check_imag:
        worst_imag = float(np.max(np.abs(_gather_sum(parts, _ENCODE_IMAG))))
        if worst_imag > TRACE_IMAG_TOL:
            raise ConsistencyError(
                f"coefficient traces have imaginary part {worst_imag:.3e}; "
                "input matrix is not Hermitian"
            )
    traces = _gather_sum(parts, _ENCODE_REAL)
    return (traces[..., :3], (_SQRT3 / 2.0) * traces[..., 3:11],
            1.5 * traces[..., 11:].reshape(traces.shape[:-1] + (3, 8)))


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
    # (re, im) of each entry: a C-ordered matrix (ent23._exact) reshapes to a
    # view, whose float view needs no copy.
    parts = mat.reshape(mat.shape[:-2] + (36,)).view(float)
    if not isinstance(rho, DensityMatrix):
        # Raw entries near the float limit make sums and products inf or NaN,
        # which the checks reject; a DensityMatrix's entries are at most ~1.
        with np.errstate(over="ignore", invalid="ignore"):
            return CoherenceDecomposition(*_coefficients(parts, True))
    # A projector built valid skips the imaginary-part check, and its
    # coefficients are finite by construction (module notes).  They are
    # copied: a slice of the traces would keep the whole (N, 35) array alive
    # (ent23._exact).
    coeffs = _coefficients(parts, not rho._valid)
    return CoherenceDecomposition(*(_Valid(np.ascontiguousarray(arr)) for arr in coeffs))


def reconstruct(coeffs: CoherenceDecomposition) -> np.ndarray:
    """Rebuild the 6x6 matrix encoded by ``coeffs``, or the ``(N, 6, 6)``
    stack encoded by stacked coefficients.

    The result is Hermitian with unit trace by construction.  Positivity is
    not checked: arbitrary coefficients need not describe a physical state.
    Wrap the result in :class:`DensityMatrix` when a validated state is needed.
    Coefficients near the float limit give einsum's inf and NaN entries,
    without a warning.
    """
    beta = coeffs.beta.reshape(coeffs.beta.shape[:-2] + (24,))
    with np.errstate(over="ignore", invalid="ignore"):
        # In place, with einsum's operands in its order: (I + U) + sqrt(3) V + B.
        upper = _gather_sum(coeffs.u, _DECODE_U)
        upper += _ID6_UPPER
        qutrit = _gather_sum(coeffs.v, _DECODE_V)
        qutrit *= _SQRT3
        upper += qutrit
        del qutrit  # freed before the next group is gathered
        upper += _gather_sum(beta, _DECODE_BETA)
        # The entries below the diagonal are the conjugates of those above,
        # + 0.0 in place for a zero imaginary part of +0, before the division
        # (why, in ent23._exact).
        mat = np.empty(upper.shape[:-1] + (6, 6), dtype=complex)
        mat[..., _COLS, _ROWS] = np.add(lower := np.conj(upper), 0.0, out=lower)
        mat[..., _ROWS, _COLS] = upper
        mat /= 6.0
    return mat


def _partial_trace(rho_ab: DensityMatrix, subscripts: str, caller: str) -> DensityMatrix:
    if not isinstance(rho_ab, DensityMatrix) or rho_ab.dim != 6:
        raise ValidationError(f"{caller} expects a 6-dimensional DensityMatrix")
    blocks = rho_ab.matrix.reshape(rho_ab.matrix.shape[:-2] + (2, 3, 2, 3))
    reduced = np.einsum(subscripts, blocks)
    return DensityMatrix(_Valid(reduced) if rho_ab._valid else reduced)


def reduced_a(rho_ab: DensityMatrix) -> DensityMatrix:
    """Qubit reduced density matrix: trace out the qutrit (per matrix of a stack)."""
    return _partial_trace(rho_ab, "...ijkj->...ik", "reduced_a")


def reduced_b(rho_ab: DensityMatrix) -> DensityMatrix:
    """Qutrit reduced density matrix: trace out the qubit (per matrix of a stack)."""
    return _partial_trace(rho_ab, "...ijik->...jk", "reduced_b")
