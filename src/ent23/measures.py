"""Entanglement measures for bipartite pure states with a qubit on side A.

The central quantity is the concurrence, computed here along three routes
that share no code path:

- ``concurrence_amplitudes``: directly from the 2x2 minors of the amplitude
  grid,
- ``concurrence_bloch``: from the norm of the qubit Bloch vector extracted by
  the coherence-vector codec from the 6x6 projector; a qubit-qubit state
  enters zero-padded to (2, 3) (:meth:`PureState.density`), which is how the
  paper's qubit-qutrit formula contains the ``d_b = 2`` case,
- ``concurrence_schmidt``: from the Schmidt coefficients, themselves obtained
  by closed-form diagonalization of the qubit reduced matrix.

For any normalized state all three agree to floating precision away from the
``C = 0`` boundary (the Bloch and Schmidt forms take a square root of a
quantity that vanishes quadratically there, so on exact product states their
absolute error grows to ``sqrt(eps)``; the amplitude form has no such
amplification).  The entanglement of formation follows from the concurrence
through the binary entropy and equals the Von Neumann entropy of either
reduced state, which this module also computes as an independent check.

Every route takes a stack of states as well as one state: a
:class:`PureState` over amplitudes ``(N, 2, d_b)`` yields array results of
length ``N``, one element per state, from the same elementwise NumPy code
that evaluates a single state (which gets plain floats back; per-state
quantities are read so that a single state computes on NumPy scalars
rather than on one-element arrays).  Batching never changes a number: each
element is bit-identical to the one-state call, which is what keeps
``ent23 sample`` output byte-identical while it measures and writes its rows
a chunk at a time.  :mod:`ent23._exact` lists the NumPy calls avoided for
that.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._exact import TINY, dot, minor, modulus, norm, square, unit
from .bases import CoherenceDecomposition, DensityMatrix, decompose, reduced_a
from .errors import ValidationError
from .linalg import _require_stack, _worst, hermitian_eig2, hermitian_eig3, hermitian_eigvecs2

#: Construction tolerance on the squared norm of a pure state.
STATE_NORM_TOL = 1e-9

#: Slack accepted on the domain edges of entropy-like functions.
DOMAIN_TOL = 1e-12

#: Schmidt coefficient below which a state is treated as a product state:
#: the coefficient is flushed to exactly zero and the second partner-side
#: vector is completed by orthonormal extension.  Forming the reduced matrix
#: squares the small singular value, so on an exact product state the
#: eigenvalue route returns noise of order sqrt(eps) ~ 1.3e-8 rather than
#: zero; the threshold sits above that floor.
SCHMIDT_ZERO_TOL = 5e-8

#: Magnitude below which a component is ignored when fixing a vector's phase.
PHASE_TOL = 1e-12


def _out(values):
    """Per-state results as returned: an array for a stack, a float for one state."""
    return values if values.ndim else float(values)


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of a (2, d_b) system, d_b in {2, 3}, or a stack.

    ``amplitudes[i, j]`` is the coefficient of qubit level ``i`` and partner
    level ``j``; the flattened (composite) index is ``d_b * i + j``.  A stack
    of ``N`` states has amplitudes ``(N, 2, d_b)``, and every state in it is
    checked.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = _require_stack(self.amplitudes, ((2, 2), (2, 3)), "amplitudes")
        norm_sq = (amp.real ** 2 + amp.imag ** 2).sum(axis=(-2, -1))
        error = abs(norm_sq - 1.0)
        if error.max() > STATE_NORM_TOL:
            index, where = _worst(error)
            raise ValidationError("state is not normalized: sum of |a|^2 is "
                                  f"{np.ravel(norm_sq)[index]:.12g}{where}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def d_b(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def dims(self) -> tuple[int, int]:
        return (2, self.d_b)

    def vector(self) -> np.ndarray:
        """Amplitudes flattened by composite index ``d_b * i + j``."""
        return self.amplitudes.reshape(self.amplitudes.shape[:-2] + (-1,)).copy()

    def density(self) -> DensityMatrix:
        """Projector onto this state's ray, normalized to unit trace: a 6x6
        qubit-qutrit matrix (or stack) for either ``d_b``.  A qubit-qubit grid
        is zero-padded to (2, 3) first, which is the paper's ``d_b = 2`` case
        of the qubit-qutrit formulas and leaves every measure unchanged."""
        amp = self.amplitudes
        if self.d_b == 2:
            amp = np.zeros(amp.shape[:-1] + (3,), dtype=complex)
            amp[..., :2] = self.amplitudes
        vec = amp.reshape(amp.shape[:-2] + (-1,))
        outer = vec[..., :, None] * np.conj(vec)[..., None, :]
        trace = outer.diagonal(axis1=-2, axis2=-1).sum(axis=-1).real
        return DensityMatrix(outer / trace[..., None, None])


@dataclass(frozen=True)
class SchmidtForm:
    """Two-term Schmidt decomposition ``k1 |x1>|y1> + k2 |x2>|y2>``.

    For a stack of ``N`` states ``k1`` and ``k2`` are arrays ``(N,)`` and the
    vectors carry a leading axis of length ``N``.
    """

    k1: float
    k2: float
    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Amplitude grid (or stack of grids) rebuilt from the decomposition."""
        k1 = np.asarray(self.k1)[..., None, None]
        k2 = np.asarray(self.k2)[..., None, None]
        return (k1 * (self.x1[..., :, None] * self.y1[..., None, :])
                + k2 * (self.x2[..., :, None] * self.y2[..., None, :]))


@dataclass(frozen=True)
class EntanglementReport:
    """Every measure of one state, each field computed by its own route.

    For a stack of states every field is an array with one entry per state.
    """

    c_amplitude: float
    c_bloch: float
    c_schmidt: float
    eof: float
    vn_entropy_a: float
    u_norm: float
    v_norm: float
    k1: float
    k2: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def concurrence_amplitudes(psi: PureState):
    """Concurrence from the 2x2 minors of the amplitude grid.

    Twice the root-sum-square of the moduli of all 2x2 minors; for a 2x2
    state there is a single minor and this reduces to ``2 |a00 a11 - a01 a10|``.
    """
    # re[j, i] is the real part of a[..., i, j]: a NumPy scalar for one state.
    re, im = psi.amplitudes.real.T, psi.amplitudes.imag.T
    pairs = ((0, 1),) if psi.d_b == 2 else ((0, 1), (2, 0), (1, 2))
    minors_re, minors_im = zip(*(minor(re, im, 0, 1, *cols) for cols in pairs))
    moduli = np.hypot(np.array(minors_re), np.array(minors_im))
    if psi.d_b == 2:
        c = 2.0 * moduli[0]
    else:
        squares = square(moduli)
        c = 2.0 * np.sqrt((squares[0] + squares[1]) + squares[2])
    return _out(np.minimum(1.0, c))


def concurrence_bloch(psi: PureState | CoherenceDecomposition):
    """Concurrence from the qubit Bloch vector, ``sqrt(1 - |u|**2)``.

    ``u`` comes from the coherence-vector codec applied to the state's 6x6
    projector (:meth:`PureState.density`).  A caller that already holds that
    codec output may pass it instead of the state.  The argument of the root
    is clamped at zero against rounding.
    """
    if isinstance(psi, CoherenceDecomposition):
        coeffs = psi
    else:
        coeffs = decompose(psi.density())
    return _out(np.sqrt(np.maximum(0.0, 1.0 - dot(coeffs.u, coeffs.u))))


def _canonical_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each unit vector along the last axis so its
    first component above :data:`PHASE_TOL` in modulus is real positive."""
    mags = modulus(vecs)
    lead = (mags > PHASE_TOL).argmax(axis=-1)
    if lead.any():
        flat = lead.reshape(-1) + np.arange(0, vecs.size, vecs.shape[-1])
        phase = (np.conj(vecs.reshape(-1)[flat]) / mags.reshape(-1)[flat]).reshape(lead.shape)
    else:
        phase = np.conj(vecs[..., 0]) / mags[..., 0]
    return vecs * phase[..., None]


_BASIS = {d_b: np.eye(2, d_b, dtype=complex) for d_b in (2, 3)}
for _basis in _BASIS.values():
    _basis.setflags(write=False)


def _orthonormal_extension(y1: np.ndarray) -> np.ndarray:
    """Per row, the first standard basis vector orthonormalized against unit
    vector ``y1``.

    At most one basis vector lies within distance 0.5 of the ray of ``y1``,
    so index 0 or, failing that, index 1 always serves; index 1 is formed
    only for the rows that need it.
    """
    basis = _BASIS[y1.shape[1]]
    chosen = basis[0] - y1 * np.conj(y1[:, :1])
    residual = norm(chosen)
    retry = residual <= 0.5
    if retry.any():
        chosen[retry] = basis[1] - y1[retry] * np.conj(y1[retry, 1:2])
        residual[retry] = norm(chosen[retry])
    return _canonical_phase(chosen / residual[:, None])


def _orthogonal_unit(y2: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """``y2`` re-orthogonalized against unit ``y1``, normalized."""
    return unit(y2 - y1 * dot(np.conj(y1), y2)[..., None])


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Two-term Schmidt decomposition of a (2, d_b) pure state.

    The squared coefficients are the eigenvalues of the qubit reduced matrix
    ``A A^+`` (``A`` the amplitude grid), obtained in closed form; they solve
    ``x**2 - x + C**2/4 = 0``.  The qubit vectors are the corresponding
    eigenvectors and the partner vectors follow as
    ``y_i = conj(A^+ x_i) / k_i``, which makes
    ``k1 x1 (x) y1 + k2 x2 (x) y2`` reproduce the amplitudes exactly.

    Deterministic conventions: each ``x_i`` carries a real positive leading
    component (the ``y_i`` phases are then fixed by the formula above, which
    is what keeps the reconstruction phase-exact); a degenerate spectrum
    yields the standard basis on the qubit side; a ``k2`` at or below
    :data:`SCHMIDT_ZERO_TOL` is indistinguishable from the eigenvalue noise
    of a product state and is flushed to exactly zero, with the undefined
    ``y2`` completed as the first standard basis vector orthonormalized
    against ``y1``.  On a stack each state takes its own branch.
    """
    a = psi.amplitudes
    rho_a = a @ np.conj(a).swapaxes(-1, -2)
    rho_a = 0.5 * (rho_a + np.conj(rho_a).swapaxes(-1, -2))
    values, vectors = hermitian_eigvecs2(rho_a)
    k = np.sqrt(np.minimum(1.0, np.maximum(0.0, values)))
    k.setflags(write=False)
    k1, k2 = k.T
    x = _canonical_phase(vectors.swapaxes(-1, -2))
    x1, x2 = x[..., 0, :], x[..., 1, :]

    # Rows y_i = A^T conj(x_i) / k_i, one BLAS matrix-vector call per row.
    # k1 >= 1/sqrt(2); a k2 flushed below makes a row that is not used, and
    # the floor on the divisor keeps it finite.
    y = np.matmul(a.swapaxes(-1, -2)[..., None, :, :], np.conj(x)[..., None])[..., 0]
    y = y / np.maximum(k, TINY)[..., None]
    y1 = unit(y[..., 0, :])
    flush = k2 <= SCHMIDT_ZERO_TOL
    if flush.any():
        keep = ~flush
        k2 = np.where(flush, 0.0, k2)
        k2.setflags(write=False)
        y2 = np.empty_like(y1)
        y2[flush] = _orthonormal_extension(y1[flush])
        if keep.any():
            y2[keep] = _orthogonal_unit(y[keep, 1, :], y1[keep])
    else:
        y2 = _orthogonal_unit(y[..., 1, :], y1)

    for arr in (x1, x2, y1, y2):
        arr.setflags(write=False)
    return SchmidtForm(k1=_out(k1), k2=_out(k2), x1=x1, x2=x2, y1=y1, y2=y2)


def concurrence_schmidt(form: SchmidtForm):
    """Concurrence from the Schmidt coefficients, ``2 k1 k2``."""
    return _out(np.minimum(1.0, 2.0 * form.k1 * form.k2))


def _require_unit_interval(x: np.ndarray, what: str) -> None:
    outside = ~((x >= -DOMAIN_TOL) & (x <= 1.0 + DOMAIN_TOL))  # NaN too
    if outside.any():
        bad = float(np.ravel(x)[np.ravel(outside)][0])
        raise ValidationError(f"{what} {bad!r} is outside [0, 1]")


def _entropies(rows, shape) -> np.ndarray:
    """``-sum p log2 p`` of each row, in order, skipping ``p = 0``, as an
    array of ``shape``."""
    totals = []
    for row in rows:
        total = 0.0
        for p in row:
            if p > 0.0:
                total -= p * math.log2(p)
        totals.append(total)
    return np.array(totals).reshape(shape)


def _binary_entropies(x: np.ndarray):
    """:func:`binary_entropy` of each element of ``x``, already in [0, 1]."""
    return _out(_entropies(((p, 1.0 - p) for p in np.ravel(x).tolist()), np.shape(x)))


def binary_entropy(x):
    """Entropy in bits of the distribution ``(x, 1 - x)``, elementwise.

    The endpoint convention ``0 log 0 = 0`` applies; inputs within
    :data:`DOMAIN_TOL` outside [0, 1] are clamped, anything further out is a
    domain error.
    """
    x = np.asarray(x, dtype=float)[()]
    _require_unit_interval(x, "binary entropy argument")
    return _binary_entropies(np.minimum(1.0, np.maximum(0.0, x)))


def eof_from_concurrence(c):
    """Entanglement of formation of a pure state with concurrence ``c``, elementwise.

    ``h((1 + sqrt(1 - c**2)) / 2)`` with the root argument clamped at zero;
    strictly increasing from 0 at ``c = 0`` to 1 at ``c = 1``.
    """
    c = np.asarray(c, dtype=float)[()]
    _require_unit_interval(c, "concurrence")
    c = np.minimum(1.0, np.maximum(0.0, c))
    return _binary_entropies(0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))))


def von_neumann_entropy(rho: DensityMatrix):
    """Entropy in bits of a dimension-2 or dimension-3 density matrix.

    Eigenvalues come from the closed-form solvers and are clamped to [0, 1]
    before the ``p log2 p`` sum.  A stack of matrices gives one entropy each.
    """
    if not isinstance(rho, DensityMatrix) or rho.dim not in (2, 3):
        raise ValidationError("entropy expects a DensityMatrix of dimension 2 or 3")
    mat = rho.matrix
    # DensityMatrix tolerates a larger hermiticity deviation than the
    # eigensolvers; hand them the exactly Hermitian part.
    matrix = 0.5 * (mat + np.conj(mat).swapaxes(-1, -2))
    eigenvalues = (hermitian_eig2 if rho.dim == 2 else hermitian_eig3)(matrix)
    p = np.minimum(1.0, np.maximum(0.0, eigenvalues))
    return _out(_entropies(p.reshape(-1, rho.dim).tolist(), mat.shape[:-2]))


def _measure(psi: PureState):
    """``(full_report(psi), rho_ab, rho_a, coeffs, form)``: the report, then the
    projector, qubit reduced matrix, codec output and Schmidt form behind it."""
    rho_ab = psi.density()
    rho_a = reduced_a(rho_ab)
    coeffs = decompose(rho_ab)
    form = schmidt_decompose(psi)
    c_amp = concurrence_amplitudes(psi)
    report = EntanglementReport(
        c_amplitude=c_amp,
        c_bloch=concurrence_bloch(coeffs),
        c_schmidt=concurrence_schmidt(form),
        eof=eof_from_concurrence(c_amp),
        vn_entropy_a=von_neumann_entropy(rho_a),
        u_norm=_out(np.sqrt(dot(coeffs.u, coeffs.u))),
        v_norm=_out(np.sqrt(dot(coeffs.v, coeffs.v))),
        k1=form.k1,
        k2=form.k2,
    )
    return report, rho_ab, rho_a, coeffs, form


def full_report(psi: PureState) -> EntanglementReport:
    """Compute every measure of ``psi``, each along its own route.

    No field is copied from another: the three concurrences, the
    entanglement of formation (from the amplitude-route concurrence) and the
    subsystem entropy are all evaluated independently so that any
    disagreement between them is visible to the verification layer rather
    than masked here.  The codec output behind ``c_bloch`` also gives the
    coherence norms.  A stack of states gives a report of arrays.
    """
    return _measure(psi)[0]
