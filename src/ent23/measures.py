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

Accuracy against the exact value.  For float amplitudes ``C**2 = 4 sum
|minor|**2 / |a|**4`` is a rational number, and every report field follows
from it in closed form (``tests/test_oracle.py`` computes it in
``fractions``, with roots and logarithms at 60 digits).  Each field's error
is bounded by ``m eps + kappa eps / C`` (eps = 2.2e-16, C the exact
concurrence).  Measured maxima on 300 seed-42 Haar states per ``d_b``, 20
rotated Bell states, the Schmidt grid and 40 locally rotated near-product
states with ``k2 = 1e-2 ... 1e-9``, for ``d_b`` = 2 and 3:

================================  ====  =====  ===============================
field                             m     kappa  measured
================================  ====  =====  ===============================
c_amplitude, u_norm, v_norm, k1   8     0      3.5 eps (c_amplitude, Bell)
c_bloch, c_schmidt, k2            8     4      1.8 eps/C (near product);
                                               21 eps at C = 0.025 (c_bloch)
eof, vn_entropy_a                 64    0      16 eps (eof, near product)
================================  ====  =====  ===============================

The eps/C law: ``sqrt(1 - |u|**2)`` and ``sqrt(lambda_2)`` take the root of
a quantity of size ~C**2 that carries an absolute error of ~eps.  A ``k2``
flushed at :data:`SCHMIDT_ZERO_TOL` is off by ``k2`` itself, and
``c_schmidt`` by C; the law covers that up to ``k2`` ~1.5e-8, which holds
the decades 1e-8 and 1e-9 of the near-product family, but not the rest of
the flush window (up to 45 eps/C at ``k2 = 5e-8``).  An entropy term
``-q log2 q`` carries ~``eps log2(1/q) / 2``, at most ~30 eps for the
family's smallest ``q = 1e-18``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._exact import TINY, dot, libm_map, minor, modulus, norm, square, unit
from .bases import CoherenceDecomposition, DensityMatrix, decompose, reduced_a
from .errors import ValidationError
from .linalg import (_any, _require_array, _require_stack, _require_type, _Valid, _worst,
                     hermitian_eig2, hermitian_eig3, hermitian_eigvecs2, require_finite)

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

#: State shapes ``(d_a, d_b)``, read by every shape check of an input.
SUPPORTED_DIMS = ((2, 2), (2, 3))


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
        amp = require_finite(_require_stack(self.amplitudes, SUPPORTED_DIMS, "amplitudes"),
                             "amplitudes")
        # An entry beyond ~1e154 squares to inf, which the test below rejects.
        with np.errstate(over="ignore"):
            norm_sq = (amp.real ** 2 + amp.imag ** 2).sum(axis=(-2, -1))
        error = abs(norm_sq - 1.0)
        if _any(error > STATE_NORM_TOL):
            index, where = _worst(error)
            raise ValidationError("state is not normalized: sum of |a|^2 is "
                                  f"{np.ravel(norm_sq)[index]:.12g}{where}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def d_b(self) -> int:
        return self.amplitudes.shape[-1]

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
        outer /= trace[..., None, None]
        # Valid by construction: the checks are skipped (ent23.bases notes).
        return DensityMatrix(_Valid(outer))


@dataclass(frozen=True)
class SchmidtForm:
    """Two-term Schmidt decomposition ``k1 |x1>|y1> + k2 |x2>|y2>``.

    For a stack of ``N`` states ``k1`` and ``k2`` are arrays ``(N,)`` and the
    vectors carry a leading axis of length ``N``.  Only
    :func:`schmidt_decompose` makes a form; ``repr`` shows ``k1`` and ``k2``.
    The four read-only vectors come from one call of the builder it passes,
    made when one of them is first read: :func:`full_report` reads only
    ``k1`` and ``k2``, so ``compute`` and ``sample`` never make the vectors.
    """

    k1: float
    k2: float
    _build: functools.partial = field(repr=False, compare=False)

    @functools.cached_property
    def _vectors(self) -> tuple:
        # From Python 3.12 cached_property takes no lock: two threads may
        # both build the vectors, and they get the same bits.
        return self._build()

    x1 = property(lambda self: self._vectors[0])
    x2 = property(lambda self: self._vectors[1])
    y1 = property(lambda self: self._vectors[2])
    y2 = property(lambda self: self._vectors[3])

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
        """The fields by name, in field order; the values are not copied."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def concurrence_amplitudes(psi: PureState):
    """Concurrence from the 2x2 minors of the amplitude grid.

    Twice the root-sum-square of the moduli of all 2x2 minors; for a 2x2
    state there is a single minor and this reduces to ``2 |a00 a11 - a01 a10|``.
    """
    _require_type(psi, "psi", PureState)
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
    coeffs = _require_type(psi, "psi", PureState, CoherenceDecomposition)
    if isinstance(psi, PureState):
        coeffs = decompose(psi.density())
    return _out(np.sqrt(np.maximum(0.0, 1.0 - dot(coeffs.u, coeffs.u))))


# The vector helpers run only where vectors are read (verify's stacks and
# library reads), so they carry no one-state skip branch.
def _canonical_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each unit vector along the last axis so its
    first component above :data:`PHASE_TOL` in modulus is real positive."""
    mags = modulus(vecs)
    lead = (mags > PHASE_TOL).argmax(axis=-1)
    # Flat index of each vector's lead component.
    lead += np.arange(0, vecs.size, vecs.shape[-1]).reshape(lead.shape)
    phase = np.conj(vecs.take(lead)) / mags.take(lead)
    return vecs * phase[..., None]


def _orthonormal_extension(y1: np.ndarray) -> np.ndarray:
    """Per row, the first standard basis vector orthonormalized against unit
    vector ``y1``.

    At most one basis vector lies within distance 0.5 of the ray of ``y1``,
    so index 0 or, failing that, index 1 always serves; one masked
    assignment puts index 1 in the rows where index 0 falls short.
    """
    basis = np.eye(2, y1.shape[1], dtype=complex)
    chosen = basis[0] - y1 * np.conj(y1[:, :1])
    retry = norm(chosen) <= 0.5
    chosen[retry] = basis[1] - y1[retry] * np.conj(y1[retry, 1:2])
    return _canonical_phase(unit(chosen))


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
    a = _require_type(psi, "psi", PureState).amplitudes
    rho_a = a @ np.conj(a).swapaxes(-1, -2)
    rho_a = 0.5 * (rho_a + np.conj(rho_a).swapaxes(-1, -2))
    # Valid by construction: the solver's checks are skipped (ent23.bases notes).
    values, vectors = hermitian_eigvecs2(_Valid(rho_a))
    k = np.sqrt(np.minimum(1.0, np.maximum(0.0, values)))
    k.setflags(write=False)
    k1, k2 = k[..., 0], k[..., 1]
    flush = k2 <= SCHMIDT_ZERO_TOL
    if _any(flush):
        k2 = np.where(flush, 0.0, k2)
        k2.setflags(write=False)
    return SchmidtForm(_out(k1), _out(k2),
                       functools.partial(_schmidt_vectors, a, k, vectors, flush))


def _schmidt_vectors(a, k, vectors, flush):
    """``(x1, x2, y1, y2)`` of :func:`schmidt_decompose`, from the amplitude
    grid ``a``, the unflushed coefficients ``k``, the qubit eigenvectors and
    the flush mask."""
    x = _canonical_phase(vectors.swapaxes(-1, -2))
    x1, x2 = x[..., 0, :], x[..., 1, :]

    # Rows y_i = A^T conj(x_i) / k_i, one BLAS matrix-vector call per row.
    # k1 >= 1/sqrt(2); a flushed k2 makes a row that is not used, and the
    # floor on the divisor keeps it finite.
    y = np.matmul(a.swapaxes(-1, -2)[..., None, :, :], np.conj(x)[..., None])[..., 0]
    y /= np.maximum(k, TINY)[..., None]
    y1 = unit(y[..., 0, :])
    keep = ~flush
    y2 = np.empty_like(y1)
    y2[flush] = _orthonormal_extension(y1[flush])
    y2[keep] = _orthogonal_unit(y[keep, 1, :], y1[keep])

    for arr in (x1, x2, y1, y2):
        arr.setflags(write=False)
    return x1, x2, y1, y2


def concurrence_schmidt(form: SchmidtForm):
    """Concurrence from the Schmidt coefficients, ``2 k1 k2``."""
    _require_type(form, "form", SchmidtForm)
    return _out(np.minimum(1.0, 2.0 * form.k1 * form.k2))


def _unit_interval(x, what: str):
    """``x`` as floats clamped to [0, 1], rejecting values further than
    :data:`DOMAIN_TOL` outside it, and NaN."""
    x = _require_array(x, float, what)[()]
    outside = ~((x >= -DOMAIN_TOL) & (x <= 1.0 + DOMAIN_TOL))  # NaN too
    if _any(outside):
        bad = float(np.ravel(x)[np.ravel(outside)][0])
        raise ValidationError(f"{what} {bad!r} is outside [0, 1]")
    return np.minimum(1.0, np.maximum(0.0, x))


def _entropies(p: np.ndarray):
    """``-sum p log2 p`` along the last axis of ``p``, skipping each ``p``
    that is not positive (0, -0.0, NaN): a float for one distribution
    (``p.ndim == 1``), an array for a stack.  Every sum runs left to right
    from 0.0, for one distribution in Python floats.  On a stack a skipped
    entry becomes 1.0, whose term ``1.0 * log2(1.0)`` is an exact 0.0 and
    changes no sum; ``log2`` is libm's (:func:`~ent23._exact.libm_map`) and
    ``np.subtract.reduce`` keeps the order, so each row has the bits of the
    one-distribution sum."""
    if p.ndim == 1:
        total = 0.0
        for x in p.tolist():
            if x > 0.0:
                total -= x * math.log2(x)
        return total
    q = np.where(p > 0.0, p, 1.0)
    return np.subtract.reduce(q * libm_map(np.log2, q), axis=-1, initial=0.0)


def _binary_entropies(x: np.ndarray):
    """:func:`binary_entropy` of each element of ``x``, already in [0, 1]."""
    pairs = (x, 1.0 - x)
    return _entropies(np.stack(pairs, axis=-1) if x.ndim else np.array(pairs))


def binary_entropy(x):
    """Entropy in bits of the distribution ``(x, 1 - x)``, elementwise.

    The endpoint convention ``0 log 0 = 0`` applies; inputs within
    :data:`DOMAIN_TOL` outside [0, 1] are clamped, anything further out is a
    domain error.
    """
    return _binary_entropies(_unit_interval(x, "binary entropy argument"))


def eof_from_concurrence(c):
    """Entanglement of formation of a pure state with concurrence ``c``, elementwise.

    ``h((1 + sqrt(1 - c**2)) / 2)`` with the root argument clamped at zero;
    strictly increasing from 0 at ``c = 0`` to 1 at ``c = 1``.
    """
    c = _unit_interval(c, "concurrence")
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
    return _entropies(np.minimum(1.0, np.maximum(0.0, eigenvalues)))


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
    return _measure(_require_type(psi, "psi", PureState))[0]
