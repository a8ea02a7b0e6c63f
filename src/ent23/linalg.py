"""Closed-form eigensolvers for 2x2 and 3x3 Hermitian matrices.

Every matrix this package diagonalizes has dimension 2 or 3, so instead of an
iterative general-purpose routine both solvers use exact algebraic forms: the
2x2 case reduces to a quadratic in the trace and determinant, the 3x3 case to
the trigonometric solution of the shifted characteristic cubic.  The 2x2
quadratic is evaluated on its numerically stable branch -- the larger-magnitude
root comes from the sign-matched formula and the other from the product
``det / root`` -- which keeps the small eigenvalue of a nearly rank-deficient
matrix accurate to machine precision instead of ``sqrt(eps)``.

All functions are pure and thread-safe.  NaN/Inf inputs are rejected at the
boundary; nothing downstream is expected to cope with them.

One function, :func:`_numbers`, converts a caller's array input, for every
array check of the package: :func:`require_finite`,
:func:`require_hermitian` (through it) and :func:`_require_array` call it.
Numbers are NumPy's bool, integer, float and complex dtypes, as arrays,
NumPy scalars, Python numbers or rectangular nested lists of them.  Ragged
input and every other dtype are rejected: text and bytes (numeric text
too), ``None``, other objects, and Python ints beyond the float range,
which NumPy holds as objects.  On an ndarray the conversion is one
``np.asarray`` call, which neither copies nor runs a ufunc.

All three solvers take a stack of ``N`` matrices as well as one, and give each
the bits of a one-matrix call (:mod:`ent23._exact`).

No-op steps are skipped.  Every argument a caller passes is checked
(:func:`_checked`) and tested for scaling (:func:`_scaled`); the one value
that skips both is the Schmidt route's qubit matrix, which
:func:`~ent23.measures.schmidt_decompose` builds from a checked state and
passes to :func:`hermitian_eigvecs2` wrapped in the private :class:`_Valid`
(why each skipped step would do nothing there: "Valid by construction" in
the :mod:`ent23.bases` notes).  When :func:`_scaled` scales no matrix, the
eigenvalues are not passed through ``np.ldexp(w, 0)``, which returns every
float -- zeros of either sign and subnormals included -- unchanged.
:func:`hermitian_eigvecs2` assigns the standard basis only when some
spectrum is degenerate; an all-false mask would assign nothing.  Neither
skip can change a bit.  Both decisions, and :func:`_scaled`'s, read their
mask with :func:`_any`, which reads one matrix's as a NumPy bool.

:func:`hermitian_eigvecs2` divides both candidate null vectors by their own
norms and picks the longer, which is the one divided by the larger norm, and
takes the complement ``(-conj(c1), conj(c0))`` of ``(c0, c1)`` with ``-``
and ``np.conj``, which negate exactly, zero signs included; the bits are
those of the one-vector arithmetic.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from ._exact import TINY, cmul, libm_map, minor, modulus, norm, square
from .errors import ValidationError

#: Maximum entrywise deviation from the conjugate transpose accepted as Hermitian.
HERMITICITY_TOL = 1e-12

#: Eigenvalue gap below which a 2x2 matrix is treated as a multiple of the
#: identity and the standard basis is returned as its eigenbasis.
DEGENERACY_TOL = 1e-12


def _numbers(values, what: str) -> np.ndarray:
    """``np.asarray(values)``, rejecting ragged input and any dtype but bool,
    integer, float and complex (module notes)."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged, or nested deeper than NumPy allows
        raise ValidationError(f"{what} is not a rectangular array of numbers ({exc})") from None
    if arr.dtype.kind not in "biufc":
        raise ValidationError(f"{what} is not a rectangular array of numbers (dtype {arr.dtype})")
    return arr


def _require_type(value, what: str, *types: type):
    """Return ``value`` if it is an instance of one of ``types``, which its
    caller reads attributes of: an array in their place would raise
    ``AttributeError``."""
    if not isinstance(value, types):
        raise ValidationError(f"{what} must be a {' or '.join(t.__name__ for t in types)}, "
                              f"got {type(value).__name__}")
    return value


def require_finite(values, what: str = "input") -> np.ndarray:
    """Return ``values`` as an ndarray (:func:`_numbers`), rejecting NaN or
    Inf entries."""
    arr = _numbers(values, what)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains NaN or Inf entries")
    return arr


def require_integer(value, what: str) -> int:
    """Return ``value`` as an ``int``, rejecting non-integers: ``2.0`` too,
    and ``True``, which ``operator.index`` would take as 1 (as NumPy before
    2.0 takes ``np.True_``, with a ``DeprecationWarning``)."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def require_real(value, what: str):
    """Return ``value`` if it is a ``numbers.Real`` other than a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    return value


def require_count(value, what: str, minimum: int = 1) -> int:
    """Return ``value`` as an ``int`` (:func:`require_integer`) >= ``minimum``."""
    count = require_integer(value, what)
    if count < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {count}")
    return count


def require_tolerance(value) -> None:
    """Raise unless the tolerance ``value`` is a finite real number >= 0
    (:func:`require_real`)."""
    if not 0.0 <= require_real(value, "tol") < math.inf:
        raise ValidationError(f"tol must be finite and >= 0, got {value!r}")


def require_hermitian(matrix, tol: float = HERMITICITY_TOL, what: str = "matrix") -> None:
    """Raise unless ``matrix``, or each matrix of a stack ``(N, d, d)``, is a
    finite array of numbers (:func:`require_finite`) that equals its
    conjugate transpose within ``tol`` (:func:`require_tolerance`)."""
    require_tolerance(tol)
    m = require_finite(matrix, what)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    if m.dtype.kind in "biu":  # an integer difference can wrap
        m = m.astype(float)
    # A difference beyond the float range is inf, which the test below rejects.
    # ``item`` keeps a long double, whose range is wider, and gives a float
    # otherwise; the deviation is compared and printed at that precision.
    with np.errstate(over="ignore"):
        deviation = np.abs(m - np.conj(m.swapaxes(-1, -2))).max(initial=0.0).item()
    if deviation > tol:
        raise ValidationError(
            f"{what} is not Hermitian: max deviation "
            f"{np.format_float_scientific(deviation, precision=3, unique=False)} exceeds {tol:g}"
        )


def _worst(errors: np.ndarray) -> tuple[int, str]:
    """Flat index of the largest per-item error and, for a stack, a note naming it."""
    index = int(errors.argmax())
    return index, (f" (item {index} of the stack)" if errors.ndim else "")


def _require_array(values, dtype, what: str) -> np.ndarray:
    """``np.array(values, dtype, order="C")`` of numbers (:func:`_numbers`):
    a new C-ordered array whatever the input's layout, so that no kernel's
    bits depend on how a caller's array was stored (:mod:`ent23._exact`).
    Where reals are asked for, complex input is rejected too: NumPy would
    drop its imaginary part.  A long double (dtype char ``g`` or ``G``), the
    one number wider than ``dtype``, beyond the float range becomes inf
    without a warning; the caller's finiteness or range test rejects it."""
    arr = _numbers(values, what)
    if dtype is float and arr.dtype.kind == "c":
        raise ValidationError(f"{what} must be real, got complex input")
    if arr.dtype.char in "gG":
        with np.errstate(over="ignore"):
            return np.array(arr, dtype, order="C")
    return np.array(arr, dtype, order="C")


def _require_stack(values, shapes, what: str) -> np.ndarray:
    """``values`` as a new complex array of one of the 2-D ``shapes``, or a
    nonempty stack ``(N, ...)`` of arrays of one of them; finiteness is the
    caller's check."""
    arr = _require_array(values, complex, what)
    if arr.shape[-2:] not in shapes or arr.ndim not in (2, 3) or arr.size == 0:
        raise ValidationError(f"{what} must have shape {' or '.join(map(str, shapes))}, "
                              f"or be a nonempty stack (N, ...) of them; got shape {arr.shape}")
    return arr


def _checked(matrix, dim: int) -> np.ndarray:
    """``matrix`` as a finite, Hermitian complex ``(dim, dim)`` or ``(N, dim, dim)``
    array (:func:`require_hermitian` tests finiteness)."""
    m = _require_stack(matrix, ((dim, dim),), "matrix")
    require_hermitian(m)
    return m


def _any(mask) -> bool:
    """Whether any entry of an array, or a NumPy scalar, is nonzero.  A
    one-entry mask (one matrix's or one state's) is read by its truth value,
    and a larger one by ``np.count_nonzero``; both are far cheaper than
    ``.any()``, a ufunc reduction."""
    return bool(mask if mask.size == 1 else np.count_nonzero(mask))


_SCALE_LIMIT = 2.0 ** 500


def _scaled(m: np.ndarray) -> tuple[np.ndarray, np.ndarray | int]:
    """``(m * 2**-shift, shift)`` for a checked ``(..., d, d)`` array, which
    :func:`_checked` makes C-ordered, so its float view needs no copy.

    Squares of entries above ~1e154 overflow, and those of nonzero entries
    below ~1e-154 underflow.  Those matrices, and only they, are scaled by
    the power of two that brings their largest real or imaginary part into
    [0.5, 1), which is exact; every other matrix gets ``shift = 0`` and keeps
    its bits (``shift`` is the integer 0 when no matrix is scaled).
    Eigenvalues of the scaled matrix are scaled back by :func:`_unscaled`.
    """
    parts = m.view(float)
    largest = np.abs(parts).max(axis=(-2, -1))
    outside = (largest > _SCALE_LIMIT) | (largest < 1.0 / _SCALE_LIMIT)
    if not _any(outside):
        return m, 0
    shift = np.where(outside, np.frexp(largest)[1], 0)
    return np.ldexp(parts, -shift[..., None, None]).view(complex), shift


def _unscaled(w, shift: np.ndarray | int) -> np.ndarray:
    """``np.ldexp(w, shift)``: ``w`` as an array, scaled back by :func:`_scaled`'s
    ``shift``.  When nothing was scaled (``shift`` is the int 0) that is the
    identity on every float, so ``w`` is only made an array.  An eigenvalue
    scaled back beyond the float range is inf, without a warning."""
    if type(shift) is int:
        return np.asarray(w)
    with np.errstate(over="ignore"):
        return np.ldexp(w, shift)


def _eig2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues ``(w1, w2)`` of a checked ``(..., 2, 2)`` array.

    Entries are read as ``m.T[j, i]`` (that is ``m[..., i, j]``), which is a
    NumPy scalar for one matrix, so that the arithmetic below runs on scalars
    rather than on one-element arrays; for a stack it is an array.
    """
    a, d, b = m.T[0, 0].real, m.T[1, 1].real, m.T[1, 0]
    b_sq = b.real * b.real + b.imag * b.imag
    trace = a + d
    root = np.sqrt((a - d) * (a - d) + 4.0 * b_sq)
    # The root of the trace's sign (trace + 0.0 maps -0.0 to +0.0, which
    # takes the + branch), so the two never cancel.
    big = 0.5 * (trace + np.copysign(root, trace + 0.0))
    # big == 0 only when trace and discriminant both vanish: the zero matrix,
    # whose eigenvalues are (0, 0); dividing by 1 there gives det = 0.
    other = (a * d - b_sq) / (big + (big == 0.0))
    # Descending order.  max/min pick the same values as comparing the two,
    # since they differ only on equal values of opposite zero sign, and big
    # is never -0.0.
    return np.maximum(big, other), np.minimum(big, other)


def hermitian_eig2(matrix):
    """Eigenvalues of a 2x2 Hermitian matrix, descending.

    Roots of ``x**2 - tr*x + det = 0``.  The discriminant is assembled as
    ``(a - d)**2 + 4|b|**2``, which is nonnegative by construction and free of
    cancellation; the smaller-magnitude root is recovered through the product
    of roots.  Matrices with entries beyond ``2**±500`` are solved scaled
    (:func:`_scaled`).  One matrix gives a tuple of two floats; a stack
    ``(N, 2, 2)`` gives an ``(N, 2)`` array, each row descending.
    """
    m, shift = _scaled(_checked(matrix, 2))
    w = _unscaled(_eig2(m), shift)
    return tuple(w.tolist()) if m.ndim == 2 else w.T


_EYE2 = np.eye(2, dtype=complex)
_EYE2.setflags(write=False)


class _Valid:
    """An array built valid by construction (:mod:`ent23.bases` notes): the
    constructor or solver it is passed to uses it without running its checks."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def hermitian_eigvecs2(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns, 2x2.

    When the spectrum is degenerate within :data:`DEGENERACY_TOL` the matrix
    is a multiple of the identity up to that tolerance and the standard basis
    is returned, which keeps outputs deterministic.  The second column is the
    exact orthogonal complement of the first, so the pair is orthonormal to
    machine precision regardless of conditioning.  Matrices with entries
    beyond ``2**±500`` are solved scaled (:func:`_scaled`), but the
    degeneracy test stays absolute: it compares the eigenvalues scaled back,
    so a spectrum narrower than ``DEGENERACY_TOL`` takes the standard basis
    however small the matrix.  A stack ``(N, 2, 2)`` gives values ``(N, 2)``
    and vectors ``(N, 2, 2)``.
    """
    # The Schmidt route's matrix is checked and unscaled by construction
    # (ent23.bases notes); every other argument is checked here.
    m, shift = (matrix.array, 0) if type(matrix) is _Valid else _scaled(_checked(matrix, 2))
    w1, w2 = _eig2(m)
    b = m.T[1, 0]
    # Rows: two null vectors of (m - w1), built transposed, each divided by
    # its norm; the longer one is divided by the larger norm, and is taken.
    # Only a degenerate matrix, replaced below, can give two zero rows.
    cands = np.array(((b, w1 - m.T[1, 1].real), (w1 - m.T[0, 0].real, np.conj(b)))).T
    norms = norm(cands)
    cands = cands / np.maximum(norms, TINY)[..., None]
    v1 = np.where((norms[..., 0] >= norms[..., 1])[..., None], cands[..., 0, :], cands[..., 1, :])
    # The eigenvectors as rows, built transposed: v1 and its orthogonal complement.
    c0, c1 = v1.T
    rows = np.array(((c0, -np.conj(c1)), (c1, np.conj(c0)))).T
    w = _unscaled((w1, w2), shift)
    if type(shift) is int:
        degenerate = w[0] - w[1] <= DEGENERACY_TOL
    else:  # scaled back, a finite spectrum can be wider than the float range
        with np.errstate(over="ignore"):
            degenerate = w[0] - w[1] <= DEGENERACY_TOL
    if _any(degenerate):
        rows[degenerate] = _EYE2
    return w.T, rows.swapaxes(-1, -2)


def hermitian_eig3(matrix):
    """Eigenvalues of a 3x3 Hermitian matrix, descending.

    Shift by ``trace/3``, scale so the traceless remainder ``B`` satisfies
    ``tr(B**2) = 6``, then solve the depressed cubic trigonometrically: the
    eigenvalues of ``B`` are ``2*cos(phi + 2*pi*k/3)`` with
    ``cos(3*phi) = det(B)/2``.  Only the root on the side ``sign(det B)``
    points to is taken from the cosine form -- it is the isolated one, where
    the arccosine is flat -- and the remaining close pair comes from the
    deflated characteristic quadratic on the same stable branch as the 2x2
    solver.  (Near ``|cos(3*phi)| = 1`` the arccosine has unbounded
    derivative, so reading a nearly degenerate pair off the cosine form
    splits it by ~sqrt(eps); the deflation keeps exact inputs exact.)
    Matrices with entries beyond ``2**±500`` are solved scaled
    (:func:`_scaled`).  One matrix gives a tuple of three floats; a stack
    ``(N, 3, 3)`` gives an ``(N, 3)`` array, each row descending.
    """
    m, shift = _scaled(_checked(matrix, 3))
    a, b, c = m.T[0, 0].real, m.T[1, 1].real, m.T[2, 2].real
    s01, s02, s12 = (square(modulus(z)) for z in (m.T[1, 0], m.T[2, 0], m.T[2, 1]))
    trace = a + b + c
    q = trace / 3.0
    p2 = square(a - q) + square(b - q) + square(c - q) + 2.0 * ((s01 + s02) + s12)
    # p2 == 0 gives (q, q, q), selected at the end; p = 1 keeps it finite.
    p = np.sqrt(p2 / 6.0) + (p2 == 0.0)
    # Parts of (m - q I) / p, transposed so that a per-matrix q and p broadcast.
    s = (m.T - np.multiply.outer(np.eye(3), q)) / p
    re, im = s.real, s.imag
    # Real part of the cofactor expansion along row 0.
    t = [cmul((re[j, 0], im[j, 0]), minor(re, im, 1, 2, *cols))[0]
         for j, cols in enumerate(((1, 2), (0, 2), (0, 1)))]
    r = np.clip(((t[0] - t[1]) + t[2]) / 2.0, -1.0, 1.0)
    phi = libm_map(np.arccos, r) / 3.0
    angle = np.where(r >= 0.0, phi, phi + 2.0 * math.pi / 3.0)
    isolated = q + 2.0 * p * np.cos(angle)
    minors = (a * b - s01) + (a * c - s02) + (b * c - s12)
    pair_sum = trace - isolated
    pair_prod = minors - isolated * pair_sum
    root = np.sqrt(np.maximum(0.0, pair_sum * pair_sum - 4.0 * pair_prod))
    big = 0.5 * np.where(pair_sum >= 0.0, pair_sum + root, pair_sum - root)
    # Unlike the 2x2 solver, pair_prod need not vanish where big does.
    other = np.where(big == 0.0, 0.0, pair_prod / (big + (big == 0.0)))
    w = -np.sort(-np.array((isolated, big, other)), axis=0)
    w = _unscaled(np.where(p2 == 0.0, q, w), shift)
    return tuple(w.tolist()) if m.ndim == 2 else w.T
