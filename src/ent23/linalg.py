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

All three solvers take a stack of ``N`` matrices as well as one, and give each
the bits of a one-matrix call (:mod:`ent23._exact`).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._exact import TINY, cmul, libm_map, minor, modulus, norm, square
from .errors import ValidationError

#: Maximum entrywise deviation from the conjugate transpose accepted as Hermitian.
HERMITICITY_TOL = 1e-12

#: Eigenvalue gap below which a 2x2 matrix is treated as a multiple of the
#: identity and the standard basis is returned as its eigenbasis.
DEGENERACY_TOL = 1e-12


def require_finite(values, what: str = "input") -> np.ndarray:
    """Return ``values`` as an ndarray, rejecting NaN or Inf entries."""
    arr = np.asarray(values)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains NaN or Inf entries")
    return arr


def require_count(value, what: str, minimum: int = 1) -> int:
    """Return ``value`` as an ``int``, rejecting non-integers (``2.0`` too)
    and values below ``minimum``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {count}")
    return count


def require_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL,
                      what: str = "matrix") -> None:
    """Raise unless ``matrix``, or each matrix of a stack ``(N, d, d)``, equals
    its conjugate transpose within ``tol``."""
    deviation = float(np.abs(matrix - np.conj(matrix.swapaxes(-1, -2))).max())
    if deviation > tol:
        raise ValidationError(
            f"{what} is not Hermitian: max deviation {deviation:.3e} exceeds {tol:g}"
        )


def _worst(errors: np.ndarray) -> tuple[int, str]:
    """Flat index of the largest per-item error and, for a stack, a note naming it."""
    index = int(errors.argmax())
    return index, (f" (item {index} of the stack)" if errors.ndim else "")


def _require_stack(values, shapes, what: str) -> np.ndarray:
    """``values`` as a new finite complex array of one of the 2-D ``shapes``,
    or a nonempty stack ``(N, ...)`` of arrays of one of them."""
    arr = np.array(values, dtype=complex)
    if arr.shape[-2:] not in shapes or arr.ndim not in (2, 3) or arr.size == 0:
        raise ValidationError(f"{what} must have shape {' or '.join(map(str, shapes))}, "
                              f"or be a nonempty stack (N, ...) of them; got shape {arr.shape}")
    return require_finite(arr, what)


def _checked(matrix, dim: int) -> np.ndarray:
    """``matrix`` as a finite, Hermitian complex ``(dim, dim)`` or ``(N, dim, dim)`` array."""
    m = _require_stack(matrix, ((dim, dim),), "matrix")
    require_hermitian(m)
    return m


_SCALE_LIMIT = 2.0 ** 500


def _scaled(m: np.ndarray) -> tuple[np.ndarray, np.ndarray | int]:
    """``(m * 2**-shift, shift)`` for a checked ``(..., d, d)`` array.

    Squares of entries above ~1e154 overflow, and those of nonzero entries
    below ~1e-154 underflow.  Those matrices, and only they, are scaled by
    the power of two that brings their largest real or imaginary part into
    [0.5, 1), which is exact; every other matrix gets ``shift = 0`` and keeps
    its bits (``shift`` is the integer 0 when no matrix is scaled).
    Eigenvalues of the scaled matrix are scaled back by ``np.ldexp(w, shift)``.
    """
    parts = np.ascontiguousarray(m).view(float)
    largest = np.abs(parts).max(axis=(-2, -1))
    outside = (largest > _SCALE_LIMIT) | (largest < 1.0 / _SCALE_LIMIT)
    if not outside.any():
        return m, 0
    shift = np.where(outside, np.frexp(largest)[1], 0)
    return np.ldexp(parts, -shift[..., None, None]).view(complex), shift


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
    w = np.ldexp(_eig2(m), shift)
    return tuple(w.tolist()) if m.ndim == 2 else w.T


_EYE2 = np.eye(2, dtype=complex)
_EYE2.setflags(write=False)


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
    m, shift = _scaled(_checked(matrix, 2))
    w1, w2 = _eig2(m)
    b = m.T[1, 0]
    # Rows of the candidates are two null vectors of (m - w1); take the longer.
    cands = np.empty_like(m)
    cands[..., 0, 0] = b
    cands[..., 0, 1] = w1 - m.T[0, 0].real
    cands[..., 1, 0] = w1 - m.T[1, 1].real
    cands[..., 1, 1] = np.conj(b)
    norm_a, norm_b = norm(cands).T
    v1 = np.where((norm_a >= norm_b)[..., None], cands[..., 0, :], cands[..., 1, :])
    # Only a degenerate matrix, replaced below, can give two zero candidates.
    v1 = v1 / np.maximum(np.maximum(norm_a, norm_b), TINY)[..., None]
    c0, c1 = v1.T
    # Built transposed: columns v1 and its orthogonal complement; (2,) values
    # and (2, 2) vectors for one matrix, (N, 2) and (N, 2, 2) for a stack.
    vectors = np.array(((c0, c1), (-np.conj(c1), np.conj(c0)))).T
    w = np.ldexp((w1, w2), shift)
    vectors[w[0] - w[1] <= DEGENERACY_TOL] = _EYE2
    return w.T, vectors


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
    phi = libm_map(math.acos, r) / 3.0
    angle = np.where(r >= 0.0, phi, phi + 2.0 * math.pi / 3.0)
    isolated = q + 2.0 * p * libm_map(math.cos, angle)
    minors = (a * b - s01) + (a * c - s02) + (b * c - s12)
    pair_sum = trace - isolated
    pair_prod = minors - isolated * pair_sum
    root = np.sqrt(np.maximum(0.0, pair_sum * pair_sum - 4.0 * pair_prod))
    big = 0.5 * np.where(pair_sum >= 0.0, pair_sum + root, pair_sum - root)
    # Unlike the 2x2 solver, pair_prod need not vanish where big does.
    other = np.where(big == 0.0, 0.0, pair_prod / (big + (big == 0.0)))
    w = -np.sort(-np.array((isolated, big, other)), axis=0)
    w = np.ldexp(np.where(p2 == 0.0, q, w), shift)
    return tuple(w.tolist()) if m.ndim == 2 else w.T
