"""Arithmetic that gives a stack the bits of one call per element.

Every kernel of this package takes a stack of ``N`` inputs as well as one,
and evaluates it with elementwise NumPy.  A stack must give the same bits as
``N`` separate calls, and the same bits as the scalar code these kernels
replaced, so that outputs printed to 12 or 15 digits never change.  Several
obvious array calls break that (measured with NumPy 2.4 on AVX-512, 20000
Haar states); the primitives here are the calls that do not, and the other
modules use them instead:

- Complex-array ``*`` runs a fused multiply-add SIMD loop and differed in the
  last bit from NumPy's scalar complex multiply on 8590 states; a product
  that was scalar is written out in real arithmetic (:func:`cmul`,
  :func:`minor`), which matched on all.
- ``np.abs`` of a complex array differed from the scalar modulus on 6871
  states; ``np.hypot(re, im)`` matched on all (:func:`modulus`).
- Array ``x ** 2`` is a plain square and differed from scalar ``x ** 2``
  (libm ``pow``) on 18 states; ``np.float_power(x, 2.0)`` calls ``pow``
  (:func:`square`).
- ``np.einsum("ni,ni->n")`` norms differed from ``np.linalg.norm`` on 2154
  (length 3) and 5242 (length 8) states: the latter is a BLAS dot.  A
  stacked ``matmul`` of a row by a column makes that same BLAS call per
  vector, with the same strides, and matched on all (:func:`dot`,
  :func:`norm`).  The strides matter: from a Fortran-ordered stack the
  stacked dot gave other bits, so stacks are kept in C order.
- NumPy's SIMD ``log``, ``log2``, ``acos`` and ``cos`` differ from libm's in
  the last bit: ``np.log`` differed from ``math.log`` on 657 of 200000
  inputs.  The random stream's Box-Muller and the 3x3 solver apply libm per
  element (:func:`libm_map`); the entropies sum ``p log2 p`` per element in
  Python.
- The codec (:mod:`ent23.bases`) adds only the nonzero terms where
  ``einsum`` added all 36, and gives einsum's bits.  Every column of every
  operator holds at most one nonzero, so einsum's partial sums of a trace
  take its nonzero terms one at a time, from 0.0, in ascending position
  ``6a + b``, as the sparse sums do.  In one decoder group, an entry sums
  at most two nonzero terms in its real part and two in its imaginary
  part, so their order (ascending ``k``) cannot change a bit.  The zero
  weights that pad the tables add only +-0, and a sum that starts from +0
  never comes out as -0.  Every operator entry is real or purely
  imaginary, so one partial product of each complex product is an exact
  zero, and the FMA loop of complex ``*`` rounds as einsum's products do.
  ``take`` keeps each gathered stack in C order; ``x[..., index]`` gave
  Fortran order.
- The stacked ``matmul`` for the qubit reduced matrix matched bit for bit.
- The 3x3 guard ``big == 0 -> other = 0`` stays apart from the 2x2 form
  ``det / (big + (big == 0))``, whose numerator vanishes with ``big``; the
  deflated pair's product need not, and sharing changed 103 of 22317 spectra.
"""

from __future__ import annotations

import numpy as np

#: Smallest positive normal float: a floor that keeps a divisor nonzero.
TINY = np.finfo(float).tiny


def square(x):
    """``x ** 2`` of each element, rounded as libm ``pow`` (scalar ``x ** 2``)."""
    return np.float_power(x, 2.0)


def modulus(z):
    """``abs(z)`` of each complex element, as the scalar modulus rounds it."""
    return np.hypot(z.real, z.imag)


def libm_map(f, x) -> np.ndarray:
    """``f`` (a ``math`` function) of each element of ``x``, as an array of
    ``x``'s shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` of each pair of vectors along the last axis."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0][()]


def norm(z: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each complex vector along the last axis of ``z``,
    which must be contiguous: as there, the stride-2 real and imaginary parts
    are dotted separately (here in one stacked ``matmul``) and added."""
    parts = z.view(np.float64).reshape(z.shape + (2,)).swapaxes(-1, -2)
    squares = np.matmul(parts[..., None, :], parts[..., :, None])
    return np.sqrt(squares[..., 0, 0, 0] + squares[..., 1, 0, 0])


def unit(z: np.ndarray) -> np.ndarray:
    """Each complex vector along the last axis of ``z`` divided by its :func:`norm`."""
    return z / norm(z)[..., None]


def cmul(x, y):
    """``x * y`` of ``(re, im)`` pairs, rounded as NumPy's scalar complex multiply."""
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def minor(re, im, r, s, j, k):
    """``(re, im)`` of the 2x2 minor ``x[r, j] x[s, k] - x[r, k] x[s, j]``;
    ``re[j, i]`` and ``im[j, i]`` are the parts of ``x[i, j]``."""
    ur, ui = cmul((re[j, r], im[j, r]), (re[k, s], im[k, s]))
    vr, vi = cmul((re[k, r], im[k, r]), (re[j, s], im[j, s]))
    return ur - vr, ui - vi
