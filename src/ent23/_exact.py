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
  stacked dot gave other bits.  So the layout is decided once, at the input
  gate: ``linalg._require_array`` returns a C-ordered copy of every array a
  caller passes, and every stack built inside the package is C-ordered or a
  row slice of one.  Two copies remain: :func:`norm` copies its argument,
  because ``hermitian_eigvecs2`` passes it a transposed, Fortran-ordered
  candidate array, and ``bases.decompose`` copies its coefficients, slices
  of one trace array, so that they do not keep the whole array alive.
- Some of NumPy's SIMD math loops differ from libm (glibc) in the last bit,
  and which ones depends on the level NumPy dispatches to.  Mismatches on
  1M inputs each, NumPy 2.4.6 on AVX-512, levels set with
  ``NPY_DISABLE_CPU_FEATURES``; the last column is the call on the input
  reversed, ``f(x[::-1])[::-1]``, at each of the three levels:

  ==========  ================  ==========  =============  ==============
  function    default (X86_V4)  X86_V4 off  X86_V3+V4 off  reversed input
  ==========  ================  ==========  =============  ==============
  ``cos``     0                 0           0              0
  ``log``     3542 (0.35 %)     0           0              0
  ``log2``    1935 (0.19 %)     0           0              0
  ``arccos``  93596 (9.4 %)     0           0              0
  ==========  ================  ==========  =============  ==============

  The inputs were the stream's (``cos``, ``log``) and uniform ones in the
  entropies' range (0, 1] (``log2``) and the solver's [-1, 1] (``arccos``).
  On a reversed input NumPy does not take its SIMD loop but its per-element
  one, which calls libm: 5 to 20 ns per element, where a Python call of the
  ``math`` function costs ~110 ns.  Two traps take the SIMD loop again, and
  differed on the same inputs: a ufunc call on a 0-d input, and a reversed
  input together with an ``out=`` reversed with it; so does a 2-D input
  reversed along its first axis only.  :func:`libm_map` therefore ravels,
  reverses the whole, and lets NumPy allocate the output.  ``np.cos`` also
  matched on the 19.9M inputs of ``tests/test_numpy_cos.py`` at each level,
  as :func:`libm_map` of ``np.log``, ``np.log2`` and ``np.arccos`` did on
  that test's 11.5M; it checks both on every level the host can run.  So
  the random stream's Box-Muller and the 3x3 solver call ``np.cos``, and the
  stream's ``log``, the solver's ``acos`` and the entropies' ``log2`` go
  through :func:`libm_map`.  The entropies' sums keep their left-to-right
  order (:func:`ent23.measures._entropies`).
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
- The encoder adds real parts only, on the float view of the matrix.  The
  real part of einsum's product ``(re + i im)(c + i d)`` is
  ``re c - im d``, and one of ``c``, ``d`` is zero, so one of the two
  partial products is an exact zero: the inputs are finite, so no
  ``inf * 0`` makes it NaN.  What einsum keeps is therefore the other
  product rounded once, ``fl(re c)`` or ``fl(-im d) = fl(im * -d)``, up to
  the sign of a zero result, and the FMA loop rounds it the same way.  The
  real sums start from +0.0 and add these products in einsum's order; a sum
  that starts at +0 is +0 wherever it is zero, so the sign of a zero term
  never reaches it, and every partial sum has einsum's bits.  The imaginary
  parts, ``re d + im c``, are summed the same way, and only where the
  ``TRACE_IMAG_TOL`` check reads them.
- The decoder stays complex.  Its products, a real coefficient times a real
  or imaginary weight, also have one exact-zero partial product, but einsum's
  ``sqrt(3) * V`` and ``/ 6`` are complex operations: on an entry whose sum
  overflowed to inf, the zero partial product is ``inf * 0``, and the other
  part becomes NaN (coefficients of 1.7e308 give ``inf+nanj``).  A decoder
  in real arithmetic keeps that part finite and loses einsum's bits.
- The decoder adds terms only for the 21 entries on and above the diagonal
  and mirrors them to the 15 below as ``np.conj(z) + 0.0``.  Every operator
  is Hermitian, so entry ``(b, a)`` sums the nonzero terms of ``(a, b)`` in
  the same order, with imaginary parts negated, and rounding is
  sign-symmetric (``fl(-x) = -fl(x)``); a zero sum is +0 in both, because a
  sum that starts at +0 never comes out as -0.  Conjugation negates exactly
  and would make that zero -0; ``+ 0.0`` makes it +0 and changes no other
  bit (no sum of the triangle is -0).  It comes before the final ``/ 6.0``, which NumPy computes as a
  product with ``fl(1/6)``: that underflows a subnormal to a zero of its
  sign, and ``+ 0.0`` after it would give +0 where einsum gives -0
  (coefficients of scale 5e-324).
- The stacked ``matmul`` for the qubit reduced matrix matched bit for bit.
- The 3x3 guard ``root == 0 -> other = big`` stays apart from the 2x2 form
  ``det / (big + (big == 0))``, whose numerator vanishes with ``big``.  The
  deflated pair's product need not: it carries rounding noise of ~eps, so
  where the discriminant rounds to 0 the pair is ``pair_sum/2`` twice, not
  that noise divided by a tiny ``big``.  ``big == 0`` implies ``root == 0``,
  so the zero pair is covered too.
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
    """``f`` (``np.log``, ``np.log2`` or ``np.arccos``) of each float of the
    array or NumPy scalar ``x``, with libm's bits, as an array of ``x``'s
    shape: a reversed input runs NumPy's per-element loop, which calls libm.
    ``x`` is raveled, so a 0-d input is not called as one, and NumPy
    allocates the output (both traps are in the module notes)."""
    return f(x.ravel()[::-1])[::-1].reshape(x.shape)


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` of each pair of vectors along the last axis."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0][()]


def norm(z: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each complex vector along the last axis of ``z``,
    in any memory layout: as there, the stride-2 real and imaginary parts of
    a C-ordered copy are dotted separately (here in one stacked ``matmul``)
    and added."""
    z = np.ascontiguousarray(z)
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
