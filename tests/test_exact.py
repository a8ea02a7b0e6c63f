"""Each primitive of ``ent23._exact`` has the bits of the scalar computation it
replaces, on one value and on every element of a stack."""

import math
from pathlib import Path

import numpy as np
import pytest

import ent23
from ent23._exact import cmul, dot, libm_map, minor, modulus, norm, square, unit
from test_batch import same_bits

N = 20000


def reals(rng, shape):
    """Signed values over many binades, zeros of both signs included."""
    x = rng.normal(size=shape) * np.exp2(rng.integers(-40, 40, size=shape))
    x.flat[:4] = 0.0, -0.0, 1.0, -1.0
    return x


def complexes(rng, shape):
    return reals(rng, shape) + 1j * reals(rng, shape)


def test_square_is_scalar_power():
    x = reals(np.random.default_rng(1), N)
    assert same_bits(square(x), np.array([v ** 2 for v in x.tolist()]))
    for v in x[:50]:
        assert same_bits(square(v), np.float64(float(v) ** 2))


def test_modulus_is_scalar_abs():
    z = complexes(np.random.default_rng(2), N)
    assert same_bits(modulus(z), np.array([abs(v) for v in z.tolist()]))
    for v in z[:50]:
        assert same_bits(modulus(v), np.float64(abs(complex(v))))


@pytest.mark.parametrize("ufunc, f, low, high", [(np.log, math.log, 1e-300, 1.0),
                                                 (np.log2, math.log2, 1e-300, 1.0),
                                                 (np.arccos, math.acos, -1.0, 1.0)])
@pytest.mark.parametrize("shape", [(), (1,), (2,), (3,), (N,), (N // 4, 4)])
def test_libm_map_is_per_element_libm(ufunc, f, low, high, shape):
    x = np.random.default_rng(3).uniform(low, high, size=N)
    libm = np.array([f(v) for v in x.tolist()])
    # The inputs on which NumPy's forward loop differs from libm come first,
    # so that the short shapes hold them too.  Where NumPy runs an X86_V4
    # loop there are some (tests/test_numpy_cos.py), and the test can fail.
    forward_differs = ufunc(x).view(np.int64) != libm.view(np.int64)
    order = np.argsort(~forward_differs, kind="stable")[:math.prod(shape)]
    x, expected = x[order].reshape(shape), libm[order].reshape(shape)
    assert same_bits(libm_map(ufunc, x), expected)
    if shape == ():
        assert same_bits(libm_map(ufunc, x[()]), expected)


@pytest.mark.parametrize("length", (3, 6, 8))
@pytest.mark.parametrize("kind", (reals, complexes))
def test_dot_is_per_vector_matmul(kind, length):
    rng = np.random.default_rng(4)
    x, y = kind(rng, (N, length)), kind(rng, (N, length))
    assert same_bits(dot(x, y), np.array([a @ b for a, b in zip(x, y)]))
    assert same_bits(dot(x[0], y[0]), x[0] @ y[0])


@pytest.mark.parametrize("length", (2, 3, 6))
def test_norm_and_unit_are_per_vector_linalg_norm(length):
    z = complexes(np.random.default_rng(5), (N, length))
    norms = np.array([np.linalg.norm(v) for v in z])
    assert same_bits(norm(z), norms)
    assert same_bits(norm(z[0]), np.linalg.norm(z[0]))
    z = z[1:]  # for length 2 the first vector is zero
    assert same_bits(unit(z), np.array([v / np.linalg.norm(v) for v in z]))
    assert same_bits(unit(z[0]), z[0] / np.linalg.norm(z[0]))


def test_cmul_and_minor_are_scalar_complex_arithmetic():
    rng = np.random.default_rng(6)
    x, y = complexes(rng, N), complexes(rng, N)
    expected = np.array([a * b for a, b in zip(x, y)])  # NumPy complex scalars
    re, im = cmul((x.real, x.imag), (y.real, y.imag))
    assert same_bits(re, expected.real) and same_bits(im, expected.imag)
    grids = complexes(rng, (N, 2, 3))
    for j, k in ((0, 1), (2, 0), (1, 2)):
        parts = minor(grids.real.T, grids.imag.T, 0, 1, j, k)
        expected = np.array([g[0, j] * g[1, k] - g[0, k] * g[1, j] for g in grids])
        assert same_bits(parts[0], expected.real) and same_bits(parts[1], expected.imag)
        one = minor(grids[0].real.T, grids[0].imag.T, 0, 1, j, k)
        assert same_bits(np.array(one), np.array((expected[0].real, expected[0].imag)))


def test_subtract_reduce_adds_in_order():
    # verify's purity sum and the stacked entropies add with subtract.reduce:
    # -fl(-s - p) = fl(s + p), one element after another.  Each 2**-53 is half
    # an ulp of 1.0 and rounds away on its own; pairwise summation adds them
    # first and keeps them.
    x = np.array([1.0] + [2.0 ** -53] * 1000)
    ordered = 0.0
    for v in x.tolist():
        ordered += v
    assert float(-np.subtract.reduce(x, initial=0.0)) == ordered == 1.0
    assert np.sum(x) != 1.0


def test_only_exact_module_calls_the_trap_workarounds():
    package = Path(ent23.__file__).parent
    for path in package.glob("*.py"):
        if path.name == "_exact.py":
            continue
        text = path.read_text(encoding="utf-8")
        for call in ("np.float_power", "np.vectorize", "np.fromiter(map("):
            assert call not in text, (path.name, call)
