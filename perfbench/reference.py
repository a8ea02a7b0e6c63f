"""Independent reference for the benchmark's correctness gate.

Nothing here imports ``ent23``.  The random stream is rebuilt from its
documented definition (splitmix64 words, Box-Muller cosine branch), and every
expected measure comes from numpy's SVD of the amplitude grid, so a defect in
the measured layers cannot hide in the values they are checked against.

For a pure state with singular values ``s1 >= s2`` of its amplitude grid:

- concurrence ``c = 2 s1 s2``, Schmidt coefficients ``k1 = s1``, ``k2 = s2``;
- qubit Bloch norm ``|u| = s1**2 - s2**2``;
- qutrit coherence norm ``|v|**2 = (3 (s1**4 + s2**4) - 1) / 2``, from
  ``rho_B = (I + sqrt(3) v.lambda) / 3`` and ``tr(rho_B**2) = s1**4 + s2**4``;
- entanglement of formation and subsystem entropy ``h(s1**2)`` in bits.

The compute-mixed inputs are drawn from the benchmark's own seeded
``numpy.random.Generator``, never from ``ent23.rng``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53

#: Raw words one (2, 3) Haar state consumes: 6 complex amplitudes, 2 Gaussian
#: draws each, 2 words per draw.
WORDS_PER_HAAR23 = 24

#: compute-mixed state families, in equal shares of the input pool.  The mix
#: is chosen to cover the program's branches, not measured from any traffic:
#: Haar states of both dims take the generic path; product states the
#: SCHMIDT_ZERO_TOL flush and the orthonormal extension of the second Schmidt
#: vector; near-product states (k2 from 1e-2 down to 1e-9) both sides of that
#: flush; rotated Bell states the degenerate-``rho_A`` branch of the 2x2
#: eigensolver; Schmidt pairs exact coefficients up to the rank-1 endpoint
#: ``k1 = 1``.
FAMILIES = ("haar23", "haar22", "product", "near_product", "rotated_bell", "schmidt_pair")

_SCHMIDT_GRID = (1.0 / math.sqrt(2.0), 0.75, math.sqrt(3.0) / 2.0, 0.9, 0.97, 1.0)


def splitmix64_words(seed: int, first_counter: int, count: int) -> np.ndarray:
    """Raw words of the stream ``seed`` at counters ``first_counter ..``.

    Word ``i`` is the splitmix64 mix of ``seed + i * 0x9E3779B97F4A7C15``
    (mod 2**64); a fresh stream's first word has counter 1.
    """
    counters = np.arange(first_counter, first_counter + count, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + counters * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def gaussians(seed: int, count: int) -> np.ndarray:
    """The first ``count`` Box-Muller draws of a fresh stream ``seed``."""
    words = splitmix64_words(seed, 1, 2 * count).reshape(count, 2)
    u = ((words[:, 0] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    v = (words[:, 1] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)


def haar23_amplitudes(seed: int, n: int) -> np.ndarray:
    """Amplitude grids ``(n, 2, 3)`` of ``ent23 sample --n n --seed seed``.

    Each amplitude takes two draws, real part first, in row-major order, and
    the grid is normalized as a whole.
    """
    g = gaussians(seed, n * WORDS_PER_HAAR23 // 2).reshape(n, 6, 2)
    amps = (g[:, :, 0] + 1j * g[:, :, 1]).reshape(n, 2, 3)
    return amps / np.linalg.norm(amps, axis=(1, 2), keepdims=True)


def svd_measures(amps: np.ndarray) -> dict[str, np.ndarray]:
    """Every reported measure of each grid in ``amps`` ``(N, 2, d_b)``."""
    s = np.linalg.svd(amps, compute_uv=False)
    s1, s2 = s[:, 0], s[:, 1]
    p1, p2 = s1 * s1, s2 * s2
    entropy = -(_xlog2x(p1) + _xlog2x(p2))
    return {
        "c": 2.0 * s1 * s2,
        "eof": entropy,
        "vn_entropy_a": entropy,
        "u_norm": p1 - p2,
        "v_norm": np.sqrt(np.maximum(0.0, (3.0 * (p1 * p1 + p2 * p2) - 1.0) / 2.0)),
        "k1": s1,
        "k2": s2,
    }


def _xlog2x(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    positive = p > 0.0
    out[positive] = p[positive] * np.log2(p[positive])
    return out


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian matrix with phases fixed."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _schmidt(k1: float, k2: float, d_b: int, ua=None, ub=None) -> np.ndarray:
    """``k1 |x1 y1> + k2 |x2 y2>`` with the columns of ``ua``/``ub`` as bases."""
    ua = np.eye(2) if ua is None else ua
    ub = np.eye(d_b) if ub is None else ub
    return k1 * np.outer(ua[:, 0], ub[:, 0]) + k2 * np.outer(ua[:, 1], ub[:, 1])


def family_state(family: str, rng: np.random.Generator, index: int) -> np.ndarray:
    """Amplitude grid of the ``index``-th state of ``family``.

    Families that exist in both dimensions alternate between (2, 3) and
    (2, 2) with ``index``; Schmidt pairs walk a fixed grid that includes the
    rank-1 endpoint ``k1 = 1``.
    """
    d_b = 3 if index % 2 == 0 else 2
    if family == "haar23" or family == "haar22":
        d = 3 if family == "haar23" else 2
        z = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        return z / np.linalg.norm(z)
    if family == "product":
        return np.outer(_unit(rng, 2), _unit(rng, d_b))
    if family == "near_product":
        # k2 log-uniform over [1e-9, 1e-2]: below 5e-8 the program flushes k2
        # to zero, above it the small-coefficient branch stays live.
        k2 = 10.0 ** -rng.uniform(2.0, 9.0)
        k1 = math.sqrt(1.0 - k2 * k2)
        return _schmidt(k1, k2, 3, _unitary(rng, 2), _unitary(rng, 3))
    if family == "rotated_bell":
        k = 1.0 / math.sqrt(2.0)
        return _schmidt(k, k, d_b, _unitary(rng, 2), _unitary(rng, d_b))
    if family == "schmidt_pair":
        k1 = _SCHMIDT_GRID[(index // 2) % len(_SCHMIDT_GRID)]
        return _schmidt(k1, math.sqrt(max(0.0, 1.0 - k1 * k1)), d_b)
    raise ValueError(f"unknown family {family!r}")


def mixed_pool(seed: int, size: int) -> list[tuple[str, np.ndarray]]:
    """``size`` (family, amplitudes) pairs, an equal share of each of FAMILIES.

    ``size`` must be a multiple of the number of families; the pool is
    shuffled so consecutive calls alternate families.
    """
    if size % len(FAMILIES):
        raise ValueError(f"pool size must be a multiple of {len(FAMILIES)}, got {size}")
    rng = np.random.default_rng(seed)
    pool = []
    for family in FAMILIES:
        pool.extend((family, family_state(family, rng, i)) for i in range(size // len(FAMILIES)))
    return [pool[i] for i in rng.permutation(len(pool))]
