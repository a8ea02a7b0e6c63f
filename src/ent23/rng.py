"""Counter-based deterministic random stream.

The raw generator is splitmix64: output ``i`` of a stream with seed ``s`` is
the splitmix64 bit-mix of ``s + i * 0x9E3779B97F4A7C15`` (mod 2**64).  The
whole stream state is therefore the ``(seed, counter)`` pair, two streams with
equal seeds produce identical sequences, and nearby seeds give statistically
independent streams because the mix function decorrelates them.

Gaussian draws use the Box-Muller transform (cosine branch) and consume
exactly two raw words each, so the counter advances by two per draw.  The
sequence for a given seed is reproducible bit-for-bit wherever ``log`` and
``cos`` round as glibc's libm does (``sqrt`` is correctly rounded
everywhere); the test suite pins a golden sequence to detect drift.

Block draws.  Because word ``i`` depends on nothing but ``i``, a block of
words is computed at once from its counters, as in the counter-based
generators of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11): the mix runs on a ``np.uint64`` array, whose arithmetic wraps mod
2**64 exactly as the definition does.  ``next_gaussian(n)`` gives the bits of
``n`` one-draw calls and leaves the counter where they would.  The uniforms,
``sqrt`` and the products by ``-2.0`` and ``2.0 * pi`` are exact or
correctly rounded in NumPy too, and ``np.cos`` gives libm's bits on every
SIMD level measured.  NumPy's X86_V4 ``log`` does not, so ``log`` is libm's,
applied per element: :func:`~ent23._exact.libm_map` runs ``np.log`` on the
uniforms reversed, which NumPy evaluates in its per-element loop, a call of
libm's ``log`` per element (the table in :mod:`ent23._exact`).

Streams are plain mutable values.  Concurrent samplers must not share one
stream, and there is no split operation: give each sampler its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._exact import libm_map
from .linalg import require_count, require_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's bit-mix of each ``np.uint64`` in ``z``."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


@dataclass
class RandomStream:
    """Deterministic stream of pseudo-random draws identified by a 64-bit seed.
    An integer seed or counter is taken mod ``2**64``; a float or a bool is
    rejected."""

    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        self.seed = require_integer(self.seed, "seed") & _MASK64
        self.counter = require_integer(self.counter, "counter") & _MASK64

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` raw words, each shifted down to its top 53 bits."""
        # Array arithmetic throughout: it wraps mod 2**64 silently, where
        # np.uint64 scalars would warn on overflow.
        counters = np.uint64(self.counter) + np.arange(1, count + 1, dtype=np.uint64)
        self.counter = (self.counter + count) & _MASK64
        return _mix64(np.uint64(self.seed) + counters * _GOLDEN) >> np.uint64(11)

    def next_gaussian(self, n: int | None = None) -> float | np.ndarray:
        """Standard normal draw, or an array of the next ``n`` of them."""
        count = 1 if n is None else require_count(n, "n", 0)
        words = self._words(2 * count)
        u = (words[0::2] + np.uint64(1)) * _INV_2_53   # in (0, 1], log-safe
        v = words[1::2] * _INV_2_53                     # in [0, 1)
        draws = np.sqrt(-2.0 * libm_map(np.log, u)) * np.cos(_TWO_PI * v)
        return float(draws[0]) if n is None else draws
