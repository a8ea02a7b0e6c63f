"""Counter-based deterministic random stream.

The raw generator is splitmix64: output ``i`` of a stream with seed ``s`` is
the splitmix64 bit-mix of ``s + i * 0x9E3779B97F4A7C15`` (mod 2**64).  The
whole stream state is therefore the ``(seed, counter)`` pair, two streams with
equal seeds produce identical sequences, and nearby seeds give statistically
independent streams because the mix function decorrelates them.

Gaussian draws use the Box-Muller transform (cosine branch) and consume
exactly two raw words each, so the counter advances by two per draw.  The
sequence for a given seed is reproducible bit-for-bit wherever ``log``,
``cos`` and ``sqrt`` are correctly rounded, which holds on every mainstream
libm; the test suite pins a golden sequence to detect drift.

Streams are plain mutable values.  Concurrent samplers must not share one
stream, and there is no split operation: give each sampler its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class RandomStream:
    """Deterministic stream of pseudo-random draws identified by a 64-bit seed."""

    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _MASK64
        self.counter = int(self.counter) & _MASK64

    def _next_word(self) -> int:
        self.counter = (self.counter + 1) & _MASK64
        return _mix64((self.seed + self.counter * _GOLDEN) & _MASK64)

    def next_uniform(self) -> float:
        """Uniform draw in [0, 1) with 53-bit resolution."""
        return (self._next_word() >> 11) * _INV_2_53

    def next_gaussian(self) -> float:
        """Standard normal draw."""
        u = ((self._next_word() >> 11) + 1) * _INV_2_53   # in (0, 1], log-safe
        v = (self._next_word() >> 11) * _INV_2_53          # in [0, 1)
        return math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v)
