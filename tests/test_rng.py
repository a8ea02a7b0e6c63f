import hashlib
import math
import statistics
import warnings

import numpy as np
import pytest

from ent23 import RandomStream, ValidationError

# First eight draws of the pinned generator for seed 42, recorded at first
# implementation; any change to the algorithm or to libm rounding shows here.
GOLDEN_SEED42 = [
    0.4147197504315305,
    -0.8918862136277562,
    1.7295930879374015,
    0.5456204361828646,
    -1.080412954982541,
    -1.7788480910585858,
    -1.1456184297395176,
    0.26045053911027205,
]

#: sha256 of the float64 bytes of the first 20000 draws for seed 42, from
#: the one-draw-at-a-time code that predates block draws, which applied
#: libm's log and cos to each draw.  Block draws apply libm's log per element,
#: since NumPy's X86_V4 np.log changes these bytes, and call np.cos, which
#: keeps them on every SIMD level (tests/test_numpy_cos.py).
GOLDEN_SEED42_DIGEST = "96e8ea8cd53c767686cb981b6ee62ee25ee680a335000d49cad0136b135de091"

MASK64 = (1 << 64) - 1


def reference_gaussians(seed, counter, n):
    """The stream's definition in Python integers, one draw at a time."""
    def word():
        nonlocal counter
        counter = (counter + 1) & MASK64
        z = (seed + counter * 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) >> 11

    draws = []
    for _ in range(n):
        u = (word() + 1) * 2.0 ** -53
        v = word() * 2.0 ** -53
        draws.append(math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v))
    return draws, counter


@pytest.mark.parametrize("n", (1, 2, 3000))
@pytest.mark.parametrize("counter", (0, 2 ** 64 - 3))
@pytest.mark.parametrize("seed", (0, 2 ** 64 - 1))
def test_block_equals_one_draw_at_a_time(seed, counter, n):
    # A counter of 2**64 - 3 wraps inside the block; an overflow warning fails.
    expected, end = reference_gaussians(seed, counter, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block_stream, single_stream = RandomStream(seed, counter), RandomStream(seed, counter)
        block = block_stream.next_gaussian(n)
        singles = [single_stream.next_gaussian() for _ in range(n)]
    assert block.shape == (n,) and block.tolist() == singles == expected
    assert all(type(x) is float for x in singles)
    assert block_stream.counter == single_stream.counter == end


def test_block_draws_match_golden_digest():
    draws = RandomStream(42).next_gaussian(20000)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_SEED42_DIGEST


def test_block_size_is_checked():
    stream = RandomStream(3)
    assert stream.next_gaussian(0).shape == (0,) and stream.counter == 0
    with pytest.raises(ValidationError):
        stream.next_gaussian(-1)
    assert stream.counter == 0


def test_golden_sequence():
    stream = RandomStream(42)
    assert [stream.next_gaussian() for _ in range(8)] == GOLDEN_SEED42


def test_equal_seeds_equal_sequences():
    a = RandomStream(987654321)
    b = RandomStream(987654321)
    assert [a.next_gaussian() for _ in range(100)] == \
           [b.next_gaussian() for _ in range(100)]


def test_different_seeds_differ():
    a = RandomStream(1)
    b = RandomStream(2)
    assert [a.next_gaussian() for _ in range(10)] != \
           [b.next_gaussian() for _ in range(10)]


def test_counter_advances_two_per_gaussian():
    stream = RandomStream(7)
    stream.next_gaussian()
    assert stream.counter == 2
    stream.next_gaussian()
    assert stream.counter == 4


def test_resumes_from_counter():
    a = RandomStream(5)
    for _ in range(4):
        a.next_gaussian()
    b = RandomStream(5, counter=a.counter)
    assert b.next_gaussian() == a.next_gaussian()


def test_sample_mean_and_spread():
    stream = RandomStream(123)
    draws = stream.next_gaussian(100_000)
    # 3 sigma of the mean is ~0.0095 at this n
    assert abs(statistics.fmean(draws)) < 0.02
    assert abs(statistics.pstdev(draws) - 1.0) < 0.02


def test_seed_wraps_to_64_bits():
    assert RandomStream(2 ** 64 + 3).seed == 3


@pytest.mark.parametrize("seed, counter", [(2.5, 0), (2.0, 0), (np.float64(42.0), 0),
                                           ("42", 0), (None, 0), (42, 2.9), (42, 2.0),
                                           (True, 0), (42, False)])
def test_non_integer_seed_or_counter_is_rejected(seed, counter):
    # Truncating would silently draw another stream: 2.5 gave seed 2's, and
    # True seed 1's.
    with pytest.raises(ValidationError, match="must be an integer, got "):
        RandomStream(seed, counter)


def test_integer_seeds_of_any_kind_are_taken_mod_2_64():
    for seed in (42, np.int64(42), np.uint64(42), 2 ** 200 + 42):
        stream = RandomStream(seed)
        assert type(stream.seed) is int and stream.seed == 42
        assert [stream.next_gaussian() for _ in range(8)] == GOLDEN_SEED42
    assert RandomStream(-1).seed == RandomStream(np.int64(-1)).seed == MASK64
    stream = RandomStream(42, counter=np.int64(-2))
    assert type(stream.counter) is int and stream.counter == MASK64 - 1
