import statistics

from ent23 import RandomStream

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
    draws = [stream.next_gaussian() for _ in range(100_000)]
    # 3 sigma of the mean is ~0.0095 at this n
    assert abs(statistics.fmean(draws)) < 0.02
    assert abs(statistics.pstdev(draws) - 1.0) < 0.02


def test_uniform_in_unit_interval():
    stream = RandomStream(9)
    for _ in range(1000):
        u = stream.next_uniform()
        assert 0.0 <= u < 1.0


def test_seed_wraps_to_64_bits():
    assert RandomStream(2 ** 64 + 3).seed == 3
