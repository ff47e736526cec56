"""Hash and PRNG primitives against published vectors and an independent oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from warden.hashing import _BLOCK, MASK64, SplitMix64, derive_seed, fnv1a64, splitmix64, splitmix64_outputs


class ScalarSplitMix64(SplitMix64):
    """Reference generator: the same methods over one scalar splitmix64 step per draw."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state, out = splitmix64(self.state)
        return out


def fnv1a64_oracle(data: bytes) -> int:
    """Independent FNV-1a: same recurrence written differently (functional fold)."""
    from functools import reduce

    return reduce(lambda h, b: ((h ^ b) * 0x100000001B3) & MASK64, data, 0xCBF29CE484222325)


# published FNV-1a 64-bit reference vectors
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}


@pytest.mark.parametrize("data,expected", sorted(FNV_VECTORS.items()))
def test_fnv_published_vectors(data, expected):
    assert fnv1a64(data) == expected


def test_fnv_matches_independent_oracle():
    for text in ("read", "write|close", "job-0001", "x" * 100, "éléphant"):
        assert fnv1a64(text) == fnv1a64_oracle(text.encode("utf-8"))


def test_derive_seed_is_stable_and_spreads():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_splitmix_step_reference():
    # reference outputs computed from the splitmix64 definition
    state, out = splitmix64(0)
    assert state == 0x9E3779B97F4A7C15
    state2, out2 = splitmix64(state)
    assert state2 == (2 * 0x9E3779B97F4A7C15) & MASK64
    assert out != out2


def test_uniform_range_and_determinism():
    rng1, rng2 = SplitMix64(123), SplitMix64(123)
    seq1 = [rng1.uniform() for _ in range(1000)]
    seq2 = [rng2.uniform() for _ in range(1000)]
    assert seq1 == seq2
    assert all(0.0 <= u < 1.0 for u in seq1)


def test_gauss_moments():
    rng = SplitMix64(5)
    xs = [rng.gauss(10.0, 2.0) for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean - 10.0) < 0.1
    assert abs(math.sqrt(var) - 2.0) < 0.1


def test_expovariate_mean():
    rng = SplitMix64(6)
    xs = [rng.expovariate(4.0) for _ in range(20000)]
    assert abs(sum(xs) / len(xs) - 0.25) < 0.01
    assert min(xs) > 0.0


def test_shuffle_is_permutation():
    rng = SplitMix64(9)
    items = list(range(50))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_weighted_index_distribution():
    rng = SplitMix64(11)
    counts = [0, 0, 0]
    for _ in range(30000):
        counts[rng.weighted_index([1.0, 2.0, 7.0])] += 1
    total = sum(counts)
    assert abs(counts[0] / total - 0.1) < 0.02
    assert abs(counts[2] / total - 0.7) < 0.02


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15])
def test_block_stream_equals_scalar_recurrence(seed):
    # 20k draws cross four block boundaries
    fast, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    assert [fast.next_u64() for _ in range(20000)] == [oracle.next_u64() for _ in range(20000)]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15])
def test_interleaved_methods_equal_scalar_recurrence(seed):
    fast, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    pick = ScalarSplitMix64(seed ^ 0x5DEECE66D)  # chooses the call sequence
    for step in range(3000):
        op = pick.randrange(4)
        if op == 0:
            assert fast.uniform() == oracle.uniform()
        elif op == 1:
            n = 1 + pick.randrange(70000)
            assert fast.randrange(n) == oracle.randrange(n)
        elif op == 2:
            assert fast.gauss(3.0, 2.0) == oracle.gauss(3.0, 2.0)
        else:
            n = pick.randrange(40)
            xs, ys = list(range(n)), list(range(n))
            fast.shuffle(xs)
            oracle.shuffle(ys)
            assert xs == ys, step
    assert fast.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("seed", [0, 1, MASK64, 0x9E3779B97F4A7C15])
@pytest.mark.parametrize("start,n", [(0, 5), (0, 2 * _BLOCK + 3), (_BLOCK - 3, 7), (3 * _BLOCK + 11, _BLOCK + 2), (5, 0)])
def test_counter_outputs_equal_stepping_splitmix64(seed, start, n):
    state = seed
    stepped = []
    for _ in range(start + n):
        state, out = splitmix64(state)
        stepped.append(out)
    outputs = splitmix64_outputs(seed, start, n)
    assert outputs.dtype == np.uint64 and outputs.tolist() == stepped[start:]


@pytest.mark.parametrize("seed", [0, MASK64])
@pytest.mark.parametrize("start", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 5, 3 * _BLOCK + 1])
def test_a_generator_started_at_an_offset_equals_one_that_skipped_the_draws(seed, start):
    skipped = SplitMix64(seed)
    for _ in range(start):
        skipped.next_u64()
    offset = SplitMix64(seed, start)
    assert [offset.next_u64() for _ in range(2 * _BLOCK + 9)] == [skipped.next_u64() for _ in range(2 * _BLOCK + 9)]
    assert offset.gauss(1.0, 2.0) == skipped.gauss(1.0, 2.0) and offset.uniform() == skipped.uniform()
