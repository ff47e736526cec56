"""Portable integer hashing and PRNG primitives.

FNV-1a (64-bit) backs feature hashing, seed derivation and content digests;
splitmix64 drives every synthetic-data and training random draw. Both are
exactly specified integer recurrences, so outputs are identical across
platforms, processes and Python versions.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

MASK64 = (1 << 64) - 1

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a hash. Strings are hashed as their UTF-8 bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & MASK64
    return h


def derive_seed(seed: int, index: int) -> int:
    """Per-item seed: FNV-1a over the little-endian bytes of (seed, index)."""
    payload = (seed & MASK64).to_bytes(8, "little") + (index & MASK64).to_bytes(8, "little")
    return fnv1a64(payload)


def derive_tagged_seed(seed: int, tag: str) -> int:
    """Independent sub-stream seed for a named purpose (e.g. "profile")."""
    return fnv1a64((seed & MASK64).to_bytes(8, "little") + tag.encode("utf-8"))


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (next_state, output)."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return state, z ^ (z >> 31)


_BLOCK = 4096


def splitmix64_outputs(seed: int, start: int, n: int) -> np.ndarray:
    """Outputs ``start`` .. ``start + n - 1`` of the splitmix64 stream from ``seed``, as uint64s.

    splitmix64 is counter-based: output k is mix(seed + (k + 1) * gamma), so
    any stretch of the stream costs one vectorised mix with no stepping.
    Only array arithmetic is used: it wraps mod 2**64 without the overflow
    warning that numpy scalar arithmetic raises.
    """
    z = np.arange(start + 1, start + 1 + n, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _splitmix64_blocks(seed: int, start: int):
    """The splitmix64 outputs from ``start`` on, as lists of _BLOCK ints."""
    while True:
        yield splitmix64_outputs(seed, start, _BLOCK).tolist()
        start += _BLOCK


class SplitMix64:
    """Deterministic PRNG over the splitmix64 recurrence.

    splitmix64 is counter-based (Steele, Lea and Flood, "Fast Splittable
    Pseudorandom Number Generators", OOPSLA 2014), so ``next_u64()`` serves
    outputs from a buffer that ``splitmix64_outputs`` fills _BLOCK outputs at
    a time, with exactly the bits of stepping ``splitmix64``. A generator
    made with ``start=k`` begins at output k: it draws what one that skipped
    k draws would.

    Every float is derived from a whole 64-bit output, and every method
    consumes a fixed number of draws (gauss may loop only on the measure-zero
    event uniform() == 0.0), so sequences are bit-stable given a seed.
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int, start: int = 0):
        self.next_u64 = chain.from_iterable(_splitmix64_blocks(seed, start)).__next__

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is < 2**-40 for desk-scale n."""
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        return self.next_u64() % n

    def gauss(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Box-Muller variate; two uniforms per call, no cached spare."""
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return mean + std * r * math.cos(2.0 * math.pi * u2)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time for the given rate (per second)."""
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        u = 1.0 - self.uniform()  # in (0, 1]
        return -math.log(u) / rate

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def weighted_index(self, weights: list[float]) -> int:
        """Index drawn proportionally to non-negative weights."""
        total = 0.0
        for w in weights:
            total += w
        u = self.uniform() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1
