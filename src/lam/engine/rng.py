"""Explicitly specified PRNG so trained-model digests are reproducible from
the documented algorithm alone, independent of any platform RNG.

Generator: xoshiro256** (Blackman & Vigna). State seeding: four successive
outputs of splitmix64 over the 64-bit seed. Derived draws:

* uniform():   (next_u64() >> 11) * 2^-53, in [0, 1)
* randbelow(n): unbiased rejection sampling on the 64-bit stream
* shuffle order: Fisher-Yates from the top index down, j = randbelow(i + 1)

All of these orderings are part of the training determinism contract.
"""

from __future__ import annotations

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of splitmix64 starting from `seed`."""
    x = seed & _MASK64
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state initialization."""

    __slots__ = ("_s",)

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        s = splitmix64_stream(seed, 4)
        if not any(s):  # all-zero state is invalid for xoshiro
            s[3] = 1
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        threshold = (2**64 // n) * n
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % n

    def shuffled_indices(self, n: int) -> list[int]:
        """Fisher-Yates from the top index down, j = randbelow(i + 1).

        This is next_u64 and randbelow's rejection rule inlined, with the
        state in locals and written back once at the end: the same order
        and the same final state as calling them in a loop.
        """
        order = list(range(n))
        s0, s1, s2, s3 = self._s
        for i in range(n - 1, 0, -1):
            bound = i + 1
            threshold = (2**64 // bound) * bound
            while True:
                x = (s1 * 5) & _MASK64
                r = (((x << 7) | (x >> 57)) * 9) & _MASK64
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
                if r < threshold:
                    break
            j = r % bound
            order[i], order[j] = order[j], order[i]
        self._s = [s0, s1, s2, s3]
        return order
