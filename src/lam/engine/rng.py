"""Explicitly specified PRNG so trained-model digests are reproducible from
the documented algorithm alone, independent of any platform RNG.

Generator: xoshiro256** (Blackman & Vigna). State seeding: four successive
outputs of splitmix64 over the 64-bit seed. Derived draws:

* uniform():   (next_u64() >> 11) * 2^-53, in [0, 1)
* randbelow(n): unbiased rejection sampling on the 64-bit stream: a draw
  above (2^64 // n) * n - 1 is dropped and the next one is read
* shuffle order: Fisher-Yates from the top index down, j = randbelow(i + 1)

All of these orderings are part of the training determinism contract.

next_u64, uniform and randbelow are the scalar reference. The *_array draws
and the shuffles give the same values and leave the same state, but produce
the stream in bulk: the state update is linear over GF(2), so lanes a fixed
number of steps apart step in lockstep as numpy uint64 arrays. Every integer
operand is an np.uint64 and words are split with shifts, so the result
depends neither on numpy's promotion rules nor on the host byte order.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Iterator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_U64_MAX = np.uint64(_MASK64)
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)
# The most bounds one shuffled_orders chunk draws for, and so the most
# draws one next_u64_array request makes while shuffling: 512 KB of draws.
SHUFFLE_CHUNK = 1 << 16


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


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The states (rows of four uint64 words) multiplied by the bit matrix
    whose nibble tables are `tables`: the XOR of one entry per nibble."""
    nibbles = ((states[:, :, None] >> _NIBBLE_SHIFTS) & np.uint64(0xF)).reshape(len(states), 64)
    return np.bitwise_xor.reduce(tables[np.arange(64), nibbles], axis=1)


def uniforms(draws: np.ndarray) -> np.ndarray:
    """uniform() of each of the uint64 draws, as a float64 array."""
    return (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53


@cache
def _jump_tables(steps: int) -> np.ndarray:
    """The 256x256 bit matrix T^steps of `steps` (a power of two) state
    updates, as 64 nibble tables: entry [p, v] is T^steps of the state whose
    nibble p (bits 4p .. 4p + 3 of the 256) is v and all else zero. Kept for
    the life of the process, 32 KB each; byte tables would take 256 KB."""
    if steps == 1:
        columns, rng = [], Xoshiro256StarStar(0)
        for bit in range(256):
            rng._s = [1 << bit % 64 if word == bit // 64 else 0 for word in range(4)]
            rng.next_u64()
            columns.append(rng._s)
        columns = np.array(columns, dtype=np.uint64)
    else:
        half = _jump_tables(steps // 2)
        columns = _apply(half, half[:, [1, 2, 4, 8]].reshape(256, 4))
    tables = np.zeros((64, 16, 4), dtype=np.uint64)
    columns = columns.reshape(64, 4, 4)
    for b in range(4):
        tables[:, 1 << b : 2 << b] = tables[:, : 1 << b] ^ columns[:, b, None, :]
    tables.setflags(write=False)
    return tables


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state initialization."""

    __slots__ = ("_s",)

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:  # splitmix64 would read a larger seed mod 2^64
            raise ValueError(f"seed must be in 0 .. 2^64 - 1: {seed}")
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

    def next_u64_array(self, count: int) -> np.ndarray:
        """The next `count` next_u64 draws as a uint64 array, leaving the
        state as those calls would. Lane k makes the `stride` draws from
        k * stride on, stride a power of two near sqrt(count); the lanes are
        started by doubling them with the jumps T^(stride * 2^j), then step
        in lockstep."""
        if count < 0:
            raise ValueError(f"count must be nonnegative: {count}")
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        stride = 1 << (count.bit_length() // 2)
        lanes = -(-count // stride)
        state, jump = np.array([self._s], dtype=np.uint64), stride
        while len(state) < lanes:
            state = np.concatenate([state, _apply(_jump_tables(jump), state[: lanes - len(state)])])
            jump *= 2
        s0, s1, s2, s3 = state.T.copy()
        last_steps = count - (lanes - 1) * stride  # the last lane's share, 1 to stride
        history = np.empty((stride, lanes), dtype=np.uint64)
        t = np.empty_like(s1)
        for step in range(stride):
            history[step] = s1
            np.left_shift(s1, np.uint64(17), out=t)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3[:] = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
            if step + 1 == last_steps:
                self._s = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]
        x = history.T.reshape(-1)[:count] * np.uint64(5)
        return ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)

    def uniform_array(self, count: int) -> np.ndarray:
        """The next `count` uniform() draws as a float64 array."""
        return uniforms(self.next_u64_array(count))

    def randbelow_array(self, bounds: np.ndarray) -> np.ndarray:
        """randbelow(b) for each b of `bounds` in turn, as a uint64 array,
        leaving the state as those calls would. Draws are checked in bulk
        against the largest value randbelow(b) accepts; a rejected draw is
        dropped and the stream is read on from the next one."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        if bounds.size and not bounds.min():
            raise ValueError("randbelow needs n >= 1")
        limits = _U64_MAX - (_U64_MAX % bounds + np.uint64(1)) % bounds  # (2^64 // b) * b - 1
        out = np.empty_like(bounds)
        done = 0
        while done < len(bounds):
            draws = self.next_u64_array(len(bounds) - done)
            while len(draws):
                rejected = np.flatnonzero(draws > limits[done : done + len(draws)])
                accepted = int(rejected[0]) if len(rejected) else len(draws)
                out[done : done + accepted] = draws[:accepted] % bounds[done : done + accepted]
                done += accepted
                draws = draws[accepted + 1 :]
        return out

    def shuffled_orders(self, n: int, count: int) -> Iterator[list[int]]:
        """The orders of `count` successive shuffled_indices(n) calls, one
        at a time. Their j values are drawn in chunks of SHUFFLE_CHUNK that
        run across orders, so the state is that of those calls once the
        last order has been yielded."""
        total = max(n - 1, 0) * count

        def chunk(start: int) -> list[int]:
            position = np.arange(start, min(start + SHUFFLE_CHUNK, total), dtype=np.uint64)
            return self.randbelow_array(np.uint64(n) - position % np.uint64(n - 1)).tolist()

        draws = chain.from_iterable(map(chunk, range(0, total, SHUFFLE_CHUNK)))
        for _ in range(count):
            order = list(range(n))
            for i, j in zip(range(n - 1, 0, -1), draws):
                order[i], order[j] = order[j], order[i]
            yield order

    def shuffled_indices(self, n: int) -> list[int]:
        """Fisher-Yates from the top index down, j = randbelow(i + 1)."""
        return next(self.shuffled_orders(n, 1))
