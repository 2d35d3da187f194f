"""The stream generator is checked against an independent transliteration of
the published splitmix64 / xoshiro256** reference algorithms, plus frozen
vectors derived from that transliteration."""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.engine.rng import SHUFFLE_CHUNK, Xoshiro256StarStar, splitmix64_stream

_M = (1 << 64) - 1


def _oracle_splitmix64(seed: int, count: int) -> list[int]:
    x = seed & _M
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _M
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
        out.append(z ^ (z >> 31))
    return out


class _OracleXoshiro:
    def __init__(self, state: list[int]) -> None:
        self.s = list(state)

    def next(self) -> int:
        def rotl(x: int, k: int) -> int:
            return ((x << k) | (x >> (64 - k))) & _M

        s = self.s
        result = (rotl((s[1] * 5) & _M, 7) * 9) & _M
        t = (s[1] << 17) & _M
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return result


# First splitmix64 output for seed 0 is the reference implementation's
# published value 0xE220A8397B1DCDAF.
SPLITMIX64_SEED0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
]

# Frozen from the oracle transliteration above.
XOSHIRO_STATE_1234 = [11520, 0, 1509978240, 1215971899390074240, 1216172134540287360]
XOSHIRO_SEED42 = [
    1546998764402558742,
    6990951692964543102,
    12544586762248559009,
    17057574109182124193,
    18295552978065317476,
]


def test_splitmix64_published_vector():
    assert splitmix64_stream(0, 4) == SPLITMIX64_SEED0


def test_splitmix64_matches_oracle():
    for seed in (0, 1, 42, 2**63, _M):
        assert splitmix64_stream(seed, 16) == _oracle_splitmix64(seed, 16)


def test_xoshiro_frozen_vectors():
    oracle = _OracleXoshiro([1, 2, 3, 4])
    assert [oracle.next() for _ in range(5)] == XOSHIRO_STATE_1234

    rng = Xoshiro256StarStar(42)
    assert [rng.next_u64() for _ in range(5)] == XOSHIRO_SEED42


def test_stream_matches_oracle_for_many_seeds():
    for seed in (0, 1, 7, 42, 123456789, 2**61):
        rng = Xoshiro256StarStar(seed)
        oracle = _OracleXoshiro(_oracle_splitmix64(seed, 4))
        assert [rng.next_u64() for _ in range(256)] == [oracle.next() for _ in range(256)]


def test_uniform_range_and_determinism():
    rng1, rng2 = Xoshiro256StarStar(9), Xoshiro256StarStar(9)
    draws = [rng1.uniform() for _ in range(1000)]
    assert draws == [rng2.uniform() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)


def test_randbelow_bounds_and_rough_uniformity():
    rng = Xoshiro256StarStar(11)
    counts = [0] * 5
    for _ in range(5000):
        counts[rng.randbelow(5)] += 1
    assert min(counts) > 800  # ~1000 each

    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_shuffled_indices_is_permutation():
    rng = Xoshiro256StarStar(13)
    order = rng.shuffled_indices(100)
    assert sorted(order) == list(range(100))
    assert order != list(range(100))
    # same seed, same permutation
    assert Xoshiro256StarStar(13).shuffled_indices(100) == order


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(-1)


def test_seed_past_64_bits_rejected():
    """splitmix64 reads its seed mod 2^64, so a wider seed would name the
    stream of a smaller one."""
    assert Xoshiro256StarStar(_M).next_u64() == _OracleXoshiro(_oracle_splitmix64(_M, 4)).next()
    for seed in (2**64, 2**64 + 1, 2**100):
        with pytest.raises(ValueError, match=r"^seed must be in 0 \.\. 2\^64 - 1"):
            Xoshiro256StarStar(seed)


def _randbelow_shuffle(rng: Xoshiro256StarStar, n: int) -> list[int]:
    """The shuffle rule spelled with the public draws: Fisher-Yates from the
    top index down, j = randbelow(i + 1)."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@pytest.mark.parametrize("seed", [0, 1, 42, 2**61])
def test_shuffled_indices_matches_the_randbelow_loop(seed):
    fast, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    for n in (0, 1, 2, 3, 255, 256, 6000):
        assert fast.shuffled_indices(n) == _randbelow_shuffle(reference, n)
        assert fast._s == reference._s
    assert fast.next_u64() == reference.next_u64()


seeds = st.sampled_from([0, 2**63, _M]) | st.integers(0, _M)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    # lanes are cut at powers of two near the square root of the count
    count=st.sampled_from([0, 1, 2, 3, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097])
    | st.sampled_from([SHUFFLE_CHUNK - 1, SHUFFLE_CHUNK, SHUFFLE_CHUNK + 1, 10**5])
    | st.integers(0, 3000),
)
def test_bulk_draws_equal_the_next_u64_draws(seed, count):
    bulk, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    draws = bulk.next_u64_array(count)
    assert draws.dtype == np.uint64
    assert draws.tolist() == [reference.next_u64() for _ in range(count)]
    assert bulk._s == reference._s


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    bounds=st.lists(
        # above 2^63 about half the draws are rejected; a power of two accepts every draw
        st.integers(2**63 - 64, 2**63 + 64) | st.integers(0, 63).map(lambda k: 2**k) | st.integers(1, _M),
        max_size=300,
    ),
)
def test_bulk_rejection_equals_the_randbelow_loop(seed, bounds):
    bulk, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    got = bulk.randbelow_array(np.array(bounds, dtype=np.uint64))
    assert got.tolist() == [reference.randbelow(b) for b in bounds]
    assert bulk._s == reference._s


def test_randbelow_array_refuses_a_zero_bound():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(1).randbelow_array(np.array([3, 0], dtype=np.uint64))


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=st.integers(0, 400))
def test_shuffled_orders_read_the_stream_a_chunk_at_a_time(seed, n):
    """Orders whose draws span several chunks are the randbelow loop's, and
    no bulk request is larger than a chunk."""
    count = 2 * SHUFFLE_CHUNK // max(n - 1, 1) + 1
    bulk, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    real = Xoshiro256StarStar.next_u64_array
    with patch.object(Xoshiro256StarStar, "next_u64_array", autospec=True, side_effect=real) as requests:
        for order in bulk.shuffled_orders(n, count):
            assert order == _randbelow_shuffle(reference, n)
    assert bulk._s == reference._s
    assert max((call.args[1] for call in requests.call_args_list), default=0) <= SHUFFLE_CHUNK
