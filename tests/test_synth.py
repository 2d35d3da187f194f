"""The synthetic datasets are drawn in bulk; they are held, float for float
and to the final generator state, to the per-draw loops in engine_oracle,
on seeded streams and on replayed streams that reach the rejection rule."""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from engine_oracle import reference_census_rows, reference_separable_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.engine.rng import Xoshiro256StarStar
from lam.engine.synth import _census_rows, _separable_rows, census_split, linearly_separable

_MAX = 2**64 - 1
_CENSUS_DRAWS = 14
_DEPENDENTS = 6

seeds = st.sampled_from([0, 1, 2**63, _MAX]) | st.integers(0, _MAX)
row_counts = st.sampled_from([0, 1, 2, 13, 1000]) | st.integers(0, 40)


def _assert_rows_equal(bulk, reference, width: int) -> None:
    features, labels, sensitive = bulk
    ref_features, ref_labels, ref_sensitive = reference
    assert features.dtype == np.float64
    assert np.array_equal(features, np.array(ref_features, dtype=np.float64).reshape(len(ref_labels), width))
    assert labels.tolist() == ref_labels
    assert sensitive.tolist() == ref_sensitive


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_rows=row_counts)
def test_census_rows_equal_the_per_draw_loop(seed, n_rows):
    bulk, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    _assert_rows_equal(_census_rows(n_rows, bulk), reference_census_rows(n_rows, reference), 12)
    assert bulk._s == reference._s


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_rows=row_counts, margin=st.sampled_from([0.0, 0.5, 2.5]) | st.floats(0.0, 8.0))
def test_separable_rows_equal_the_per_draw_loop(seed, n_rows, margin):
    bulk, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    _assert_rows_equal(_separable_rows(n_rows, margin, bulk), reference_separable_rows(n_rows, margin, reference), 2)
    assert bulk._s == reference._s


class _Replayed(Xoshiro256StarStar):
    """A generator that hands out a fixed list of draws, one at a time or in
    bulk; its state is how many it has handed out."""

    __slots__ = ("draws", "used")

    def __init__(self, draws: list[int]) -> None:
        super().__init__(0)
        self.draws, self.used = draws, 0

    def next_u64(self) -> int:
        self.used += 1
        return self.draws[self.used - 1]

    def next_u64_array(self, count: int) -> np.ndarray:
        assert self.used + count <= len(self.draws), "the replayed stream ran out"
        self.used += count
        return np.array(self.draws[self.used - count : self.used], dtype=np.uint64)


def _dependents(row: int) -> int:
    return _CENSUS_DRAWS * row + _DEPENDENTS


# Stream positions that hold 2^64 - 1 in a 5-row stream with spare draws,
# and how many draws randbelow(5) rejects: each one it rejects shifts the
# rest of the stream by one. Elsewhere the draw is taken: a uniform reads it
# as 1 - 2^-53, randbelow(2) as 1.
MAX_DRAW_PLACES = {
    "one dependents slot": ([_dependents(1)], 1),
    "the redraw rejected too": ([_dependents(1), _dependents(1) + 1], 2),
    "two rows running": ([_dependents(1), _dependents(2) + 1], 2),
    "the last row": ([_dependents(4), _dependents(4) + 1], 2),
    "the group draw": ([0], 0),
    "age": ([1], 0),
    "the label's noise draw": ([_CENSUS_DRAWS * 2 + 13], 0),
}


@pytest.mark.parametrize("places, rejected", MAX_DRAW_PLACES.values(), ids=MAX_DRAW_PLACES)
def test_census_rows_reject_like_the_per_draw_loop(places, rejected):
    draws = Xoshiro256StarStar(5).next_u64_array(_CENSUS_DRAWS * 5 + 4).tolist()
    for at in places:
        draws[at] = _MAX
    bulk, reference = _Replayed(draws), _Replayed(draws)
    _assert_rows_equal(_census_rows(5, bulk), reference_census_rows(5, reference), 12)
    assert bulk.used == reference.used == _CENSUS_DRAWS * 5 + rejected


def test_a_uniform_reads_the_largest_draw_as_just_below_one():
    draws = Xoshiro256StarStar(5).next_u64_array(_CENSUS_DRAWS).tolist()
    draws[1] = _MAX
    features, _, _ = _census_rows(1, _Replayed(draws))
    assert features[0, 0] == (18.0 + 52.0 * (1.0 - 2.0**-53)) / 10.0


def test_census_split_makes_no_scalar_draws():
    census_split(6000, 2000)  # builds the jump tables the bulk draws use
    real = Xoshiro256StarStar.next_u64
    with patch.object(Xoshiro256StarStar, "next_u64", autospec=True, side_effect=real) as scalar:
        census_split(6000, 2000)
    assert scalar.call_count == 0


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: census_split(-5, 10), "n_train"),
        (lambda: census_split(10, -3), "n_test"),
        (lambda: linearly_separable(-4), "n_rows"),
    ],
    ids=["n_train", "n_test", "n_rows"],
)
def test_a_negative_size_is_refused_before_any_draw(call, name):
    with patch.object(Xoshiro256StarStar, "next_u64_array") as draws:
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
            call()
    assert draws.call_count == 0


def test_a_negative_draw_count_is_refused():
    rng = Xoshiro256StarStar(3)
    state = list(rng._s)
    with pytest.raises(ValueError, match="^count must be nonnegative"):
        rng.next_u64_array(-3)
    assert rng._s == state


def test_a_seed_past_64_bits_names_no_dataset():
    with pytest.raises(ValueError, match="seed"):
        census_split(50, 10, 2**64 + 1)
    with pytest.raises(ValueError, match="seed"):
        linearly_separable(20, seed=2**64 + 3)
