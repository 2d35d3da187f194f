"""Seeded synthetic tabular datasets for experiments and fixtures.

Everything here flows from the package PRNG, so a (generator, seed) pair
pins the dataset bytes exactly. Each row is a fixed run of draws from one
stream, drawn in bulk with next_u64_array and laid out one row per line:

* linearly_separable, 3 per row: x0, x1, then the group, randbelow(2).
* census, 14 per row: the group z = randbelow(2); age, education, hours,
  capital and tenure; dependents = randbelow(5), urban = randbelow(2) and
  sector = randbelow(4); commute, three noise draws, then the label's noise
  draw. A uniform is (draw >> 11) * 2^-53, randbelow(2) and randbelow(4)
  are draw % n, and randbelow(5) rejects the draw 2^64 - 1 alone: that draw
  is dropped and the stream read on, so its row takes 15 draws.

uniform_in(lo, hi) is lo + (hi - lo) * u. Every hi - lo here is exact, and
where lo is 0.0 the sum is the product, which is never -0.0.

The draws become the same floats, bit for bit, that the per-draw loops in
tests/engine_oracle.py make: numpy does only + - * /, comparisons and
minimum, in the loops' order, and the libm calls (pow, sin, exp) stay scalar.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .rng import Xoshiro256StarStar, uniforms

_CENSUS_SCHEMA = (
    "age",
    "education_years",
    "hours_per_week",
    "capital",
    "tenure",
    "dependents",
    "urban",
    "sector",
    "commute",
    "noise1",
    "noise2",
    "noise3",
)
_CENSUS_DRAWS = 14
_DEPENDENTS = 6  # the census column drawn with randbelow(5)
_U64_MAX = np.uint64(2**64 - 1)
_SIN_SECTOR = np.array([math.sin(float(sector)) for sector in range(4)])


def _check_size(value: int, name: str) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative: {value}")


def _separable_rows(n_rows: int, margin: float, rng: Xoshiro256StarStar) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The features, labels and groups of linearly_separable's rows."""
    draws = rng.next_u64_array(3 * n_rows).reshape(n_rows, 3)
    x0 = -3.0 + 6.0 * uniforms(draws[:, 0])
    x1 = -3.0 + 6.0 * uniforms(draws[:, 1])
    labels = np.arange(n_rows) % 2
    half_margin = margin / 2.0
    norm = math.sqrt(2.0)
    side = np.where(labels == 1, 1.0, -1.0)
    dist = (x0 + x1) / norm
    shift = side * half_margin - dist
    push = np.where(labels == 1, dist < half_margin, dist > -half_margin)
    features = np.column_stack([np.where(push, x0 + shift / norm, x0), np.where(push, x1 + shift / norm, x1)])
    return features, labels, (draws[:, 2] % np.uint64(2)).astype(np.int64)


def linearly_separable(n_rows: int = 200, margin: float = 1.0, seed: int = 7) -> Dataset:
    """Two-feature, two-class set separable by x0 + x1 = 0 with the given margin.

    Points are sampled in [-3, 3]^2 and pushed away from the boundary until
    each class sits at distance >= margin / 2 from it. Sensitive groups are
    assigned independently of the label.
    """
    _check_size(n_rows, "n_rows")
    return Dataset.from_rows(("f1", "f2"), *_separable_rows(n_rows, margin, Xoshiro256StarStar(seed)))


def _census_rows(n_rows: int, rng: Xoshiro256StarStar) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Census-like tabular rows: the 12 features of _CENSUS_SCHEMA, a binary
    income label and a binary group per row.

    The label follows a noisy nonlinear score of the demographic features
    (sigmoid steepness 3.0 puts the noise ceiling in the high 0.80s), and the
    stored features are pre-scaled to unit-ish ranges so a tanh MLP trains
    without a separate normalization pass.
    """
    draws = rng.next_u64_array(_CENSUS_DRAWS * n_rows)
    while len(rejected := np.flatnonzero(draws[_DEPENDENTS::_CENSUS_DRAWS] == _U64_MAX)):
        at = _CENSUS_DRAWS * int(rejected[0]) + _DEPENDENTS
        draws = np.concatenate([draws[:at], draws[at + 1 :], rng.next_u64_array(1)])
    draws = draws.reshape(n_rows, _CENSUS_DRAWS)
    u = uniforms(draws)
    groups = (draws[:, 0] % np.uint64(2)).astype(np.int64)
    z = groups.astype(np.float64)
    age = 18.0 + 52.0 * u[:, 1]
    edu = 6.0 + 12.0 * u[:, 2]
    hours = 10.0 + 50.0 * u[:, 3]
    capital = np.array([v**3 for v in u[:, 4].tolist()]) * 10.0
    tenure = np.minimum(age - 16.0, 30.0) * u[:, 5]
    dependents = (draws[:, _DEPENDENTS] % np.uint64(5)).astype(np.float64)
    urban = (draws[:, 7] % np.uint64(2)).astype(np.float64)
    sector_index = (draws[:, 8] % np.uint64(4)).astype(np.intp)
    sector = sector_index.astype(np.float64)
    commute = 2.0 * u[:, 9]
    noise = -1.0 + 2.0 * u[:, 10:13]

    score = (
        0.09 * (edu - 12.0)
        + 0.035 * (hours - 38.0)
        + 0.28 * capital
        + 0.05 * (tenure - 8.0)
        + 0.015 * (age - 42.0)
        - 0.0011 * np.array([v**2 for v in (age - 45.0).tolist()])
        + 0.22 * urban * (edu > 13.0)
        + 0.09 * _SIN_SECTOR[sector_index]
        - 0.07 * dependents
        + 0.16 * z
    )
    p = 1.0 / (1.0 + np.array([math.exp(v) for v in (-3.0 * score).tolist()]))
    labels = (u[:, 13] < p).astype(np.int64)

    scaled = (age / 10.0, edu / 3.0, hours / 10.0, capital / 2.0, tenure / 10.0, dependents / 2.0, urban)
    features = np.column_stack([*scaled, sector / 2.0, commute, noise])
    return features, labels, groups


def census_split(n_train: int = 6000, n_test: int = 2000, seed: int = 2026) -> tuple[Dataset, Dataset]:
    """Documented split for the reference experiment: one generator stream,
    first n_train rows train, next n_test rows test. The rows are generated
    once, and each half is built from its own rows by Dataset.from_rows."""
    _check_size(n_train, "n_train")
    _check_size(n_test, "n_test")
    features, labels, sensitive = _census_rows(n_train + n_test, Xoshiro256StarStar(seed))
    train, test = slice(None, n_train), slice(n_train, None)
    return (
        Dataset.from_rows(_CENSUS_SCHEMA, features[train], labels[train], sensitive[train]),
        Dataset.from_rows(_CENSUS_SCHEMA, features[test], labels[test], sensitive[test]),
    )
