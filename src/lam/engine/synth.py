"""Seeded synthetic tabular datasets for experiments and fixtures.

Everything here flows from the package PRNG, so a (generator, seed) pair
pins the dataset bytes exactly.
"""

from __future__ import annotations

import math

from .data import Dataset
from .rng import Xoshiro256StarStar


def linearly_separable(n_rows: int = 200, margin: float = 1.0, seed: int = 7) -> Dataset:
    """Two-feature, two-class set separable by x0 + x1 = 0 with the given margin.

    Points are sampled in [-3, 3]^2 and pushed away from the boundary until
    each class sits at distance >= margin / 2 from it. Sensitive groups are
    assigned independently of the label.
    """
    rng = Xoshiro256StarStar(seed)
    half_margin = margin / 2.0
    norm = math.sqrt(2.0)
    features, labels, sensitive = [], [], []
    for i in range(n_rows):
        x0 = rng.uniform_in(-3.0, 3.0)
        x1 = rng.uniform_in(-3.0, 3.0)
        label = i % 2
        side = 1.0 if label == 1 else -1.0
        dist = (x0 + x1) / norm
        shift = side * half_margin - dist
        if (side > 0 and dist < half_margin) or (side < 0 and dist > -half_margin):
            x0 += shift / norm
            x1 += shift / norm
        features.append([x0, x1])
        labels.append(label)
        sensitive.append(rng.randbelow(2))
    return Dataset.from_rows(("f1", "f2"), features, labels, sensitive)


def _census_rows(n_rows: int, seed: int) -> tuple[tuple[str, ...], list[list[float]], list[int], list[int]]:
    """Census-like tabular rows: the schema of 12 features, the features, a
    binary income label and a binary group per row.

    The label follows a noisy nonlinear score of the demographic features
    (sigmoid steepness 3.0 puts the noise ceiling in the high 0.80s), and the
    stored features are pre-scaled to unit-ish ranges so a tanh MLP trains
    without a separate normalization pass.
    """
    rng = Xoshiro256StarStar(seed)
    schema = (
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
    features, labels, sensitive = [], [], []
    for _ in range(n_rows):
        z = rng.randbelow(2)
        age = rng.uniform_in(18.0, 70.0)
        edu = rng.uniform_in(6.0, 18.0)
        hours = rng.uniform_in(10.0, 60.0)
        capital = rng.uniform() ** 3 * 10.0
        tenure = rng.uniform_in(0.0, min(age - 16.0, 30.0))
        dependents = float(rng.randbelow(5))
        urban = float(rng.randbelow(2))
        sector = float(rng.randbelow(4))
        commute = rng.uniform_in(0.0, 2.0)
        noise = [rng.uniform_in(-1.0, 1.0) for _ in range(3)]

        score = (
            0.09 * (edu - 12.0)
            + 0.035 * (hours - 38.0)
            + 0.28 * capital
            + 0.05 * (tenure - 8.0)
            + 0.015 * (age - 42.0)
            - 0.0011 * (age - 45.0) ** 2
            + 0.22 * urban * (edu > 13.0)
            + 0.09 * math.sin(sector)
            - 0.07 * dependents
            + 0.16 * z
        )
        noise_draw = rng.uniform()
        p = 1.0 / (1.0 + math.exp(-3.0 * score))
        label = 1 if noise_draw < p else 0

        row = [
            age / 10.0,
            edu / 3.0,
            hours / 10.0,
            capital / 2.0,
            tenure / 10.0,
            dependents / 2.0,
            urban,
            sector / 2.0,
            commute,
            *noise,
        ]
        features.append(row)
        labels.append(label)
        sensitive.append(z)
    return schema, features, labels, sensitive


def census_split(n_train: int = 6000, n_test: int = 2000, seed: int = 2026) -> tuple[Dataset, Dataset]:
    """Documented split for the reference experiment: one generator stream,
    first n_train rows train, next n_test rows test. The rows are generated
    once, and each half is built from its own rows by Dataset.from_rows."""
    schema, features, labels, sensitive = _census_rows(n_train + n_test, seed)
    train, test = slice(None, n_train), slice(n_train, None)
    return (
        Dataset.from_rows(schema, features[train], labels[train], sensitive[train]),
        Dataset.from_rows(schema, features[test], labels[test], sensitive[test]),
    )
