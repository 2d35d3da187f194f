"""The single-formatting number path gives what the Decimal round-trip path
gives: bit-identical features, identical canonical CSV bytes, and the same
exception, with the same message, for every cell it rejects. That holds for
the whole-file loader of canonical CSVs and the row-by-row loader of any
other, and for FGSM's micro-unit and Decimal paths."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_oracle import (
    reference_canonical_bytes,
    reference_fgsm_features,
    reference_from_csv_bytes,
    reference_from_rows,
)
from lam.engine.data import Architecture, Dataset, _canonical_cells
from lam.engine.fgsm import fgsm_dataset, input_gradients
from lam.engine.model import Model

LOOSE_CELLS = [
    "1.5", "1e3", " 2.0 ", "+.5", "-0", "-0.0000004", "0.0000005", "1_0", "٥",
    "1e300", "nan", "inf", "-inf", "sNaN", "NaN123", "", "-0.000000", "0.0000015", "abc", "1e400",
    " 1.500000", "+1.500000", "01.500000", "1.5000000", "1.500000\t",
]
ODD_INTEGER_CELLS = ["+1", " 1", "01", "-1", "x", "", "1.0", "١", "99999999999999999999"]
EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 5e-7, -5e-7, 1.5e-6, 1e15, 1.7e308, -1.7e308]

canonical_cells = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda v: format(v, ".6f")
)
# Weighted toward cells that parse, so that most documents load.
feature_cells = st.one_of(canonical_cells, canonical_cells, canonical_cells, st.sampled_from(LOOSE_CELLS))
integer_cells = st.one_of(*[st.sampled_from(["0", "1", "2"])] * 6, st.sampled_from(ODD_INTEGER_CELLS))
floats = st.one_of(st.floats(), st.sampled_from(EXTREME_FLOATS))


def _outcome(build, *args):
    """The dataset `build` makes, or the class and message of what it raised."""
    try:
        return build(*args), None
    except Exception as exc:  # the comparison is the point: any exception
        return None, (type(exc), str(exc))


def _bits(array: np.ndarray) -> list[int]:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64).ravel().tolist()


def _assert_same_dataset(got: Dataset, want: Dataset) -> None:
    assert got.schema == want.schema
    assert _bits(got.features) == _bits(want.features)
    assert got.labels.tolist() == want.labels.tolist()
    assert got.sensitive.tolist() == want.sensitive.tolist()
    assert got.canonical_bytes == reference_canonical_bytes(want)
    assert got.canonical_bytes == Dataset.canonical_bytes.func(got)


@st.composite
def csv_documents(draw) -> bytes:
    width = draw(st.integers(1, 3))
    header = [f"f{i}" for i in range(width)] + ["label", "sensitive"]
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(feature_cells, min_size=width, max_size=width),
                integer_cells,
                integer_cells,
            ),
            max_size=4,
        )
    )
    lines = [",".join(header)] + [",".join([*cells, y, z]) for cells, y, z in rows]
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), ",".join(["1.0"] * width))  # a short row
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return (newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))).encode("utf-8")


@settings(max_examples=400, deadline=None)
@given(csv_documents())
def test_csv_loading_matches_the_round_trip_path(data):
    got, got_error = _outcome(Dataset.from_csv_bytes, data)
    want, want_error = _outcome(reference_from_csv_bytes, data)
    assert got_error == want_error
    if want is not None:
        _assert_same_dataset(got, want)


# Cells the whole-file loader takes: at most 15 significant digits.
SMALL_FEATURE_CELLS = ["-0.000000", "0.000000", "0.000001", "-0.000001", "999999999.999999", "-999999999.999999"]
SMALL_INTEGER_CELLS = ["0", "1", "3", "-1", "999999999999999", "-999999999999999"]
# Cells it leaves to the row-by-row loader: canonical with more digits, or loose.
LARGE_CELLS = ["1000000000.000000", "-1000000000.000000", "12345678901234567890.000000"]
LARGE_INTEGER_CELLS = ["1000000000000000", "-1000000000000000", "100000000000000000000"]
LOOSE_FEATURE_CELLS = ["1.5", "-0.0000001", "01.000000", "+1.000000", "1.0000000", "-.500000"]
LOOSE_INTEGER_CELLS = ["-0", "01", "+1", "00", "1.0"]
small_feature_cells = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9).map(lambda v: format(v, ".6f")).filter(lambda c: abs(float(c)) < 1e9),
    st.sampled_from(SMALL_FEATURE_CELLS),
)
small_integer_cells = st.one_of(st.sampled_from(["0", "1", "2"]), st.sampled_from(SMALL_INTEGER_CELLS))


@st.composite
def canonical_csv_documents(draw) -> tuple[bytes, str]:
    """A CSV of 50 to 80 rows, and its kind: "small" when every cell is
    small and canonical, else "large" or "loose" after the one cell that
    is not."""
    width = draw(st.integers(1, 3))
    header = [f"f{i}" for i in range(width)] + ["label", "sensitive"]
    rows = [
        [*cells, y, z]
        for cells, y, z in draw(
            st.lists(
                st.tuples(
                    st.lists(small_feature_cells, min_size=width, max_size=width),
                    small_integer_cells,
                    small_integer_cells,
                ),
                min_size=50,
                max_size=80,
            )
        )
    ]
    kind = draw(st.sampled_from(["small", "small", "large", "loose"]))
    if kind != "small":
        column = draw(st.integers(0, width + 1))
        integer = column >= width
        cells = {"large": (LARGE_CELLS, LARGE_INTEGER_CELLS), "loose": (LOOSE_FEATURE_CELLS, LOOSE_INTEGER_CELLS)}
        draw(st.sampled_from(rows))[column] = draw(st.sampled_from(cells[kind][integer]))
    return ("\n".join([",".join(header), *map(",".join, rows)]) + "\n").encode("ascii"), kind


@settings(max_examples=100, deadline=None)
@given(canonical_csv_documents())
def test_whole_file_loading_matches_the_round_trip_path(document):
    data, kind = document
    assert (_canonical_cells(data) is not None) == (kind == "small")
    got, got_error = _outcome(Dataset.from_csv_bytes, data)
    want, want_error = _outcome(reference_from_csv_bytes, data)
    assert got_error == want_error
    if want is not None:
        _assert_same_dataset(got, want)
        assert (got.canonical_bytes == data) == (kind != "loose")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(floats, min_size=2, max_size=2), max_size=5), st.data())
def test_from_rows_matches_the_round_trip_path(rows, data):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    groups = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    got, got_error = _outcome(Dataset.from_rows, ("a", "b"), rows, labels, groups)
    want, want_error = _outcome(reference_from_rows, ("a", "b"), rows, labels, groups)
    assert got_error == want_error
    if want is not None:
        _assert_same_dataset(got, want)
        assert _bits(Dataset.from_csv_bytes(got.canonical_bytes).features) == _bits(got.features)


ARCH = Architecture(num_features=2, num_classes=2, hidden=(), activation="tanh")
weights = st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.25, -2.5]), min_size=4, max_size=4)
# Above 2**33 a 6-digit string is no longer the formatting of its own float,
# and above 1e22 Decimal's 28-digit context rounds the perturbed sum.
features = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([1e10 + 0.5, -3e15, 7.5e20, 1.2345678901234567e25]),
    st.sampled_from([-0.0, 999999999.999999, -999999999.999999, 1e9, 0.1000005]),
)


@settings(max_examples=150, deadline=None)
@given(
    weights,
    st.lists(st.lists(features, min_size=2, max_size=2), min_size=1, max_size=5),
    st.sampled_from(["0.100000", "0.000001", "0", "-0", "1.5", "0.0000004", "999999999.999999", "1e9"]),
    st.booleans(),
)
def test_fgsm_matches_the_round_trip_path(w, rows, eps, quantized):
    model = Model.from_float_params(ARCH, [np.array(w).reshape(2, 2)], [np.zeros(2)])
    labels, groups = [i % 2 for i in range(len(rows))], [0] * len(rows)
    if quantized:
        dataset = Dataset.from_rows(("a", "b"), rows, labels, groups)
    else:  # raw floats: the canonical CSV is formatted lazily
        dataset = Dataset(("a", "b"), np.array(rows), np.array(labels), np.array(groups))
    signs = np.sign(input_gradients(model, dataset.features, dataset.labels))
    want = Dataset(dataset.schema, reference_fgsm_features(dataset, signs, eps), dataset.labels, dataset.sensitive)
    _assert_same_dataset(fgsm_dataset(model, dataset, eps), want)
