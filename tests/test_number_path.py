"""The single-formatting number path gives what the Decimal round-trip path
gives: bit-identical features, identical canonical CSV bytes, and the same
exception, with the same message, for every cell it rejects. That holds for
the whole-file loader of canonical CSVs and the row-by-row loader of any
other, for FGSM's micro-unit and Decimal paths, for model parameters, built
from floats or loaded from a model file, and for the quantizer's micro-unit
kernel on arrays large enough to take it, chunk by chunk."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_oracle import (
    reference_canonical_bytes,
    reference_fgsm_features,
    reference_from_csv_bytes,
    reference_from_rows,
    reference_model_canonical_bytes,
    reference_model_from_float_params,
    reference_model_from_json_bytes,
)
from lam.engine import data
from lam.engine.data import _BULK_CELLS, _CHUNK_CELLS, Architecture, Dataset, _canonical_cells, format_rows, quantize_rows
from lam.engine.fgsm import fgsm_dataset, input_gradients
from lam.engine.model import Model
from lam.engine.synth import census_split
from lam.hashcore import canonicalize, decimal_string

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


MODEL_ARCH = Architecture(num_features=2, num_classes=2, hidden=(1,), activation="tanh")


def model_params(cells):
    """MODEL_ARCH's weight matrices and bias vectors, as nested lists of `cells`."""
    def matrix(rows: int, columns: int):
        return st.lists(st.lists(cells, min_size=columns, max_size=columns), min_size=rows, max_size=rows)

    def vector(size: int):
        return st.lists(cells, min_size=size, max_size=size)

    return st.tuples(st.tuples(matrix(2, 1), matrix(1, 2)), st.tuples(vector(1), vector(2)))


def _assert_same_model(got: Model, want: Model) -> None:
    assert got.architecture == want.architecture
    assert [_bits(w) for w in got.weights] == [_bits(w) for w in want.weights]
    assert [_bits(b) for b in got.biases] == [_bits(b) for b in want.biases]
    assert got.canonical_bytes == reference_model_canonical_bytes(want)
    loaded = Model.from_json_bytes(got.canonical_bytes)
    assert [_bits(w) for w in loaded.weights] == [_bits(w) for w in got.weights]
    assert [_bits(b) for b in loaded.biases] == [_bits(b) for b in got.biases]
    assert loaded.canonical_bytes == got.canonical_bytes


@settings(max_examples=200, deadline=None)
@given(model_params(floats))
def test_model_from_float_params_matches_the_round_trip_path(params):
    weights, biases = params
    arrays = [np.array(w, dtype=np.float64) for w in weights], [np.array(b, dtype=np.float64) for b in biases]
    got, got_error = _outcome(Model.from_float_params, MODEL_ARCH, *arrays)
    want, want_error = _outcome(reference_model_from_float_params, MODEL_ARCH, *arrays)
    assert got_error == want_error
    if want is not None:
        _assert_same_model(got, want)


@settings(max_examples=300, deadline=None)
@given(model_params(st.one_of(canonical_cells, st.sampled_from(LOOSE_CELLS))))
def test_model_file_loading_matches_the_round_trip_path(params):
    weights, biases = params
    data = canonicalize({"activation": "tanh", "arch": [2, 1, 2], "biases": list(biases), "weights": list(weights)})
    got, got_error = _outcome(Model.from_json_bytes, data)
    want, want_error = _outcome(reference_model_from_json_bytes, data)
    assert got_error == want_error
    if want is not None:
        _assert_same_model(got, want)


# Cells the micro-unit kernel spells itself, the signed zeros among them.
KERNEL_CELLS = [0.0, -0.0, -4e-7, 4e-7, 5e-324, -5e-324, 0.1, -123.456789, 999999999.999999, -999999999.999999]
# Cells that send their whole chunk to one `%`-format per row: exact ties,
# cells near or above 1e9, values past 2^53.
ODD_128THS = [k / 128 for k in (1, -3, 5, 127, -255, 1025)]
FALLBACK_CELLS = [*ODD_128THS, 1e9, -1e9, float(np.nextafter(1e9, 0)), 2.0**53 + 2, -(2.0**60), 1e300]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def bulk_arrays(draw, min_width: int = 1) -> np.ndarray:
    """An array the kernel takes in two or three chunks: uniform cells at a
    drawn scale with KERNEL_CELLS planted in every chunk; near-ties (the
    float nearest a half micro-unit, and its neighbours) in some chunk; and
    maybe a fallback cell and a non-finite one in chunks after the first."""
    width = draw(st.integers(min_width, 13))
    step = max(1, _CHUNK_CELLS // width)
    rows = draw(st.integers(step + 1, 3 * step))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = rng.uniform(-1.0, 1.0, (rows, width)) * draw(st.sampled_from([1e-7, 1.0, 1e3, 1e6, 9e8]))
    for start in range(0, rows, step):
        chunk = array[start : start + step].reshape(-1)
        planted = min(chunk.size, len(KERNEL_CELLS))
        chunk[rng.choice(chunk.size, planted, replace=False)] = KERNEL_CELLS[:planted]
    if draw(st.booleans()):
        start = draw(st.sampled_from(range(0, rows, step)))
        chunk = array[start : start + step].reshape(-1)
        halves = (rng.integers(-(10**12), 10**12, 30) + 0.5) / 1e6
        near = np.concatenate([halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)])
        planted = min(chunk.size, len(near))
        chunk[rng.choice(chunk.size, planted, replace=False)] = near[:planted]
    for cells in (FALLBACK_CELLS, NON_FINITE):
        if draw(st.booleans()):
            array[draw(st.integers(step, rows - 1)), draw(st.integers(0, width - 1))] = draw(st.sampled_from(cells))
    return array


def _reference_quantize(array: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Each cell formatted by itself with format(v, ".6f"), the first
    non-finite one in row order raising decimal_string's DomainError, and
    parsed back by float()."""
    cells = [[decimal_string(float(v)) for v in row] for row in array]
    values = np.array([[float(cell) for cell in row] for row in cells], dtype=np.float64).reshape(array.shape)
    return [",".join(row) for row in cells], values


@settings(max_examples=60, deadline=None)
@given(bulk_arrays())
def test_bulk_quantizing_matches_the_round_trip_path(array):
    assert array.size >= _BULK_CELLS and len(array) * array.shape[1] > _CHUNK_CELLS
    got, got_error = _outcome(quantize_rows, array)
    want, want_error = _outcome(_reference_quantize, array)
    assert got_error == want_error
    assert _outcome(format_rows, array)[1] == want_error
    labels = [i % 3 for i in range(len(array))]
    schema = tuple(f"f{i}" for i in range(array.shape[1]))
    dataset, dataset_error = _outcome(Dataset.from_rows, schema, array, labels, labels)
    assert dataset_error == want_error
    if want is not None:
        texts, values = got
        assert texts == want[0]
        assert _bits(values) == _bits(want[1])
        assert format_rows(array) == format_rows(values) == texts
        _assert_same_dataset(dataset, reference_from_rows(schema, array, labels, labels))
        raw = Dataset(schema, array, np.array(labels), np.array(labels))  # formatted lazily
        assert raw.canonical_bytes == dataset.canonical_bytes


@settings(max_examples=15, deadline=None)
@given(bulk_arrays(min_width=2))
def test_bulk_weights_match_the_per_weight_path(array):
    arch = Architecture(num_features=len(array), num_classes=array.shape[1], hidden=(), activation="relu")
    params = [array], [np.zeros(array.shape[1])]
    got, got_error = _outcome(Model.from_float_params, arch, *params)
    want, want_error = _outcome(reference_model_from_float_params, arch, *params)
    assert got_error == want_error
    if want is not None:
        _assert_same_model(got, want)


def test_census_split_never_falls_back_to_percent_formatting(monkeypatch):
    """The census features are all exact in micro-units, so every chunk of
    both halves takes the kernel: a silent fallback would keep the bytes
    and lose the speed."""
    calls = {"_percent_rows": 0, "micro_texts": 0}
    for name in calls:
        def counting(*args, _name=name, _function=getattr(data, name)):
            calls[_name] += 1
            return _function(*args)

        monkeypatch.setattr(data, name, counting)
    train, test = census_split(6000, 2000, 2026)
    assert calls["_percent_rows"] == 0
    assert calls["micro_texts"] >= 8000 * 12 // _CHUNK_CELLS
    assert train.num_rows == 6000 and test.num_rows == 2000
