from __future__ import annotations

import hashlib
import json
import math
import random
from decimal import Decimal

import pytest

from lam.errors import CanonicalizationError, DomainError, FileReadError, ManifestMismatchError
from lam.hashcore import (
    Digest,
    TrustedManifest,
    build_manifest,
    canonicalize,
    decimal_string,
    hash_bytes,
    hash_file_once,
    is_canonical,
    parse_canonical,
    parse_decimal_string,
    ratio_string,
    require_in_manifest,
    unique_keys,
)

# Published SHA-256 vectors.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# Derived with a standalone hashlib script over hand-written JSON bytes.
MANIFEST_AX_BY = "4ea8e735b8f8a7fc8f900a20840c3377b1c724f9703fdb302836bba544c3f6b1"
MANIFEST_AY_BX = "7bad6a1c73d55ddae003a0fa25653447886f4576149e372e21e23ac0592dc1f5"
MANIFEST_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"


def test_hash_bytes_published_vectors():
    assert hash_bytes(b"").hex == SHA256_EMPTY
    assert hash_bytes(b"abc").hex == SHA256_ABC


def test_hash_bytes_determinism_large_input():
    rnd = random.Random(1)
    blob = rnd.randbytes(1 << 20)
    assert hash_bytes(blob) == hash_bytes(blob)


def test_hash_bytes_avalanche():
    rnd = random.Random(2)
    for _ in range(20):
        data = bytearray(rnd.randbytes(64))
        original = hash_bytes(bytes(data))
        bit = rnd.randrange(len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        assert hash_bytes(bytes(data)) != original


def test_digest_validation():
    with pytest.raises(ValueError):
        Digest(b"short")
    with pytest.raises(ValueError):
        Digest.from_hex("ZZ" * 32)
    with pytest.raises(ValueError):
        Digest.from_hex(SHA256_ABC.upper())
    assert Digest.from_hex(SHA256_ABC).hex == SHA256_ABC


def test_hash_file_once_reads_exact_bytes(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    content, digest = hash_file_once(p)
    assert content == b"abc"
    assert digest.hex == SHA256_ABC


def test_hash_file_once_returns_premodification_content(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"before")
    content, digest = hash_file_once(p)
    p.write_bytes(b"after")
    assert content == b"before"
    assert digest == hash_bytes(b"before")


def test_hash_file_once_missing_and_directory(tmp_path):
    with pytest.raises(FileReadError, match="missing"):
        hash_file_once(tmp_path / "missing")
    with pytest.raises(FileReadError):
        hash_file_once(tmp_path)


def test_build_manifest_expected_digests(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert build_manifest(empty).entries == ()
    assert build_manifest(empty).manifest_digest.hex == MANIFEST_EMPTY

    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a").write_bytes(b"x")
    (tree / "b").write_bytes(b"y")
    manifest = build_manifest(tree)
    assert [p for p, _ in manifest.entries] == ["a", "b"]
    assert manifest.manifest_digest.hex == MANIFEST_AX_BY

    (tree / "a").write_bytes(b"y")
    (tree / "b").write_bytes(b"x")
    assert build_manifest(tree).manifest_digest.hex == MANIFEST_AY_BX


def test_build_manifest_path_relative_determinism(tmp_path):
    for name in ("one", "two"):
        root = tmp_path / name / "nested"
        (root / "sub").mkdir(parents=True)
        (root / "f1.txt").write_bytes(b"hello")
        (root / "sub" / "f2.txt").write_bytes(b"world")
    m1 = build_manifest(tmp_path / "one" / "nested")
    m2 = build_manifest(tmp_path / "two" / "nested")
    assert m1.manifest_digest == m2.manifest_digest
    assert [p for p, _ in m1.entries] == ["f1.txt", "sub/f2.txt"]


def test_manifest_insertion_order_invariance():
    rnd = random.Random(3)
    entries = [(f"dir/file{i}", hash_bytes(bytes([i]))) for i in range(20)]
    expected = TrustedManifest.from_entries(entries).manifest_digest
    for _ in range(10):
        rnd.shuffle(entries)
        assert TrustedManifest.from_entries(entries).manifest_digest == expected


def test_manifest_rejects_duplicates_and_unsorted():
    d = hash_bytes(b"x")
    with pytest.raises(ValueError):
        TrustedManifest(entries=(("a", d), ("a", d)))
    with pytest.raises(ValueError):
        TrustedManifest(entries=(("b", d), ("a", d)))


def test_require_in_manifest():
    manifest = TrustedManifest.from_entries([("a", hash_bytes(b"x"))])
    assert require_in_manifest(manifest, "a", b"x") is None
    with pytest.raises(ManifestMismatchError) as err:
        require_in_manifest(manifest, "c", b"x")
    assert str(err.value) == "path not listed in trusted manifest: c"
    with pytest.raises(ManifestMismatchError) as err:
        require_in_manifest(manifest, "a", b"z")
    assert str(err.value) == "content hash does not match trusted manifest: a"


def test_canonicalize_sorts_keys():
    assert canonicalize({"b": 1, "a": "x"}) == b'{"a":"x","b":1}'


def test_canonicalize_rejects_float_with_path():
    with pytest.raises(CanonicalizationError) as err:
        canonicalize({"v": 0.5})
    assert err.value.path == "/v"
    with pytest.raises(CanonicalizationError) as err:
        canonicalize({"a": [{"b": [1, 2.5]}]})
    assert err.value.path == "/a/0/b/1"


def test_canonicalize_rejects_non_string_keys():
    with pytest.raises(CanonicalizationError):
        canonicalize({1: "x"})


def test_canonicalize_fixed_point():
    values = [
        None,
        True,
        {"z": [1, "2", None, {"k": False}], "a": "0.500000"},
        ["nested", ["deep", {"n": -17}]],
        {"unicode": "héllo ✓", "empty": {}, "list": []},
    ]
    for v in values:
        once = canonicalize(v)
        assert canonicalize(parse_canonical(once)) == once
        assert is_canonical(once)


def test_canonicalize_key_insertion_order_insensitive():
    rnd = random.Random(9)
    items = [(f"key{i}", i) for i in range(12)]
    expected = canonicalize(dict(items))
    for _ in range(10):
        rnd.shuffle(items)
        assert canonicalize(dict(items)) == expected


def test_parse_canonical_rejects_floats():
    with pytest.raises(CanonicalizationError):
        parse_canonical(b'{"v":0.5}')
    assert not is_canonical(b'{"v":0.5}')
    assert not is_canonical(b'{"b":1,"a":2}')  # unsorted keys
    assert not is_canonical(b"{bad json")


@pytest.mark.parametrize(
    ("data", "key"),
    [
        (b'{"a":1,"a":1}', "a"),
        (b'{"a":{"b":1,"c":2,"b":3}}', "b"),
        (b'[{"x":0},{"y":1,"y":1}]', "y"),
        # the first key to repeat an earlier one is named
        (b'{"a":0,"b":0,"b":1,"a":1}', "b"),
    ],
)
def test_parse_canonical_refuses_a_repeated_key(data, key):
    with pytest.raises(CanonicalizationError) as err:
        parse_canonical(data)
    assert str(err.value) == f"repeated object key {key!r} at /"


def test_unique_keys_is_a_json_object_pairs_hook():
    assert json.loads('{"b":1.5,"a":[{"c":null}]}', object_pairs_hook=unique_keys) == {"b": 1.5, "a": [{"c": None}]}
    with pytest.raises(CanonicalizationError, match="repeated object key 'k'"):
        json.loads('{"k":1.5,"k":2}', object_pairs_hook=unique_keys)


def test_deep_nesting_is_a_canonicalization_error():
    deep = b"[" * 5000 + b"]" * 5000
    assert not is_canonical(deep)
    with pytest.raises(CanonicalizationError, match="nested too deeply"):
        parse_canonical(deep)
    value: list = []
    for _ in range(5000):
        value = [value]
    with pytest.raises(CanonicalizationError, match="nested too deeply"):
        canonicalize(value)


def test_canonicalize_bool_vs_int_distinct():
    assert canonicalize(True) == b"true"
    assert canonicalize(1) == b"1"


def test_decimal_string_formatting():
    assert decimal_string(0.8443) == "0.844300"
    assert decimal_string(0.5) == "0.500000"
    assert decimal_string(-1.25) == "-1.250000"
    assert decimal_string(0.0) == "0.000000"
    assert decimal_string(-0.0) == "-0.000000"
    # 0.15625 is exactly representable; its 4th-digit tie rounds to even
    assert format(0.15625, ".4f") == "0.1562"
    # 2**-7 and 3 * 2**-7 are exact ties at the 7th digit
    assert decimal_string(0.0078125) == "0.007812"
    assert decimal_string(0.0234375) == "0.023438"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_decimal_string_rejects_non_finite(value):
    with pytest.raises(DomainError, match="not a finite number"):
        decimal_string(value)


@pytest.mark.parametrize("value", [0, True, Decimal("0.5"), "0.5"])
def test_decimal_string_takes_a_float_only(value):
    with pytest.raises(TypeError, match="decimal_string takes a float"):
        decimal_string(value)


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-Infinity", "1e999", "-1e999"])
def test_parse_decimal_string_rejects_non_finite(text):
    with pytest.raises(DomainError, match="not a finite decimal string"):
        parse_decimal_string(text)


def test_ratio_string_exact_half_even():
    assert ratio_string(4, 6) == "0.666667"
    assert ratio_string(1, 3) == "0.333333"
    assert ratio_string(1, 2) == "0.500000"
    assert ratio_string(1, 1) == "1.000000"
    # exact ties at the 7th digit: 0.0000005 and 0.0000015
    assert ratio_string(1, 2000000) == "0.000000"
    assert ratio_string(3, 2000000) == "0.000002"
    assert ratio_string(-1, 3) == "-0.333333"


def test_ratio_times_denominator_recovers_numerator():
    rnd = random.Random(4)
    for _ in range(200):
        den = rnd.randrange(1, 100)
        num = rnd.randrange(0, den + 1)
        value = float(ratio_string(num, den))
        assert round(value * den) == num


def test_manifest_file_format_is_canonical_json():
    manifest = TrustedManifest.from_entries([("a", hash_bytes(b"x"))])
    expected = ('[{"path":"a","sha256":"%s"}]' % hash_bytes(b"x").hex).encode()
    assert manifest.canonical_bytes == expected
    assert manifest.manifest_digest.hex == hashlib.sha256(expected).hexdigest()
