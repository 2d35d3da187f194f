"""Card YAML from lam's own emitter is byte-identical to yaml.safe_dump on
every document a card can hold. PyYAML is only the oracle here: lam writes
cards without importing it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import lam.cards
from lam.cards import PropertyCard
from lam.certs import make_external_certificate
from lam.hashcore import canonicalize
from lam.verifier import verify_bundle
from pipeline import sixrow_pipeline

SRC = Path(__file__).resolve().parents[1] / "src"


def safe_dump_bytes(document) -> bytes:
    return yaml.safe_dump(document, sort_keys=False, default_flow_style=False, allow_unicode=True).encode("utf-8")


# Characters on which libyaml and the Python emitter differ in escapes,
# quoting or line folding, next to plain printable ASCII: controls, line
# breaks, the BOM, non-characters, non-BMP and combining characters.
AWKWARD = [
    "\t", "\n", "\r", "\x00", "\x07", "\x1b", "\x7f", "\x85", "\x9f", "\xa0", "\u2028", "\u2029", "\ufeff",
    "\u0301", "\ud7ff", "\ud800", "\ue000", "\ufffd", "\ufffe", "\uffff", "\U0001f600",
    "\U00010000", "\U0010fffe", "\U0010ffff", "\u3000", "\u00e9", "\\", '"',
]
YAML_WORDS = [
    "", "yes", "no", "on", "off", "null", "Null", "~", "true", "False", "0x1f", "0o17", "1e5", "1_000", ".inf",
    "-.nan", "12:30:00", "2024-01-01", "-", "- a", "? x", ": y", "#c", "a: b", "a #b", "'q'", '"d"', "&a", "*a",
    "!t", "|", ">", "%x", "@x", "`x", "{a}", "[a]", "a,b", " lead", "trail ", "0", "-1", "007", "+1",
]

printable = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
ascii_text = st.text(printable, max_size=200) | st.sampled_from(YAML_WORDS)
long_ascii = st.text(st.sampled_from("ab cd-ef'\" :#"), min_size=70, max_size=400)
# sentences long enough to fold, with quotes, indicators and space runs
sentences = st.lists(st.text(st.sampled_from("ab cd-ef'\" :#?-"), max_size=8), max_size=40).map(" ".join)
# printable ASCII, C0 and C1 controls and the characters above, drawn from
# one list: hypothesis builds long text from a single sampled alphabet fastest
awkward_char = st.sampled_from(sorted({chr(c) for c in range(0xA0)} | set(AWKWARD)))
awkward_text = st.text(awkward_char, max_size=200)
# long sentences that must be double-quoted, so PyYAML folds them with "\"
double_quoted = st.lists(st.text(awkward_char, max_size=10), min_size=8, max_size=40).map(" ".join)
# keys written as "? key", or at the simple-key limit
awkward_keys = st.just("") | st.text(awkward_char, min_size=118, max_size=132)
# single-quoted text spread over lines, with space runs next to the breaks
multiline = st.lists(
    st.text(st.sampled_from("ab \u00e9'"), max_size=30) | st.sampled_from(["\n", "\n\n", "\x85", "\u2028", "\u2029"]),
    max_size=12,
).map("".join)


def documents(text, keys=None, max_leaves=20):
    # keys around 122 characters, where the emitters' simple-key limits differ
    if keys is None:
        keys = text | st.text(printable, min_size=118, max_size=132) | st.sampled_from(["name", "sha256", "provenance"])
    leaves = text | st.integers(min_value=-(2**70), max_value=2**70) | st.booleans() | st.none()
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=max_leaves,
    )
    return st.builds(
        PropertyCard,
        card_kind=st.sampled_from(["model", "dataset", "inference"]),
        subject_sha256=st.just("ab" * 32),
        body=st.dictionaries(keys, values, max_size=5),
        provenance=st.lists(st.dictionaries(keys, values, max_size=4), max_size=3),
    )


@settings(max_examples=200, deadline=None)
@given(documents(ascii_text | long_ascii))
def test_printable_ascii_cards_match_safe_dump(card):
    assert card.yaml_bytes() == safe_dump_bytes(card.document())


@settings(max_examples=200, deadline=None)
@given(documents(awkward_text | st.sampled_from(YAML_WORDS)))
def test_any_card_matches_safe_dump(card):
    assert card.yaml_bytes() == safe_dump_bytes(card.document())


@settings(max_examples=200, deadline=None)
@given(documents(sentences))
def test_folded_and_quoted_sentences_match_safe_dump(card):
    assert card.yaml_bytes() == safe_dump_bytes(card.document())


@settings(max_examples=200, deadline=None)
@given(documents(double_quoted | multiline, max_leaves=8))
def test_folded_double_quoted_and_multiline_strings_match_safe_dump(card):
    assert card.yaml_bytes() == safe_dump_bytes(card.document())


@settings(max_examples=200, deadline=None)
@given(documents(awkward_text | sentences, keys=awkward_keys, max_leaves=8))
def test_empty_and_long_awkward_keys_match_safe_dump(card):
    # every key here is written as "? key" or sits at the simple-key limit
    assert card.yaml_bytes() == safe_dump_bytes(card.document())


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(YAML_WORDS) | st.text(st.sampled_from("0123456789+-._:eExXbo<=~!&*TtZ nulYyOfaN\t"), max_size=30))
def test_frozen_resolvers_match_safe_dumper(text):
    """lam's one pattern for SafeDumper's implicit resolvers, which PyYAML
    looks up by the first character."""
    resolvers = yaml.SafeDumper.yaml_implicit_resolvers
    candidates = resolvers.get(text[0] if text else "", []) + resolvers.get(None, [])
    expected = any(regexp.match(text) for _, regexp in candidates)
    assert (lam.cards._IMPLICIT.match(text) is not None) == expected


def test_plain_tries_the_resolvers_on_safe_loaders_first_characters():
    """_plain runs the resolver pattern only on a string whose first
    character SafeLoader looks a resolver up by (the empty string aside)."""
    resolvers = yaml.SafeLoader.yaml_implicit_resolvers
    assert None not in resolvers  # no resolver is tried whatever the first character
    assert lam.cards._RESOLVED_FIRST == set(resolvers) - {""}


def _plain_by_the_full_rule(text: str) -> bool:
    """_plain as it was before the first-character test."""
    first = text[0]
    if (
        first in lam.cards._INDICATORS
        or first == " "
        or text[-1] in " :"
        or (first in "?:-" and (len(text) == 1 or text[1] == " "))
        or text.startswith(("---", "..."))
        or ": " in text
        or " #" in text
    ):
        return False
    return lam.cards._IMPLICIT.match(text) is None


# Tails that make a resolver match after one of its first characters, or a
# plain string break one of the other rules.
_TAILS = [
    "", "0", "1_0", ":30", ".5", ".5e+3", "e3", "rue", "RUE", "ull", "ULL", "es", "n", "ff", "alse", "o", "x1f",
    "b1", "o17", "inf", "nan", "<", "01-01-01", "a", "a ", " a", ": a", " #a", ":", "--", "..", "f" * 63,
]


def test_plain_agrees_with_the_full_rule_after_every_printable_character():
    for first in map(chr, range(0x20, 0x7F)):
        for text in (first + tail for tail in _TAILS):
            assert lam.cards._plain(text) == _plain_by_the_full_rule(text), text
            assert lam.cards._IMPLICIT.match(text) is None or first in lam.cards._RESOLVED_FIRST, text


def test_card_keys_that_are_not_strings_are_refused_in_order():
    for body, error in [
        ({1: "x"}, "a card key must be a string, not int"),
        ({True: "x"}, "a card key must be a string, not bool"),
        ({"a": 1.5, 2: "x"}, "a card cannot hold a float"),
        ({"a": "x", 2: 1.5}, "a card key must be a string, not int"),
    ]:
        with pytest.raises(TypeError) as err:
            PropertyCard("model", "ab" * 32, body).yaml_bytes()
        assert str(err.value) == error


def _record_yaml_calls(monkeypatch) -> list[str]:
    calls = []
    for name in ("dump", "safe_dump"):
        real = getattr(yaml, name)

        def recorded(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(yaml, name, recorded)
    return calls


def test_each_emitter_path_is_taken(monkeypatch):
    """Every scalar style and both key forms, each written by lam's emitter
    without a call into PyYAML."""
    calls = _record_yaml_calls(monkeypatch)
    cases = [
        ({"datasheet": {"name": "census", "rows": 3}}, b"name: census\n"),
        ({"k" * 122: [{"a": None}, [True, -1], "x: y"]}, b"- 'x: y'\n"),
        ({"datasheet": {"name": "Z\u00fcrich"}}, "name: Z\u00fcrich\n".encode()),
        ({"datasheet": {"name": "line\nbreak"}}, b"name: 'line\n\n    break'\n"),
        ({"datasheet": {"name": "tab\there"}}, b'name: "tab\\there"\n'),
        ({"datasheet": {"name": "\x85 bell\x07"}}, b'name: "\\N bell\\a"\n'),
        ({"body": {"\u00e9": 1}}, "\u00e9: 1\n".encode()),
        ({"body": {"": 1}}, b"  ? ''\n  : 1\n"),
        ({"body": {"k" * 123: {"a": [1]}}}, b"  ? " + b"k" * 123 + b"\n  : a:\n    - 1\n"),
    ]
    cards = [PropertyCard("model", "cd" * 32, body) for body, _ in cases]
    written = [card.yaml_bytes() for card in cards]
    assert calls == []
    for card, text, (_, fragment) in zip(cards, written, cases):
        assert fragment in text
        assert text == safe_dump_bytes(card.document())


def test_shared_collection_is_written_out_each_time():
    # safe_dump would anchor the list as &id001 and alias it as *id001
    shared = ["x"]
    card = PropertyCard("model", "cd" * 32, {"a": shared, "b": {"c": shared}})
    assert card.yaml_bytes() == b"a:\n- x\nb:\n  c:\n  - x\nprovenance: []\n"
    assert card.yaml_bytes() == safe_dump_bytes({"a": ["x"], "b": {"c": ["x"]}, "provenance": []})


@pytest.mark.parametrize("value", [0.5, (1, 2), b"x", {1: "x"}])
def test_what_a_card_cannot_hold_is_a_type_error(value):
    with pytest.raises(TypeError):
        PropertyCard("model", "cd" * 32, {"body": value}).yaml_bytes()


def test_verify_writes_the_same_cards_without_pyyaml(tmp_path):
    """`lam verify` with `import yaml` blocked writes the cards that
    verify_bundle assembles in-process, byte for byte, including cards that
    hold non-ASCII, special characters and an empty key."""
    pipe = sixrow_pipeline()
    name = "Z\u00fcrich \U0001f600 set\u2028with\tcontrols \ufeff"
    claims = {"": ["line\nbreak", "caf\u00e9"], "note" * 40: "\x85\u2029"}
    externals = [make_external_certificate(pipe.endorser, pipe.train_ds.digest, "dataset", name, claims)]
    bundle = pipe.bundle(with_externals=False)
    bundle = type(bundle)(envelopes=bundle.envelopes, external_certificates=tuple(externals))
    bundle.write(tmp_path / "bundle.json")
    pipe.store.save(tmp_path / "store.json")
    trust = {"manufacturer_roots": sorted(pipe.roots), "endorser_keys": pipe.endorser_keys}
    (tmp_path / "trust.json").write_bytes(canonicalize(trust))
    expected = verify_bundle(bundle, pipe.store, pipe.roots, pipe.endorser_keys).cards
    assert any('"Z\u00fcrich \\U0001F600'.encode() in card.yaml_bytes() for card in expected)

    out = tmp_path / "cards"
    argv = ["verify", "--bundle", "bundle.json", "--certstore", "store.json", "--roots", "trust.json", "--out", "cards"]
    script = "import sys; sys.modules['yaml'] = None; from lam.cli import main; raise SystemExit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.glob("card-*.yaml")) == sorted(card.filename for card in expected)
    for card in expected:
        assert (out / card.filename).read_bytes() == card.yaml_bytes() == safe_dump_bytes(card.document())


def _nested_list(depth: int) -> list:
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def test_deeply_nested_card_is_a_named_error():
    from lam.errors import LamError

    card = PropertyCard("dataset", "ab" * 32, {"a": _nested_list(600)})
    with pytest.raises(LamError, match="nested too deeply"):
        card.yaml_bytes()


# Each text holds "x" * n and then a single space; sweeping n from 62 to 91
# puts that space at every column from 76 to 86 in every place below.
FOLD_TEXTS = {
    "plain": lambda n: "x" * n + " tail end",
    "indicator": lambda n: "&" + "x" * n + " tail",
    "colon": lambda n: "a: " + "x" * n + " tail",
    "quote": lambda n: "it's: " + "x" * (n - 6) + "' tail",
    "edges": lambda n: " " + "x" * n + " y ",
    "trailing": lambda n: "x" * n + " ",
    "double": lambda n: "x" * n + "  tail  end",
    "accented": lambda n: "é" * n + " café",
    "accented-quoted": lambda n: "é: " + "é" * n + " café",
    "break": lambda n: "x" * n + " y\nz tail",
}


@pytest.mark.parametrize("kind", sorted(FOLD_TEXTS))
def test_single_spaces_around_the_fold_column_match_safe_dump(kind):
    """A single space at every column from 76 to 86 in a sequence item, a
    "? key" (long enough or holding a line break), the value after it, and a
    value after a simple key of 74 to 90 characters, where a leading space
    of a quoted value sits past column 80."""
    texts = [FOLD_TEXTS[kind](n) for n in range(62, 92)]
    body = {
        "items": texts,
        "keys": {text + " " + "t" * 60: text for text in texts},
        "after": {"k" * length: FOLD_TEXTS[kind](3) for length in range(74, 91)},
    }
    card = PropertyCard("model", "cd" * 32, body)
    assert card.yaml_bytes() == safe_dump_bytes(card.document())
