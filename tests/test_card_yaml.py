"""Card YAML from lam's own emitter is byte-identical to yaml.safe_dump,
which stays the path for any card holding a string outside printable ASCII
or a mapping key that is empty or over 122 characters."""

from __future__ import annotations

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import lam.cards
from lam.cards import PropertyCard


def safe_dump_bytes(document) -> bytes:
    return yaml.safe_dump(document, sort_keys=False, default_flow_style=False, allow_unicode=True).encode("utf-8")


# Characters on which libyaml and the Python emitter differ in escapes,
# quoting or line folding, next to plain printable ASCII.
AWKWARD = ["\t", "\n", "\r", "\x00", "\x07", "\x1b", "\x7f", "\x85", "\xa0", " ", "﻿", "é", "😀", " "]
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
awkward_text = st.text(printable | st.sampled_from(AWKWARD), max_size=200)


def documents(text):
    # keys around 122 characters, where the emitters' simple-key limits differ
    keys = text | st.text(printable, min_size=118, max_size=132) | st.sampled_from(["name", "sha256", "provenance"])
    leaves = text | st.integers(min_value=-(2**70), max_value=2**70) | st.booleans() | st.none()
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=20,
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


def test_shared_collections_match_safe_dump():
    # safe_dump writes a list or dict that occurs twice as an anchor and alias
    shared = ["x"]
    card = PropertyCard("model", "cd" * 32, {"a": shared, "b": {"c": shared}})
    assert b"&id001" in card.yaml_bytes()
    assert card.yaml_bytes() == safe_dump_bytes(card.document())


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
    calls = _record_yaml_calls(monkeypatch)

    # printable ASCII, keys of 1-122 characters: lam's emitter, no yaml call
    for card in (
        PropertyCard("dataset", "cd" * 32, {"datasheet": {"name": "census", "rows": 3}}),
        PropertyCard("model", "cd" * 32, {"k" * 122: [{"a": None}, [True, -1], "x: y"]}),
    ):
        written = card.yaml_bytes()
        assert calls == []
        assert written == safe_dump_bytes(card.document())
        calls.clear()

    # anything else: one yaml.safe_dump call
    names = ("Zürich", "tab\there", "line\nbreak", "\x85")
    awkward_cards = [PropertyCard("dataset", "cd" * 32, {"datasheet": {"name": name}}) for name in names]
    awkward_cards += [PropertyCard("model", "cd" * 32, {"body": {key: 1}}) for key in ("é", "", "k" * 123)]
    for card in awkward_cards:
        written = card.yaml_bytes()
        assert calls == ["safe_dump"]
        assert written == safe_dump_bytes(card.document())
        calls.clear()


def test_without_libyaml_every_card_takes_the_python_emitter(monkeypatch):
    # card bytes do not depend on whether PyYAML was built with libyaml
    cards = [
        PropertyCard("model", "ef" * 32, {"model-index": [{"name": "m", "results": []}]}),
        PropertyCard("dataset", "ef" * 32, {"datasheet": {"name": "Zürich"}}),
    ]
    expected = [card.yaml_bytes() for card in cards]
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    for card, before in zip(cards, expected):
        assert card.yaml_bytes() == before == safe_dump_bytes(card.document())
