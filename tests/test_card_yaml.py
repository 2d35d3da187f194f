"""Card YAML through libyaml is byte-identical to PyYAML's pure-Python
emitter, which stays the path for any card holding a string outside
printable ASCII or a mapping key that is empty or over 122 characters."""

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


def test_each_emitter_path_is_taken(monkeypatch):
    calls = []
    real_dump, real_safe_dump = yaml.dump, yaml.safe_dump

    def dump(*args, **kwargs):
        calls.append(("libyaml", kwargs["Dumper"]))
        return real_dump(*args, **kwargs)

    def safe_dump(*args, **kwargs):
        calls.append(("python", None))
        return real_safe_dump(*args, **kwargs)

    monkeypatch.setattr(yaml, "dump", dump)
    monkeypatch.setattr(yaml, "safe_dump", safe_dump)

    ascii_card = PropertyCard("dataset", "cd" * 32, {"datasheet": {"name": "census", "rows": 3}})
    ascii_card.yaml_bytes()
    assert calls == [("libyaml", lam.cards._AsciiDumper)]
    assert issubclass(lam.cards._AsciiDumper, yaml.CSafeDumper)

    calls.clear()
    for awkward in ("Zürich", "tab\there", "line\nbreak", "\x85"):
        card = PropertyCard("dataset", "cd" * 32, {"datasheet": {"name": awkward}})
        assert card.yaml_bytes() == real_safe_dump(
            card.document(), sort_keys=False, default_flow_style=False, allow_unicode=True
        ).encode("utf-8")
        assert calls == [("libyaml", lam.cards._AsciiDumper), ("python", None)]
        calls.clear()

    # so do mapping keys outside printable ASCII, empty or over 122 characters
    for key in ("é", "", "k" * 123):
        PropertyCard("model", "cd" * 32, {"body": {key: 1}}).yaml_bytes()
        assert calls == [("libyaml", lam.cards._AsciiDumper), ("python", None)]
        calls.clear()
    PropertyCard("model", "cd" * 32, {"k" * 122: 1}).yaml_bytes()
    assert calls == [("libyaml", lam.cards._AsciiDumper)]


def test_without_libyaml_every_card_takes_the_python_emitter(monkeypatch):
    card = PropertyCard("model", "ef" * 32, {"model-index": [{"name": "m", "results": []}]})
    expected = card.yaml_bytes()
    monkeypatch.setattr(lam.cards, "_AsciiDumper", None)
    assert card.yaml_bytes() == expected == safe_dump_bytes(card.document())
