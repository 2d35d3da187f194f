"""One rule names the file in an error: hashcore.in_file adds the `: path`
suffix to any LamError raised while a file is read into a value. No other
code of lam ends an f-string in `: {path}`, `: {name}` or `: {p}`, apart
from errors.ManifestMismatchError, which names a manifest entry, not a file
it read."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lam"
PATH_NAMES = {"path", "name", "p"}
ALLOWED = {("hashcore.py", "in_file"), ("errors.py", "ManifestMismatchError")}


def _ends_in_a_path(node: ast.JoinedStr) -> bool:
    before, last = ([None, None] + node.values)[-2:]
    return (
        isinstance(last, ast.FormattedValue)
        and isinstance(last.value, ast.Name)
        and last.value.id in PATH_NAMES
        and last.conversion == -1  # a repr, `{name!r}`, quotes a value, not a path
        and isinstance(before, ast.Constant)
        and str(before.value).endswith(": ")
    )


def _offences(source: str) -> list[tuple[int, str]]:
    """Each f-string of the module source that ends in `: {path}`,
    `: {name}` or `: {p}`, as (line, name of the module-level function or
    class holding it)."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.JoinedStr) and _ends_in_a_path(node):
                found.append((node.lineno, owner))
    return found


def test_only_in_file_names_the_file_of_an_error():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offences = {}
    for path in modules:
        module = str(path.relative_to(SRC))
        found = [(line, owner) for line, owner in _offences(path.read_text()) if (module, owner) not in ALLOWED]
        if found:
            offences[module] = found
    assert offences == {}


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ('def read(path):\n    raise LamError(f"bad file: {path}")\n', [(2, "read")]),
        ('def f(exc, name):\n    return f"{exc}: {name}"\n', [(2, "f")]),
        ('class C:\n    def m(self, p):\n        x = f"{self}: {p}"\n', [(3, "C")]),
        ('m = f"x: {path}"\n', [(1, "")]),
        ('def f(path):\n    return f"cannot read {path}: gone"\n', []),
        ('def f(path):\n    return f"at {path}"\n', []),
        ('def f(text):\n    return f"bad: {text}"\n', []),
        ('def f(c):\n    return f"bad: {c.path}"\n', []),
        ('def f(name):\n    return f"invalid feature name: {name!r}"\n', []),
    ],
    ids=["path", "name", "method-p", "module-level", "leading", "no-colon", "other-name", "attribute", "repr"],
)
def test_the_scan_finds_each_suffix(source, expected):
    assert _offences(source) == expected
