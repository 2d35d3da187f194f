"""No module of lam imports or references another lam module's private
(`_`-prefixed) name: a name one module shares with another is public in the
module that defines it. Dunder names such as `__version__` are public."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lam"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _offences(source: str) -> list[str]:
    """Each private name the module source imports from lam, or reads as an
    attribute of a name it imported from lam, as 'line: name'."""
    tree = ast.parse(source)
    imported: set[str] = set()  # names bound to what lam modules define
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "lam"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((alias.lineno, alias.name))
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lam":
                    imported.add(alias.asname or "lam")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_module_reaches_into_another_modules_private_names():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offences = {str(path.relative_to(SRC)): _offences(path.read_text()) for path in modules}
    assert {name: found for name, found in offences.items() if found} == {}


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("from .model import Model, _activate\n", ["1: _activate"]),
        ("from lam.backend import (\n    Signed,\n    _public_hex,\n)\n", ["3: _public_hex"]),
        ("from . import backend\nbackend._public_hex(key)\n", ["2: _public_hex"]),
        ("import lam.engine.model as m\nm._activate(z, act)\n", ["2: _activate"]),
        ("import lam\nlam.engine.model._forward\n", ["2: _forward"]),
        ("from . import __version__\n", []),
        ("from numpy import _core\nimport numpy as np\nnp._core\n", []),
        ("def _own(x):\n    return x._cache\n\n_own(self)\n", []),
    ],
    ids=["import", "multiline-import", "module-attribute", "import-as", "dotted", "dunder", "other-package", "own"],
)
def test_the_scan_finds_each_kind_of_offence(source, expected):
    assert _offences(source) == expected
