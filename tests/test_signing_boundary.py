"""Every signature is made and checked in lam.backend: no other library
module calls _verify_hex, builds an Ed25519PublicKey or calls a `.sign(`
method (numpy's elementwise sign aside), and inside lam.backend only
_verifies calls _verify_hex, so every check goes through one bulk route."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lam"
FORBIDDEN_NAMES = {"_verify_hex", "Ed25519PublicKey"}


def _offences(source: str) -> list[str]:
    """Each forbidden reference or `.sign(` call in the module source, as
    'line: what'."""
    tree = ast.parse(source)
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            names = []
        found += [f"{node.lineno}: {name}" for name in names if name in FORBIDDEN_NAMES]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sign"
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id in numpy_names)
        ):
            found.append(f"{node.lineno}: .sign(")
    return found


def test_only_the_backend_signs_or_checks_signatures():
    modules = sorted(path for path in SRC.rglob("*.py") if path != SRC / "backend.py")
    assert len(modules) > 10
    offences = {str(path.relative_to(SRC)): _offences(path.read_text()) for path in modules}
    assert {name: found for name, found in offences.items() if found} == {}


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("from .backend import _verify_hex\n", ["1: _verify_hex"]),
        ("import lam.backend as b\nb._verify_hex(k, s, m)\n", ["2: _verify_hex"]),
        ("Ed25519PublicKey.from_public_bytes(raw)\n", ["1: Ed25519PublicKey"]),
        ("signature = endorser.private_key.sign(message)\n", ["1: .sign("]),
        ("import numpy as np\nsigns = np.sign(grads)\n", []),
        ("import numpy\nsigns = numpy.sign(grads)\n", []),
    ],
    ids=["import", "attribute", "public-key", "sign", "numpy-alias", "numpy"],
)
def test_the_scan_finds_each_kind_of_offence(source, expected):
    assert _offences(source) == expected


def _referrers(source: str, name: str) -> list[str]:
    """The innermost function enclosing each reference to `name` in the
    module source, in source order ("<module>" outside any function)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_inside_the_backend_only_verifies_calls_verify_hex():
    assert _referrers((SRC / "backend.py").read_text(), "_verify_hex") == ["_verifies"]

