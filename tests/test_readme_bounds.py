"""Every named bound in `src/lam`, a module-level `MAX_*` constant, is
documented in the README as `` `NAME` = 10^k `` with the value the code
holds, so neither can change without the other."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lam"


def _bounds() -> list[tuple[str, str]]:
    """(module, name) of every module-level MAX_* assignment under src/lam."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(("lam", *(parts[:-1] if parts[-1] == "__init__" else parts)))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            found += [(module, t.id) for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
    return found


def _documented(readme: str, name: str) -> list[int]:
    """The values the README gives `name`, one per `` `NAME` = 10^k ``."""
    return [10 ** int(k) for k in re.findall(rf"`{name}` = 10\^(\d+)", readme)]


BOUNDS = _bounds()


def test_the_scan_finds_the_known_bounds():
    assert {"MAX_PARAMETERS", "MAX_ROW_PASSES", "MAX_BATCH_ACTIVATIONS"} <= {name for _, name in BOUNDS}


def test_documented_finds_each_value():
    readme = "at most `MAX_X` = 10^6 rows; `MAX_X` = 10^7 again, `MAX_XY` = 10^2"
    assert _documented(readme, "MAX_X") == [10**6, 10**7]


@pytest.mark.parametrize(("module", "name"), BOUNDS, ids=[name for _, name in BOUNDS])
def test_each_bound_is_documented_with_its_value(module, name):
    value = getattr(importlib.import_module(module), name)
    documented = _documented((ROOT / "README.md").read_text(encoding="utf-8"), name)
    assert documented, f"README does not give `{name}` = 10^k"
    assert set(documented) == {value}, (name, value, documented)
