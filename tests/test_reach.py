"""Every public function and class in ``src/frameport`` is reached.

A top-level public name counts as reached when ``src/`` or ``bench/`` code
names it (a ``Name``, an ``Attribute`` or an import alias), when a string
in ``bench/`` spells it (the benchmark patches attributes by name), or when
``frameport.__all__`` exports it. A name only tests use belongs in the
tests. The check is by spelling, so a name that shares its spelling with
any reference anywhere counts as reached.
"""

from __future__ import annotations

import ast
from pathlib import Path

import frameport

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frameport"
BENCH = ROOT / "bench"


def _trees(root: Path) -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(root.rglob("*.py"))
    ]


def _references(tree: ast.Module, strings: bool) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                names.add(node.asname)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _public_definitions() -> dict[str, str]:
    """Top-level public function and class name -> its module's file name."""
    defined: dict[str, str] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[f"{path.name}:{node.name}"] = node.name
    return defined


def test_every_public_src_definition_is_reached():
    reached = set(frameport.__all__)
    for tree in _trees(SRC):
        reached |= _references(tree, strings=False)
    for tree in _trees(BENCH):
        reached |= _references(tree, strings=True)
    unreached = sorted(
        where for where, name in _public_definitions().items() if name not in reached
    )
    assert unreached == []
