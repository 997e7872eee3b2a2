"""Every name a ``stratexp`` module imports is used there or listed in its
``__all__``: a leftover import after a refactor fails here."""

import ast
from pathlib import Path

import pytest

import stratexp

MODULES = sorted(Path(stratexp.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads, less those
    in a literal ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        (
            "from dataclasses import dataclass, replace\n@dataclass\nclass A: pass\n",
            ["line 1: replace"],
        ),
        ("import numpy as np\nimport os.path\nx = os.path.join\n", ["line 1: np"]),
        ("from .a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
    ],
)
def test_the_check_sees_an_unused_import(source, unused):
    assert unused_imports(source) == unused
