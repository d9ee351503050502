"""Checks on the package source itself."""

import ast
from pathlib import Path

import k3moduli

SOURCES = sorted(Path(k3moduli.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []
