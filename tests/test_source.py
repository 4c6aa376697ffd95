"""Checks on the library's source text itself."""

import ast
from pathlib import Path

import scpartitions

SOURCES = sorted(Path(scpartitions.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "series.py" for path in SOURCES)


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may guard behaviour.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
