"""Certified outputs must not rest on assert, which python -O strips."""

from __future__ import annotations

import ast
from pathlib import Path

import circio

PACKAGE = Path(circio.__file__).resolve().parent


def test_package_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
