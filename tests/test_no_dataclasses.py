"""The value types are plain slotted classes. A dataclass declaration
generates and compiles its methods at import, which every circio command
pays for, so the package imports no dataclasses."""

from __future__ import annotations

import ast
from pathlib import Path

import circio

PACKAGE = Path(circio.__file__).resolve().parent


def _imports_dataclasses(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "dataclasses"
    return False


def test_package_has_no_dataclasses_import():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports_dataclasses(node)
    ]
    assert found == []
