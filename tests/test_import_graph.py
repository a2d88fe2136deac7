"""The oracle and the algebra do not import each other. The canonical-labeling
oracle is the independent derivation the algebra's verdicts are checked
against, so neither side may lean on the other; both rest on core alone."""

from __future__ import annotations

import ast
from pathlib import Path

import circio

PACKAGE = Path(circio.__file__).resolve().parent

# The circio modules each of these may import, and no others.
ALLOWED = {
    "core": {"errors"},
    "multipliers": {"core", "errors"},
    "theta": {"core", "errors"},
    "oracle": {"core", "errors"},
}


def _dotted(node: ast.AST) -> list[str]:
    """The dotted names an import statement reads, relative ones written
    from the package (`from .core import x` reads circio.core, and
    `from . import x` reads circio.x)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = ".".join(filter(None, ("circio" if node.level else "", node.module)))
    if base == "circio":
        return [f"circio.{alias.name}" for alias in node.names]
    return [base]


def circio_imports(module: str) -> set[str]:
    """The circio modules that module imports anywhere in its source, named
    without the package prefix; a bare `import circio` reads __init__."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        name.partition(".")[2].split(".")[0] or "__init__"
        for node in ast.walk(tree)
        for name in _dotted(node)
        if name.split(".")[0] == "circio"
    }


def test_algebra_and_oracle_import_only_core_and_errors():
    assert {module: circio_imports(module) for module in ALLOWED} == ALLOWED


def test_reader_sees_every_import_form():
    source = "\n".join((
        "import json, circio.oracle",
        "import circio",
        "from circio import theta",
        "from circio.core import ConnectionSet",
        "from . import __version__",
        "from .multipliers import units",
        "def f():",
        "    from .enumeration import full_scan",
    ))
    names = [name for node in ast.walk(ast.parse(source)) for name in _dotted(node)]
    assert sorted(names) == [
        "circio", "circio.__version__", "circio.core", "circio.enumeration",
        "circio.multipliers", "circio.oracle", "circio.theta", "json",
    ]
    # classify joins the algebra and the oracle.
    assert {"multipliers", "oracle", "theta"} <= circio_imports("classify")
