"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block under the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under Library quick start"
    return match.group(1)


def test_library_quick_start():
    namespace: dict = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert len(namespace["records"]) == 511
    assert namespace["report"].counts == {
        "type2_pairs_raw": 8,
        "type2_tuples_primitive": 8,
        "type1_tuples_primitive": 7,
    }
