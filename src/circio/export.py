"""Writers for enumerated records: the tables' CSV layout, JSON lines, and
the one record renderer that JSON lines and the scan report share."""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Sequence

from .classify import TupleRecord

CSV_HEADER = "row,R,theta_t2,theta_t4,adam_orbit,verdict"


def verdict_counts(records: Sequence[TupleRecord]) -> Counter:
    """How many records carry each table verdict ("T1", "T2", ...)."""
    return Counter(rec.verdict.table_verdict for rec in records)


def export_csv(records: Sequence[TupleRecord], path: str | os.PathLike) -> None:
    """Write records as the tables' six columns, one row per record.

    Cells use the canonical C<n>(...) text. The orbit cell is quoted and
    ';'-joined; the others are written bare, matching the published layout.
    Built by hand rather than with the csv module so the bytes stay fixed.
    """
    if not records:
        raise ValueError("refusing to export an empty record list")
    lines = [CSV_HEADER]
    for row_no, rec in enumerate(records, start=1):
        orbit_cell = ";".join(str(c) for c in rec.verdict.orbit)
        lines.append(
            "%d,%s,%s,%s,\"%s\",%s"
            % (
                row_no,
                rec.members[0],
                rec.theta_images.get(2, ""),
                rec.theta_images.get(4, ""),
                orbit_cell,
                rec.verdict.table_verdict,
            )
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def export_jsonl(records: Sequence[TupleRecord], path: str | os.PathLike) -> None:
    """One record per line as json.dumps(rec.to_json()) writes it, in
    enumeration order. Each distinct set is quoted once per file."""
    if not records:
        raise ValueError("refusing to export an empty record list")
    quoted = _Quoted()
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_record_text(rec, quoted) + "\n")


class _Quoted(dict):
    """value -> json.dumps(str(value)), built on first use."""

    def __missing__(self, value: object) -> str:
        text = self[value] = json.dumps(str(value))
        return text


def _block(brackets: str, items: list[str], depth: int | None) -> str:
    """A list ("[]") or object ("{}") of items, already JSON text, as
    json.dumps lays it out: compact when depth is None, else with indent=2
    when its first line is depth spaces deep."""
    if not items:
        return brackets
    if depth is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = " " * (depth + 2)
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{' ' * depth}{brackets[1]}"


def _record_text(record: TupleRecord, quoted: _Quoted, depth: int | None = None) -> str:
    """json.dumps(record.to_json()), or with indent=2 as it reads depth
    spaces deep. The verdict's fields() are rendered as to_json renders
    them: a tuple of sets as a list of their texts, a str quoted, an int as
    json prints it."""
    inner, deeper = (None, None) if depth is None else (depth + 2, depth + 4)
    fields = []
    for key, value in record.verdict.fields():
        if isinstance(value, tuple):
            text = _block("[]", [quoted[c] for c in value], deeper)
        else:
            text = quoted[value] if isinstance(value, str) else str(value)
        fields.append(f'"{key}": {text}')
    images = [f"{quoted[t]}: {quoted[img]}" for t, img in sorted(record.theta_images.items())]
    return _block("{}", [
        f'"members": {_block("[]", [quoted[c] for c in record.members], inner)}',
        f'"theta_images": {_block("{}", images, inner)}',
        f'"verdict": {_block("{}", fields, inner)}',
    ], depth)
