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
    render = _RecordText()
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(render(rec) + "\n")


class _RecordText(dict):
    """Renders records as json.dumps(record.to_json()) does: compact when
    depth is None, else with indent=2 as they read depth spaces deep. The
    verdict's fields() are rendered as to_json renders them: a tuple of
    sets as a list of their texts, a str quoted, an int as json prints it.
    As a dict it maps each value to json.dumps(str(value)), built on first
    use, so each distinct set is quoted once per renderer."""

    def __init__(self, depth: int | None = None) -> None:
        super().__init__()
        # (head, sep, tail) of a nonempty list or object in the record (level
        # 0), its three parts (1) and the verdict's lists (2): what json.dumps
        # writes after "[" or "{", between items, and before "]" or "}".
        if depth is None:
            self._layout = [("", ", ", "")] * 3
        else:
            self._layout = [
                (f"\n{pad}  ", f",\n{pad}  ", f"\n{pad}")
                for pad in (" " * (depth + 2 * level) for level in range(3))
            ]

    def __missing__(self, value: object) -> str:
        text = self[value] = json.dumps(str(value))
        return text

    def __call__(self, record: TupleRecord) -> str:
        (head0, sep0, tail0), (head1, sep1, tail1), (head2, sep2, tail2) = self._layout
        members = [self[c] for c in record.members]
        fields = []
        for key, value in record.verdict.fields():
            if isinstance(value, tuple):
                # A chain is often the members tuple itself.
                items = members if value is record.members else [self[c] for c in value]
                text = f"[{head2}{sep2.join(items)}{tail2}]" if items else "[]"
            else:
                text = self[value] if isinstance(value, str) else str(value)
            fields.append(f'"{key}": {text}')
        images = [f"{self[t]}: {self[img]}" for t, img in sorted(record.theta_images.items())]
        members_text = f"[{head1}{sep1.join(members)}{tail1}]" if members else "[]"
        images_text = f"{{{head1}{sep1.join(images)}{tail1}}}" if images else "{}"
        return (
            f'{{{head0}"members": {members_text}{sep0}"theta_images": {images_text}'
            f'{sep0}"verdict": {{{head1}{sep1.join(fields)}{tail1}}}{tail0}}}'
        )
