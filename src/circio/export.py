"""Writers for enumerated records: the tables' CSV layout and JSON lines."""

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
        orbit_cell = ";".join(str(c) for c in rec.verdict.orbit.members)
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
    """One record per line as JSON, in enumeration order."""
    if not records:
        raise ValueError("refusing to export an empty record list")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")
