"""Writers for enumerated records: the tables' CSV layout, JSON lines, and
the one record renderer that JSON lines and the scan report share."""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Sequence

from .classify import TupleRecord
from .core import ConnectionSet, _set_text

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


class _RecordText:
    """Renders records as json.dumps(record.to_json()) does: compact when
    depth is None, else with indent=2 as they read depth spaces deep. The
    verdict's fields() are rendered as to_json renders them: a tuple of
    sets as a list of their texts, a str quoted, an int as json prints it.

    Each distinct set, str and theta shift is quoted once per renderer, and
    each verdict tuple other than the members (an orbit, which the records
    of one orbit share) is rendered once. Both memos are keyed by identity:
    the renderer holds every object it keys, so no id is reused while it
    lives, and no lookup hashes a set."""

    def __init__(self, depth: int | None = None) -> None:
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
        # id(value) -> its JSON text, for every value in _held.
        self._text: dict[int, str] = {}
        self._held: list[object] = []
        # str(j) at index j, grown to the largest jump seen.
        self._digits: list[str] = []

    def _quote(self, value: object) -> str:
        """json.dumps(str(value)), memoised by identity. A set's str is
        written with its int jumps' texts read from _digits; it holds only
        C, digits, commas and parentheses, and an int's only digits and a
        sign, so json escapes neither."""
        text = self._text.get(id(value))
        if text is None:
            if isinstance(value, ConnectionSet):
                digits, jumps = self._digits, value.jumps
                if jumps and jumps[-1] >= len(digits):
                    digits += map(str, range(len(digits), jumps[-1] + 1))
                text = f'"{_set_text(value.n, map(digits.__getitem__, jumps))}"'
            elif isinstance(value, int):
                text = f'"{value}"'
            else:
                text = json.dumps(str(value))
            self._text[id(value)] = text
            self._held.append(value)
        return text

    def _list(self, value: tuple) -> str:
        """A verdict tuple of sets as its level-2 list text, memoised by identity."""
        text = self._text.get(id(value))
        if text is None:
            head, sep, tail = self._layout[2]
            text = f"[{head}{sep.join(map(self._quote, value))}{tail}]" if value else "[]"
            self._text[id(value)] = text
            self._held.append(value)
        return text

    def __call__(self, record: TupleRecord) -> str:
        (head0, sep0, tail0), (head1, sep1, tail1), (head2, sep2, tail2) = self._layout
        quote = self._quote
        members = record.members
        member_texts = list(map(quote, members))
        fields = []
        for key, value in record.verdict.fields():
            if isinstance(value, tuple):
                # A chain is often the members tuple itself, which no other
                # record shares: it is rendered, not memoised.
                if value is members:
                    text = f"[{head2}{sep2.join(member_texts)}{tail2}]" if members else "[]"
                else:
                    text = self._list(value)
            elif isinstance(value, str):
                text = quote(value)
            else:
                text = str(value)
            fields.append(f'"{key}": {text}')
        images = [f"{quote(t)}: {quote(img)}" for t, img in sorted(record.theta_images.items())]
        members_text = f"[{head1}{sep1.join(member_texts)}{tail1}]" if members else "[]"
        images_text = f"{{{head1}{sep1.join(images)}{tail1}}}" if images else "{}"
        return (
            f'{{{head0}"members": {members_text}{sep0}"theta_images": {images_text}'
            f'{sep0}"verdict": {{{head1}{sep1.join(fields)}{tail1}}}{tail0}}}'
        )
