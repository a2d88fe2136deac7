"""Embedded golden table rows and the recomputation check against them.

Each line below transcribes one published order-54 table row verbatim:
family, row number, table number, verdict, then six jump lists (source,
image at t=2, image at t=4, and the three multiplier-orbit members).
Transcription keeps the source's occasional misprints on purpose; the
checker treats a verdict disagreement as a failure and a printed-set
disagreement as a warning, because the computation is authoritative for
the sets while the verdict column is the claim under test.
"""

from __future__ import annotations

from itertools import groupby

from .core import ConnectionSet, _Value, reflexive_reduce
from .enumeration import family_rows

GOLDEN_ROWS = """\
a|1|1|T2|1,3,17,19|3,7,11,25|3,5,13,23|1,3,17,19|5,13,15,23|7,11,21,25
a|2|1|T2|1,6,17,19|6,7,11,25|5,6,13,23|1,6,17,19|5,13,23,24|7,11,12,25
a|3|1|T1|1,9,17,19|7,9,11,25|5,9,13,23|1,9,17,19|5,9,13,23|7,9,11,25
a|4|1|T2|1,12,17,19|7,11,12,25|5,12,13,23|1,12,17,19|5,6,13,23|7,11,24,25
a|5|1|T2|1,15,17,19|7,11,15,25|5,13,15,23|1,15,17,19|5,13,21,23|3,7,11,25
a|6|1|T1|1,17,18,19|7,11,18,25|5,13,18,23|1,17,18,19|5,13,18,23|7,11,18,25
a|7|1|T2|1,17,19,21|7,11,21,25|5,13,21,23|1,17,19,21|3,5,13,23|7,11,15,25
a|8|1|T2|1,17,19,24|7,11,24,25|5,13,23,24|1,17,19,24|5,12,13,23|6,7,11,25
a|9|1|T1|1,17,19,27|7,11,25,27|5,13,23,27|1,17,19,27|5,13,23,27|7,11,25,27
a|10|1|T2|1,3,6,17,19|3,6,7,11,25|3,5,6,13,23|1,3,6,17,19|5,13,15,23,24|7,11,12,21,25
a|11|1|T2|1,3,9,17,19|3,7,9,11,25|3,5,9,13,23|1,3,9,17,19|5,9,13,15,23|7,9,11,21,25
a|12|1|T2|1,3,12,17,19|3,7,11,12,25|3,5,12,13,23|1,3,12,17,19|5,6,13,15,23|7,11,21,24,25
a|13|1|T2|1,3,15,17,19|3,7,11,15,25|3,5,13,15,23|1,3,15,17,19|5,13,15,21,23|3,7,11,21,25
a|14|1|T2|1,3,17,18,19|3,7,11,18,25|3,5,13,18,23|1,3,17,18,19|5,13,15,18,23|7,11,18,21,25
a|15|1|T2|1,3,17,19,21|3,7,11,21,25|3,5,13,21,23|1,3,17,19,21|3,5,13,15,23|7,11,15,21,25
a|16|1|T2|1,3,17,19,24|3,7,11,24,25|3,5,13,23,24|1,3,17,19,24|5,12,13,15,23|6,7,11,21,25
a|17|1|T2|1,3,17,19,27|3,7,11,25,27|3,5,13,23,27|1,3,17,19,27|5,13,15,23,27|7,11,21,25,27
a|18|1|T2|1,6,9,17,19|6,7,9,11,25|5,6,9,13,23|1,6,9,17,19|5,9,13,23,24|7,9,11,12,25
a|19|1|T2|1,6,12,17,19|6,7,11,12,25|5,6,12,13,23|1,6,12,17,19|5,6,13,23,24|7,11,12,24,25
a|20|1|T2|1,6,15,17,19|6,7,11,15,25|5,6,13,15,23|1,6,15,17,19|5,13,21,23,24|3,7,11,12,25
a|21|1|T2|1,6,17,18,19|6,7,11,18,25|5,6,13,18,23|1,6,17,18,19|5,13,18,23,24|7,11,12,18,25
a|22|1|T2|1,6,17,19,21|6,7,11,21,25|5,6,13,21,23|1,6,17,19,21|3,5,13,23,24|7,11,12,15,25
a|23|1|T2|1,6,17,19,24|6,7,11,24,25|5,6,13,23,24|1,6,17,19,24|5,12,13,23,24|6,7,11,12,25
a|24|1|T2|1,6,17,19,27|6,7,11,25,27|5,6,13,23,27|1,6,17,19,27|5,13,23,24,27|7,11,12,25,27
a|25|1|T2|1,9,12,17,19|7,9,11,12,25|5,9,12,13,23|1,9,12,17,19|5,6,9,13,23|7,9,11,24,25
a|26|1|T2|1,9,15,17,19|7,9,11,15,25|5,9,13,15,23|1,9,15,17,19|5,9,13,21,23|3,7,9,11,25
a|27|1|T1|1,9,17,18,19|7,9,11,18,25|5,9,13,18,23|1,9,17,18,19|5,9,13,18,23|7,9,11,18,25
a|28|1|T2|1,9,17,19,21|7,9,11,21,25|5,9,13,21,23|1,9,17,19,21|3,5,9,13,23|7,9,11,15,25
a|29|1|T2|1,9,17,19,24|7,9,11,24,25|5,9,13,23,24|1,9,17,19,24|5,9,12,13,23|6,7,9,11,25
a|30|1|T1|1,9,17,19,27|7,9,11,25,27|5,9,13,23,27|1,9,17,19,27|5,9,13,23,27|7,9,11,25,27
a|31|1|T2|1,12,15,17,19|7,11,12,15,25|5,12,13,15,23|1,12,15,17,19|5,6,13,21,23|3,7,11,24,25
a|32|2|T2|1,12,17,18,19|7,11,12,18,25|5,12,13,18,23|1,12,17,18,19|5,6,13,18,23|7,11,18,24,25
a|42|2|T1|1,17,18,19,27|7,11,18,25,27|5,13,18,23,27|1,17,18,19,27|5,13,18,23,27|7,11,18,25,27
a|56|2|T2|1,3,9,17,19,21|3,7,9,11,21,25|3,5,9,13,21,23|1,3,9,17,19,21|3,5,9,13,15,23|7,9,11,15,21,25
a|244|12|T2|1,12,15,17,19,21,24|7,11,12,15,21,24,25|5,12,13,15,21,23,24|1,12,15,17,19,21,24|3,5,6,13,12,21,23|3,6,7,11,15,24,25
a|250|12|T2|1,12,17,19,21,24,27|7,11,12,21,24,25,27|5,12,13,21,23,24,27|1,12,17,19,21,24,27|3,5,6,12,13,23,27|6,7,11,15,24,25,27
a|255|12|T2|1,17,18,19,21,24,27|7,11,18,21,24,25,27|5,13,18,21,23,24,27|1,17,18,19,21,24,27|3,5,12,13,18,23,27|6,7,11,15,18,25,27
a|265|12|T2|1,3,6,9,17,18,19,21|3,6,7,9,11,18,21,25|3,5,6,9,13,18,21,23|1,3,6,9,17,18,19,21|3,5,9,13,15,18,23,24|7,9,11,12,15,18,21,25
a|332|16|T2|1,6,9,12,17,18,19,27|6,7,9,11,12,18,25,27|5,6,9,12,13,18,23,27|1,6,9,12,17,18,19,27|5,6,9,13,18,23,24,27|7,9,11,12,18,24,25,27
a|339|16|T2|1,6,9,15,17,19,21,24|6,7,9,11,15,21,24,25|3,5,6,9,13,15,21,23,24|1,6,9,15,17,19,21,24|3,5,9,12,13,21,23,24|3,6,7,9,11,12,15,25
a|354|16|T1|1,6,12,17,18,19,24,27|6,7,11,12,18,24,25,27|5,6,12,13,18,23,24,27|1,6,12,17,18,19,24,27|5,6,12,13,18,23,24,27|6,7,11,12,18,24,25,27
a|502|23|T1|1,3,6,9,12,15,17,18,19,21,24|3,6,7,9,11,12,15,18,21,24,25|3,5,6,9,12,13,15,18,21,23,24|1,3,6,9,12,15,17,18,19,21,24|3,5,6,9,12,13,15,18,21,23,24|3,6,7,9,11,12,15,18,21,24,25
a|503|23|T2|1,3,6,9,12,15,17,18,19,21,27|3,6,7,9,11,12,15,18,21,25,27|3,5,6,9,12,13,15,18,21,23,27|1,3,6,9,12,15,17,18,19,21,27|3,5,6,9,13,15,18,21,23,24,27|3,7,9,11,12,15,18,21,24,25,27
a|505|23|T1|1,3,6,9,12,15,17,19,21,24,27|3,6,7,9,11,12,15,21,24,25,27|3,5,6,9,12,13,15,21,23,24,27|1,3,6,9,12,15,17,19,21,24,27|3,5,6,9,12,13,15,21,23,24,27|3,6,7,9,11,12,15,21,24,25,27
a|508|23|T1|1,3,6,12,15,17,18,19,21,24,27|3,6,7,11,12,15,18,21,24,25,27|3,5,6,12,13,15,18,21,23,24,27|1,3,6,12,15,17,18,19,21,24,27|3,5,6,12,13,15,18,21,23,24,27|3,6,7,11,12,15,18,21,24,25,27
a|511|23|T1|1,3,6,9,12,15,17,18,19,21,24,27|3,6,7,9,11,12,15,18,21,24,25,27|3,5,6,9,12,13,15,18,21,23,24,27|1,3,6,9,12,15,17,18,19,21,24,27|3,5,6,9,12,13,15,18,21,23,24,27|3,6,7,9,11,12,15,18,21,24,25,27
b|1|24|T2|2,3,16,20|3,4,14,22|3,8,10,26|2,3,16,20|8,10,15,26|4,14,21,22
b|2|24|T2|2,6,16,20|4,6,14,22|6,8,10,26|2,6,16,20|8,10,24,26|4,12,14,22
b|3|24|T1|2,9,16,20|4,9,14,22|8,9,10,26|2,9,16,20|8,9,10,26|4,9,14,22
b|4|24|T2|2,12,16,20|4,12,14,22|8,10,12,26|2,12,16,20|6,8,10,26|4,14,23,24
b|5|24|T2|2,15,16,20|4,14,15,22|8,10,15,26|2,15,16,20|8,10,21,26|3,4,14,22
b|6|24|T1|2,16,18,20|4,14,18,22|8,10,18,26|2,16,18,20|8,10,18,26|4,14,18,22
b|7|24|T2|2,16,20,21|4,14,21,22|8,10,21,26|2,16,20,21|3,8,10,26|4,14,15,22
b|8|24|T2|2,16,20,24|4,14,23,24|8,10,24,26|2,16,20,24|8,10,12,26|4,6,14,22
b|9|24|T1|2,16,20,27|4,14,22,27|8,10,26,27|2,16,20,27|8,10,26,27|4,14,22,27
b|27|24|T1|2,9,16,18,20|4,9,14,18,22|8,9,10,18,26|2,9,16,18,20|8,9,10,18,26|4,9,14,18,22
b|30|24|T1|2,9,16,20,27|4,9,14,22,27|8,9,10,26,27|2,9,16,20,27|8,9,10,26,27|4,9,14,22,27
b|222|34|T2|2,9,12,15,16,20,21|4,9,12,14,15,21,22|8,9,10,12,15,21,26|2,9,12,15,16,20,21|3,6,8,9,10,21,26|3,4,9,14,15,22,24
b|243|34|T2|2,12,15,16,18,20,27|4,12,14,15,18,22,27|8,10,12,15,18,26,27|2,12,15,16,18,20,27|6,8,10,18,21,26,27|3,4,14,18,22,24,27
b|339|39|T2|2,6,9,15,16,20,21,24|4,6,9,14,15,21,22,24|3,6,8,9,10,15,21,24,26|2,6,9,15,16,20,21,24|3,8,9,10,12,21,24,26|3,4,6,9,12,14,15,22
b|502|46|T1|2,3,6,9,12,15,16,18,20,21,24|3,4,6,9,12,14,15,18,21,22,24|3,6,8,9,10,12,15,18,21,24,26|2,3,6,9,12,15,16,18,20,21,24|3,6,8,9,10,12,15,18,21,24,26|3,4,6,9,12,14,15,18,21,22,24
b|510|46|T2|2,6,9,12,15,16,18,20,21,24,27|4,6,9,12,14,15,18,21,22,24,27|6,8,9,10,12,15,18,21,24,26,27|2,6,9,12,15,16,18,20,21,24,27|3,6,8,9,10,12,18,21,24,26,27|3,4,6,9,12,14,15,18,22,24,27
b|511|46|T1|2,3,6,9,12,15,16,18,20,21,24,27|3,4,6,9,12,14,15,18,21,22,24,27|3,6,8,9,10,12,15,18,21,24,26,27|2,3,6,9,12,15,16,18,20,21,24,27|3,6,8,9,10,12,15,18,21,24,26,27|3,4,6,9,12,14,15,18,21,22,24,27
"""


class GoldenRow(_Value):
    __slots__ = _fields = (
        "family", "table_no", "row_no", "source",
        "printed_t2", "printed_t4", "printed_orbit", "expected_verdict",
    )
    family: str
    table_no: int
    row_no: int
    source: ConnectionSet
    printed_t2: ConnectionSet
    printed_t4: ConnectionSet
    printed_orbit: tuple[ConnectionSet, ...]
    expected_verdict: str

    def __init__(
        self,
        family: str,
        table_no: int,
        row_no: int,
        source: ConnectionSet,
        printed_t2: ConnectionSet,
        printed_t4: ConnectionSet,
        printed_orbit: tuple[ConnectionSet, ...],
        expected_verdict: str,
    ) -> None:
        self._init(
            family, table_no, row_no, source, printed_t2, printed_t4, printed_orbit, expected_verdict
        )


def load_golden_rows() -> list[GoldenRow]:
    rows = []
    for line in GOLDEN_ROWS.strip().splitlines():
        fam, row_no, table_no, verdict, *sets = line.split("|")
        parsed = [reflexive_reduce(map(int, s.split(",")), 54) for s in sets]
        rows.append(
            GoldenRow(
                family=fam,
                table_no=int(table_no),
                row_no=int(row_no),
                source=parsed[0],
                printed_t2=parsed[1],
                printed_t4=parsed[2],
                printed_orbit=tuple(parsed[3:6]),
                expected_verdict=verdict,
            )
        )
    return rows


class GoldenReport(_Value):
    __slots__ = _fields = ("rows_checked", "verdict_mismatches", "image_warnings")
    rows_checked: int
    verdict_mismatches: tuple[str, ...]
    image_warnings: tuple[str, ...]

    def __init__(
        self,
        rows_checked: int,
        verdict_mismatches: tuple[str, ...],
        image_warnings: tuple[str, ...],
    ) -> None:
        self._init(rows_checked, verdict_mismatches, image_warnings)

    @property
    def ok(self) -> bool:
        return not self.verdict_mismatches

    def summary(self) -> str:
        lines = [
            f"rows checked: {self.rows_checked}",
            f"verdict mismatches: {len(self.verdict_mismatches)}",
            f"printed-set warnings: {len(self.image_warnings)}",
        ]
        lines.extend(f"MISMATCH {m}" for m in self.verdict_mismatches)
        lines.extend(f"warning {w}" for w in self.image_warnings)
        return "\n".join(lines)


def verify_goldens() -> GoldenReport:
    """Compare every embedded row with enumerate_family's row of its number.

    Verdicts must match exactly; printed sources, images and orbits that
    differ from the recomputation are reported as warnings (misprints in the
    source tables, never silently accepted as ground truth).
    """
    mismatches: list[str] = []
    warnings: list[str] = []
    rows = load_golden_rows()
    # One family_rows call per run of consecutive rows of one family; the
    # records come back in the order of the rows.
    records = [
        record
        for name, run in groupby(rows, key=lambda row: row.family)
        for record in family_rows(name, [row.row_no for row in run])
    ]
    for row, record in zip(rows, records):
        tag = f"family {row.family} row {row.row_no} (table {row.table_no})"
        computed = record.verdict.table_verdict
        if computed != row.expected_verdict:
            mismatches.append(f"{tag}: computed {computed}, printed {row.expected_verdict}")
        for label, printed, image in (
            ("source", row.source, record.members[0]),
            ("t=2 image", row.printed_t2, record.theta_images[2]),
            ("t=4 image", row.printed_t4, record.theta_images[4]),
        ):
            if image != printed:
                warnings.append(f"{tag}: {label} printed {printed}, computed {image}")
        if set(row.printed_orbit) != set(record.verdict.orbit):
            warnings.append(
                f"{tag}: orbit printed {[str(c) for c in row.printed_orbit]}, "
                f"computed {[str(c) for c in record.verdict.orbit]}"
            )
    return GoldenReport(
        rows_checked=len(rows),
        verdict_mismatches=tuple(mismatches),
        image_warnings=tuple(warnings),
    )
