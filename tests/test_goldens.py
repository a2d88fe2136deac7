"""The embedded table transcription and its recomputation report."""

from __future__ import annotations

import circio.goldens as goldens_mod
from circio import load_golden_rows, verify_goldens
from helpers import cs


class TestLoadGoldenRows:
    def test_row_count_and_families(self):
        rows = load_golden_rows()
        assert len(rows) == 63
        by_family = {"a": 0, "b": 0}
        for row in rows:
            by_family[row.family] += 1
        assert by_family["a"] == 46
        assert by_family["b"] == 17

    def test_verdict_kinds(self):
        assert {r.expected_verdict for r in load_golden_rows()} == {"T1", "T2"}

    def test_spans_required_tables(self):
        tables = {r.table_no for r in load_golden_rows()}
        assert {1, 12, 24, 34, 46} <= tables

    def test_first_row(self):
        row = load_golden_rows()[0]
        assert (row.family, row.row_no, row.table_no) == ("a", 1, 1)
        assert row.source == cs("C54(1,3,17,19)")
        assert (str(row.source), str(row.printed_t2), str(row.printed_t4)) == (
            "C54(1,3,17,19)", "C54(3,7,11,25)", "C54(3,5,13,23)"
        )
        assert row.expected_verdict == "T2"

    def test_rows_unique(self):
        keys = [(r.family, r.row_no) for r in load_golden_rows()]
        assert len(keys) == len(set(keys))


class TestVerifyGoldens:
    def test_no_verdict_mismatches(self):
        report = verify_goldens()
        assert report.ok
        assert report.rows_checked == 63
        assert report.verdict_mismatches == ()

    def test_known_misprints_flagged(self):
        # four transcription cells disagree with the recomputation; the
        # verdicts still match, so they surface as warnings only
        report = verify_goldens()
        assert len(report.image_warnings) == 4
        flagged = set()
        for warning in report.image_warnings:
            head = warning.split(":")[0]
            parts = head.split()
            flagged.add((parts[1], int(parts[3])))
        assert flagged == {("a", 339), ("b", 4), ("b", 8), ("b", 339)}

    def test_reordered_orbit_cell_not_flagged(self):
        # family a row 244 prints its orbit out of order but set-equal
        report = verify_goldens()
        assert not any("row 244" in w for w in report.image_warnings)

    def test_summary_lines(self):
        report = verify_goldens()
        lines = report.summary().splitlines()
        assert lines[0] == "rows checked: 63"
        assert lines[1] == "verdict mismatches: 0"
        assert lines[2] == "printed-set warnings: 4"


class TestGoldenRowNumbers:
    """Each printed row is checked against enumerate_family's row of its
    family and number, not against a row rebuilt from the printed source."""

    @staticmethod
    def misprint_row_2(monkeypatch, verdict):
        # Family a row 2 printed with the source of row 3, a Type-1 row.
        line = "a|2|1|T2|1,6,17,19|"
        assert line in goldens_mod.GOLDEN_ROWS
        edited = goldens_mod.GOLDEN_ROWS.replace(line, f"a|2|1|{verdict}|1,9,17,19|")
        monkeypatch.setattr(goldens_mod, "GOLDEN_ROWS", edited)

    def test_misprinted_source_is_one_warning(self, monkeypatch):
        self.misprint_row_2(monkeypatch, "T2")
        report = verify_goldens()
        assert report.verdict_mismatches == ()
        sources = [w for w in report.image_warnings if "source printed" in w]
        assert sources == [
            "family a row 2 (table 1): source printed C54(1,9,17,19), computed C54(1,6,17,19)"
        ]
        assert len(report.image_warnings) == 5

    def test_row_verdict_still_compared(self, monkeypatch):
        self.misprint_row_2(monkeypatch, "T1")
        report = verify_goldens()
        assert report.verdict_mismatches == ("family a row 2 (table 1): computed T2, printed T1",)
        assert len(report.image_warnings) == 5
