"""The reproduction scripts under scripts/, run through their main()."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from circio import CircioError, ScanReport, WitnessMismatch

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproduceTables:
    def test_tables_scan_and_goldens_agree(self, monkeypatch, tmp_path, capsys):
        script = load_script("reproduce_tables")
        out_dir = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(out_dir)])
        assert script.main() == 0
        assert (out_dir / "family_a.csv").is_file()
        assert (out_dir / "family_b.csv").is_file()
        lines = capsys.readouterr().out.splitlines()
        assert "combined Type-2 triples: 960" in lines
        assert (
            "the exhaustive order-54 scan finds 960 Type-2 triples, all of them family rows"
            in lines
        )

    def test_scan_that_misses_family_rows_is_exit_1(self, monkeypatch, tmp_path, capsys):
        script = load_script("reproduce_tables")
        real = script.full_scan

        def scan_without_first_record(n):
            report = real(n)
            return ScanReport(report.n, report.counts, report.records[1:])

        monkeypatch.setattr(script, "full_scan", scan_without_first_record)
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(tmp_path)])
        assert script.main() == 1
        captured = capsys.readouterr()
        assert "all of them family rows" not in captured.out
        assert (
            "error: the exhaustive order-54 scan finds 959 Type-2 triples, 0 of them "
            "not family rows, and misses 1 of the 960 family T2 rows" in captured.err
        )

    def test_library_error_is_exit_2_without_traceback(
        self, monkeypatch, tmp_path, capsys
    ):
        script = load_script("reproduce_tables")

        def failing_enumeration(name):
            raise CircioError("enumeration refused")

        monkeypatch.setattr(script, "enumerate_family", failing_enumeration)
        out_dir = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(out_dir)])
        assert script.main() == 2
        err = capsys.readouterr().err
        assert "error: enumeration refused" in err
        assert "Traceback" not in err

    def test_failed_certificate_is_exit_1(self, monkeypatch, tmp_path, capsys):
        script = load_script("reproduce_tables")

        def failing_scan(n):
            raise WitnessMismatch("a unit multiplier carries the pair")

        monkeypatch.setattr(script, "full_scan", failing_scan)
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(tmp_path)])
        assert script.main() == 1
        err = capsys.readouterr().err
        assert "error: not certified: a unit multiplier carries the pair" in err
        assert "Traceback" not in err

    def test_out_dir_that_is_a_file_is_exit_2(self, monkeypatch, tmp_path, capsys):
        script = load_script("reproduce_tables")
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(out_dir)])
        assert script.main() == 2
        err = capsys.readouterr().err
        assert f"cannot write {out_dir}" in err
        assert "Traceback" not in err

    def test_unwritable_table_names_the_file(self, monkeypatch, tmp_path, capsys):
        script = load_script("reproduce_tables")
        out_dir = tmp_path / "out"
        (out_dir / "family_a.csv").mkdir(parents=True)
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(out_dir)])
        assert script.main() == 2
        err = capsys.readouterr().err
        assert f"cannot write {out_dir / 'family_a.csv'}: Is a directory" in err
        assert "Traceback" not in err
