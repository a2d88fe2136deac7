"""The reproduction scripts under scripts/, run through their main()."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from circio import CircioError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproduceTables:
    def test_library_error_is_exit_2_without_traceback(
        self, monkeypatch, tmp_path, capsys
    ):
        script = load_script("reproduce_tables")

        def failing_enumeration(spec):
            raise CircioError("enumeration refused")

        monkeypatch.setattr(script, "enumerate_family", failing_enumeration)
        out_dir = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(out_dir)])
        assert script.main() == 2
        err = capsys.readouterr().err
        assert "error: enumeration refused" in err
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
