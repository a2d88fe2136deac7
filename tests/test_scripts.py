"""The reproduction scripts under scripts/, run through their main()."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproduceTables:
    def test_bad_workers_env_is_exit_2_without_traceback(
        self, monkeypatch, tmp_path, capsys
    ):
        script = load_script("reproduce_tables")

        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started despite bad input")

        monkeypatch.setattr(script, "enumerate_family", no_enumeration)
        out_dir = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--out-dir", str(out_dir)])
        monkeypatch.setenv("CIRCIO_WORKERS", "abc")
        assert script.main() == 2
        err = capsys.readouterr().err
        assert "CIRCIO_WORKERS" in err
        assert "Traceback" not in err
        assert not out_dir.exists()
