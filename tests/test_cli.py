"""The command-line surface: subcommands, file formats, exit codes."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

import circio.cli as cli_mod
from circio.cli import export_csv, export_jsonl, main
from circio import GoldenReport, ProbeReport, enumerate_family, family

ROW1 = (
    '1,C54(1,3,17,19),C54(3,7,11,25),C54(3,5,13,23),'
    '"C54(1,3,17,19);C54(5,13,15,23);C54(7,11,21,25)",T2'
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def family_a_records():
    return enumerate_family(family("a"))


def assert_unwritable(result, path):
    """An output path under a missing directory is exit 2 naming the path."""
    assert result.exit_code == 2
    assert f"cannot write {path}" in result.output
    assert not isinstance(result.exception, OSError)


class TestOrbitCommand:
    def test_prints_members(self, runner):
        result = runner.invoke(main, ["orbit", "C54(1,6,17,19)"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "C54(1,6,17,19)",
            "C54(5,13,23,24)",
            "C54(7,11,12,25)",
        ]

    def test_bad_text_is_usage_error(self, runner):
        result = runner.invoke(main, ["orbit", "C54(0)"])
        assert result.exit_code == 2


class TestThetaCommand:
    def test_worked_image(self, runner):
        result = runner.invoke(
            main, ["theta", "--m", "3", "--t", "2", "C54(2,3,16,20)"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "C54(3,4,14,22)"

    def test_t0_prints_input(self, runner):
        result = runner.invoke(
            main, ["theta", "--m", "3", "--t", "0", "C54(1,3,17,19)"]
        )
        assert result.output.strip() == "C54(1,3,17,19)"

    def test_not_circulant(self, runner):
        result = runner.invoke(
            main, ["theta", "--m", "3", "--t", "1", "C54(1,3,17,19)"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "not circulant"

    def test_invalid_params_exit_2(self, runner):
        result = runner.invoke(
            main, ["theta", "--m", "2", "--t", "1", "C54(1,3,17,19)"]
        )
        assert result.exit_code == 2


class TestClassifyCommand:
    def test_pair(self, runner):
        result = runner.invoke(
            main, ["classify", "C54(1,3,17,19)", "C54(3,7,11,25)"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "Type2 m=3 t=2"

    def test_type1_pair(self, runner):
        result = runner.invoke(
            main, ["classify", "C54(1,9,17,19)", "C54(5,9,13,23)"]
        )
        assert result.output.strip() == "Type1 x=5"

    def test_triple(self, runner):
        result = runner.invoke(
            main,
            ["classify", "C54(1,3,17,19)", "C54(3,7,11,25)", "C54(3,5,13,23)"],
        )
        assert result.output.strip() == "Type2 m=3 t=2"

    def test_single_argument_exit_2(self, runner):
        result = runner.invoke(main, ["classify", "C54(1,3)"])
        assert result.exit_code == 2

    def test_same_set_exit_2(self, runner):
        result = runner.invoke(main, ["classify", "C54(1,3)", "C54(1,3)"])
        assert result.exit_code == 2


class TestEnumerateFamilyCommand:
    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "fam.csv"
        result = runner.invoke(
            main, ["enumerate-family", "--family", "a", "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,R,theta_t2,theta_t4,adam_orbit,verdict"
        assert lines[1] == ROW1
        assert len(lines) == 512

    def test_jsonl_output(self, runner, tmp_path):
        out = tmp_path / "fam.jsonl"
        result = runner.invoke(
            main, ["enumerate-family", "--family", "b", "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 511
        first = json.loads(lines[0])
        assert first["members"][0] == "C54(2,3,16,20)"
        assert first["verdict"]["verdict"] == "type2"

    def test_unknown_family_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["enumerate-family", "--family", "c", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    def test_unwritable_out_exit_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "fam.csv"
        result = runner.invoke(
            main, ["enumerate-family", "--family", "a", "--out", str(out)]
        )
        assert_unwritable(result, out)


class TestScanCommand:
    def test_writes_report(self, runner, tmp_path):
        out = tmp_path / "scan16.json"
        result = runner.invoke(main, ["scan", "--n", "16", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["counts"]["type2_pairs_raw"] == 8

    def test_intractable_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["scan", "--n", "60", "--out", str(tmp_path / "x.json")]
        )
        assert result.exit_code == 2

    def test_unwritable_out_exit_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "scan16.json"
        result = runner.invoke(main, ["scan", "--n", "16", "--out", str(out)])
        assert_unwritable(result, out)


class TestWorkersEnvironment:
    @pytest.mark.parametrize(
        "args",
        [["scan", "--n", "16"], ["enumerate-family", "--family", "a"]],
        ids=["scan", "enumerate-family"],
    )
    def test_non_integer_is_usage_error(self, runner, tmp_path, args):
        out = tmp_path / "x.json"
        result = runner.invoke(
            main, args + ["--out", str(out)], env={"CIRCIO_WORKERS": "abc"}
        )
        assert result.exit_code == 2
        assert "CIRCIO_WORKERS" in result.output
        assert not out.exists()


class TestGenerateCommand:
    def test_a17c(self, runner):
        result = runner.invoke(main, ["generate", "--a17c", "2", "1"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "C16(1,2,7)",
            "C16(2,3,5)",
            "Type2 m=2 t=2",
        ]

    def test_c1(self, runner):
        result = runner.invoke(main, ["generate", "--c1", "1", "3", "1", "0"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[:3] == ["C27(1,3,8,10)", "C27(3,4,5,13)", "C27(2,3,7,11)"]
        assert lines[3].startswith("Type2 m=3")

    def test_requires_exactly_one_mode(self, runner):
        assert runner.invoke(main, ["generate"]).exit_code == 2
        both = runner.invoke(
            main, ["generate", "--a17c", "2", "1", "--c1", "1", "3", "1", "0"]
        )
        assert both.exit_code == 2

    def test_degenerate_exit_2(self, runner):
        result = runner.invoke(main, ["generate", "--a17c", "3", "2"])
        assert result.exit_code == 2


class TestProbeOpenCommand:
    def test_prints_and_writes(self, runner, tmp_path):
        out = tmp_path / "probes.json"
        result = runner.invoke(main, ["probe-open", "--out", str(out)])
        assert result.exit_code == 0
        entry_lines = [
            line for line in result.output.splitlines() if " -> " in line
        ]
        assert len(entry_lines) == 35
        assert len(json.loads(out.read_text())["entries"]) == 35

    def test_unwritable_out_exit_2(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli_mod, "probe_open_problems", lambda budget: ProbeReport(entries=())
        )
        out = tmp_path / "missing" / "probes.json"
        result = runner.invoke(main, ["probe-open", "--out", str(out)])
        assert_unwritable(result, out)


class TestVerifyGoldensCommand:
    def test_clean_run_exits_zero(self, runner):
        result = runner.invoke(main, ["verify-goldens"])
        assert result.exit_code == 0
        assert "verdict mismatches: 0" in result.output

    def test_mismatch_exits_one(self, runner, monkeypatch):
        fake = GoldenReport(
            rows_checked=1,
            verdict_mismatches=("family a row 1 (table 1): computed T1, printed T2",),
            image_warnings=(),
        )
        monkeypatch.setattr(cli_mod, "verify_goldens", lambda: fake)
        result = runner.invoke(main, ["verify-goldens"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output


class TestExports:
    def test_csv_bytes_deterministic(self, family_a_records, tmp_path):
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        export_csv(family_a_records, p1)
        export_csv(family_a_records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trips_sets(self, family_a_records, tmp_path):
        from circio import ConnectionSet

        path = tmp_path / "fam.csv"
        export_csv(family_a_records, path)
        line = path.read_text().splitlines()[42]  # row 42, a T1 row
        fields = line.split(",C54(")
        assert line.startswith("42,")
        assert line.endswith(",T1")
        assert ConnectionSet.parse("C54(" + fields[1]) == family_a_records[41].members[0]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv([], tmp_path / "x.csv")
        with pytest.raises(ValueError):
            export_jsonl([], tmp_path / "x.jsonl")

    def test_jsonl_round_trip(self, family_a_records, tmp_path):
        path = tmp_path / "fam.jsonl"
        export_jsonl(family_a_records[:5], path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["members"][0] for r in rows] == [
            str(rec.members[0]) for rec in family_a_records[:5]
        ]
