"""The command-line surface: subcommands, file formats, exit codes."""

from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner

import circio.cli as cli_mod
from circio.cli import export_csv, export_jsonl, main
from circio import GoldenReport, ProbeReport, enumerate_family

ROW1 = (
    '1,C54(1,3,17,19),C54(3,7,11,25),C54(3,5,13,23),'
    '"C54(1,3,17,19);C54(5,13,15,23);C54(7,11,21,25)",T2'
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def family_a_records():
    return enumerate_family("a")


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


class TestUnwritableOutBeforeWork:
    """A bad --out fails before the work starts, and a failed scan leaves the
    file alone."""

    @staticmethod
    def refuse(*args, **kwargs):
        pytest.fail("the work ran before --out was checked")

    def test_scan(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "full_scan", self.refuse)
        out = tmp_path / "missing" / "scan48.json"
        result = runner.invoke(main, ["scan", "--n", "48", "--out", str(out)])
        assert_unwritable(result, out)

    def test_enumerate_family(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "enumerate_family", self.refuse)
        out = tmp_path / "missing" / "fam.csv"
        result = runner.invoke(
            main, ["enumerate-family", "--family", "a", "--out", str(out)]
        )
        assert_unwritable(result, out)

    def test_probe_open(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "probe_open_problems", self.refuse)
        out = tmp_path / "missing" / "probes.json"
        result = runner.invoke(main, ["probe-open", "--out", str(out)])
        assert_unwritable(result, out)

    def test_intractable_scan_creates_no_file(self, runner, tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["scan", "--n", "60", "--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_intractable_scan_keeps_an_existing_file(self, runner, tmp_path):
        out = tmp_path / "x.json"
        out.write_text("earlier report\n")
        result = runner.invoke(main, ["scan", "--n", "60", "--out", str(out)])
        assert result.exit_code == 2
        assert out.read_text() == "earlier report\n"


# Pinned sha256 of each output file. They guard the order of the orbit
# members and the streamed scan report byte for byte.
SCAN_REPORT_SHA256 = {
    16: "2c3674385590c4fcbdd87ac6aca833779320b01707bc92429835444e84fa6b93",
    27: "63e09f7260c173a1e6e1be9cb552de02cfa92bc34dc4c54164a96a520b7c6f01",
    32: "047c1f4b5b5b189466a9b739f59d14afc3e3124dd32b5c9b475bb211be54c0b5",
    48: "85122074b64375cee90e35fe3ea64b61d59f27acd418ce51413a2c3ab911be68",
    54: "d219bea46771901238577a43d67440ea9b4ebf87b382c5ddc0b5872e3d094822",
}
FAMILY_SHA256 = {
    ("a", "csv"): "24d74a98eb4a1ee230081ab4990aa4a8c9fd466311e2494e02c6039070a665c8",
    ("b", "jsonl"): "223bdaecba98dd687f095527fc1b3db632340bd3c04929b08fa2744b42e973d5",
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Accepted and ignored; perfbench passes it to both commands.
WORKERS_1 = ["--workers", "1"]


class TestOutputBytes:
    @pytest.mark.parametrize(
        "n,extra",
        [pytest.param(n, [], id=str(n)) for n in sorted(SCAN_REPORT_SHA256)]
        + [pytest.param(16, WORKERS_1, id="16-workers-1")],
    )
    def test_scan_report(self, runner, tmp_path, n, extra):
        out = tmp_path / f"scan{n}.json"
        result = runner.invoke(main, ["scan", "--n", str(n), "--out", str(out)] + extra)
        assert result.exit_code == 0
        assert sha256_of(out) == SCAN_REPORT_SHA256[n]

    @pytest.mark.parametrize(
        "name,suffix,extra",
        [pytest.param(*key, [], id="-".join(key)) for key in sorted(FAMILY_SHA256)]
        + [pytest.param("a", "csv", WORKERS_1, id="a-csv-workers-1")],
    )
    def test_family_export(self, runner, tmp_path, name, suffix, extra):
        out = tmp_path / f"family_{name}.{suffix}"
        result = runner.invoke(
            main, ["enumerate-family", "--family", name, "--out", str(out)] + extra
        )
        assert result.exit_code == 0
        assert sha256_of(out) == FAMILY_SHA256[name, suffix]


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
