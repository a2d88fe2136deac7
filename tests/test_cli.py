"""The command-line surface: subcommands, file formats, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import circio.cli as cli_mod
from circio.cli import export_csv, export_jsonl, main
from circio import GoldenReport, ProbeReport, WitnessMismatch, enumerate_family

ROW1 = (
    '1,C54(1,3,17,19),C54(3,7,11,25),C54(3,5,13,23),'
    '"C54(1,3,17,19);C54(5,13,15,23);C54(7,11,21,25)",T2'
)


class Runner:
    """Runs main(argv) in-process and reports what a shell would see.

    output holds stdout and stderr together. exception is whatever main
    raised other than SystemExit; a nonzero exit without one reads as
    SystemExit(exit_code).
    """

    @staticmethod
    def invoke(main, args):
        output, exception = io.StringIO(), None
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            try:
                exit_code = main(args)
            except SystemExit as exc:
                exit_code = exc.code
            except Exception as exc:  # reported, as a shell would see a traceback
                exit_code, exception = 1, exc
        if exception is None and exit_code:
            exception = SystemExit(exit_code)
        return SimpleNamespace(exit_code=exit_code, output=output.getvalue(), exception=exception)


@pytest.fixture()
def runner():
    return Runner()


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

    def test_mixed_orders_exit_2(self, runner):
        result = runner.invoke(main, ["classify", "C54(1,3)", "C27(1,3)"])
        assert result.exit_code == 2
        assert "orders differ: 54 vs 27" in result.output

    def test_negative_budget_exit_2(self, runner):
        result = runner.invoke(
            main, ["classify", "--budget", "-1", "C16(1,2,7)", "C16(1,6,7)"]
        )
        assert result.exit_code == 2
        assert "--budget" in result.output

    def test_zero_budget_is_unknown(self, runner):
        result = runner.invoke(
            main, ["classify", "--budget", "0", "C16(1,2,7)", "C16(1,6,7)"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "Unknown budget"


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

    def test_negative_budget_exit_2(self, runner, tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(
            main, ["scan", "--n", "16", "--budget", "-1", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "--budget" in result.output
        assert not out.exists()

    def test_zero_budget_names_the_phase(self, runner, tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(
            main, ["scan", "--n", "16", "--budget", "0", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "core image phase needs 21 image tests" in result.output
        assert not out.exists()


class TestFailedCertificate:
    """A WitnessMismatch is exit 1 with a message, not a usage error and not
    a traceback, and it leaves no output file behind."""

    @staticmethod
    def mismatch(*args, **kwargs):
        raise WitnessMismatch("vertex map does not carry the edges")

    @staticmethod
    def assert_not_certified(result):
        assert result.exit_code == 1
        assert "not certified: vertex map does not carry the edges" in result.output
        assert "Usage:" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_scan(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "full_scan", self.mismatch)
        out = tmp_path / "scan16.json"
        result = runner.invoke(main, ["scan", "--n", "16", "--out", str(out)])
        self.assert_not_certified(result)
        assert not out.exists()

    def test_enumerate_family(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "enumerate_family", self.mismatch)
        out = tmp_path / "fam.csv"
        result = runner.invoke(
            main, ["enumerate-family", "--family", "a", "--out", str(out)]
        )
        self.assert_not_certified(result)
        assert not out.exists()

    def test_verify_goldens(self, runner, monkeypatch):
        monkeypatch.setattr(cli_mod, "verify_goldens", self.mismatch)
        self.assert_not_certified(runner.invoke(main, ["verify-goldens"]))


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
    8: "8b4b76f08d295ba51826a117cc1f89d5f9d2ed66ad8cb7f721cf2588c004f371",
    16: "2c3674385590c4fcbdd87ac6aca833779320b01707bc92429835444e84fa6b93",
    24: "ffaf49f559cd54b7e071f61bb89c2a44700146fb5945c659490c0d954bf80bbd",
    27: "63e09f7260c173a1e6e1be9cb552de02cfa92bc34dc4c54164a96a520b7c6f01",
    32: "047c1f4b5b5b189466a9b739f59d14afc3e3124dd32b5c9b475bb211be54c0b5",
    40: "dea77c46467386dbe4c80c6ff0ec2109037e58e00ca7c285fd7d23baa1260f34",
    48: "85122074b64375cee90e35fe3ea64b61d59f27acd418ce51413a2c3ab911be68",
    54: "d219bea46771901238577a43d67440ea9b4ebf87b382c5ddc0b5872e3d094822",
}
FAMILY_SHA256 = {
    ("a", "csv"): "24d74a98eb4a1ee230081ab4990aa4a8c9fd466311e2494e02c6039070a665c8",
    ("a", "jsonl"): "de63b7b25c62752d8b4f3d7529e475c5d03fb2c981a59afd7ab7c8f6525ba78a",
    ("b", "csv"): "8e5e3b0ac92326467af078768ec7e775ee2d756dfed66acbbef9c08fed2bacd9",
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

    @pytest.mark.parametrize(
        "c1,message",
        [
            (["1", "0", "1", "0"], "p must be an odd prime, got 0"),
            (["1", "-3", "1", "0"], "p must be an odd prime, got -3"),
            (["0", "0", "0", "0"], "base must be >= 1, got 0"),
        ],
    )
    def test_c1_names_the_bad_value(self, runner, c1, message):
        """generate_c1 validates before the chain is built, so p <= 0 does not
        reach classify_tuple with an empty chain."""
        result = runner.invoke(main, ["generate", "--c1", *c1])
        assert result.exit_code == 2
        assert message in result.output
        assert "need at least two members" not in result.output


COMMANDS = (
    "orbit",
    "theta",
    "classify",
    "enumerate-family",
    "scan",
    "generate",
    "probe-open",
    "verify-goldens",
)


class TestSurface:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output == "circio, version 0.1.0\n"

    def test_help_names_every_command(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in COMMANDS:
            assert name in result.output

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_help(self, runner, name):
        result = runner.invoke(main, [name, "--help"])
        assert result.exit_code == 0
        assert f"usage: circio {name}" in result.output
        assert "--workers" not in result.output

    def test_unknown_command_exit_2(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code == 2
        assert "frobnicate" in result.output

    def test_no_command_exit_2(self, runner):
        assert runner.invoke(main, []).exit_code == 2

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_1_quietly(self, unbuffered):
        """A reader that goes away (circio ... | head) ends the run with exit 1
        and nothing on stderr, however stdout is buffered."""
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        src = str(Path(cli_mod.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "circio.cli", "orbit", "C54(1,6,17,19)"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_main_main_returns_the_code(self, capsys):
        """perfbench runs every command through main.main(...)."""
        assert main.main(args=["verify-goldens"], prog_name="circio", standalone_mode=False) == 0
        assert "verdict mismatches: 0" in capsys.readouterr().out


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

    def test_negative_budget_exit_2(self, runner, monkeypatch):
        monkeypatch.setattr(
            cli_mod, "probe_open_problems", lambda budget: ProbeReport(entries=())
        )
        result = runner.invoke(main, ["probe-open", "--budget", "-1"])
        assert result.exit_code == 2
        assert "--budget" in result.output

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

    def test_jsonl_is_json_dumps_of_every_family_record(self, family_a_records, tmp_path):
        for records in (family_a_records, enumerate_family("b")):
            path = tmp_path / "fam.jsonl"
            export_jsonl(records, path)
            assert path.read_text(encoding="utf-8").splitlines() == [
                json.dumps(rec.to_json()) for rec in records
            ]

    def test_jsonl_round_trip(self, family_a_records, tmp_path):
        path = tmp_path / "fam.jsonl"
        export_jsonl(family_a_records[:5], path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["members"][0] for r in rows] == [
            str(rec.members[0]) for rec in family_a_records[:5]
        ]
