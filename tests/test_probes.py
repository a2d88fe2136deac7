"""The open-problem probes: every verdict terminates with a certificate."""

from __future__ import annotations

from circio import probe_open_problems


class TestProbes:
    def test_all_entries_terminate_with_certificates(self):
        report = probe_open_problems()
        assert len(report.entries) == 35
        groups = {e.group for e in report.entries}
        assert "n48-a" in groups and "n48-b" in groups
        assert sum(1 for e in report.entries if e.group.startswith("n48")) == 8
        for entry in report.entries:
            assert entry.verdict.kind != "timeout"
            if entry.verdict.kind == "non-isomorphic":
                assert entry.verdict.certificate
            else:
                assert entry.verdict.permutation is not None

    def test_deterministic_spectral_outcome(self):
        # not asserted by the library, but the computation is deterministic:
        # every probed pair separates on its spectrum, the eight n=48 pairs
        # at the second eigenvalue and the other 27 at the first
        report = probe_open_problems()
        assert all(e.verdict.kind == "non-isomorphic" for e in report.entries)
        certificates = [e.verdict.certificate for e in report.entries]
        assert certificates == ["spectrum[1]"] * 8 + ["spectrum[0]"] * 27

    def test_no_probe_reaches_the_canonical_search(self):
        # Why probe_open_problems takes no budget: a probe that needed the
        # canonical search would run it with no bound from the command line.
        assert all(e.verdict.nodes == 0 for e in probe_open_problems().entries)

    def test_json_and_summary(self):
        report = probe_open_problems()
        out = report.to_json()
        assert len(out["entries"]) == 35
        assert len(report.summary().splitlines()) == 35
