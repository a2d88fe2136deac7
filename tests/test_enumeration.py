"""Families, exhaustive scans, generators, probes."""

from __future__ import annotations

import io
import json
from functools import lru_cache
from itertools import combinations

import pytest

import circio.enumeration as enumeration_mod
from circio import (
    ConnectionSet,
    DegeneratePair,
    Intractable,
    InvalidIndex,
    InvalidParams,
    TYPE1,
    TYPE2,
    WitnessMismatch,
    classify_pair,
    enumerate_family,
    full_scan,
    generate_a17c,
    generate_c1,
    is_adam_equivalent,
    probe_open_problems,
    theta_image,
    valid_block_moduli,
    worker_count,
)
from circio.enumeration import FAMILY_BASES, _fixed_masks, family_row
from circio.multipliers import units
from helpers import cs

# Rows (1-based, ordered by extension size then lexicographically) whose
# triple collapses into a single multiplier orbit. Same list for both
# families.
T1_ROWS = [
    3, 6, 9, 27, 30, 42, 65, 83, 106, 157, 176, 180, 189, 206, 210,
    301, 305, 322, 331, 335, 354, 405, 428, 446, 469, 481, 484, 502,
    505, 508, 511,
]


@pytest.fixture(scope="module")
def family_a():
    return enumerate_family("a")


@pytest.fixture(scope="module")
def family_b():
    return enumerate_family("b")


@pytest.fixture(scope="module")
def scan_of():
    """full_scan(n), run once per order in this module."""
    return lru_cache(maxsize=None)(full_scan)


@pytest.fixture(scope="module")
def scan54(scan_of):
    return scan_of(54)


def scan_counts(pairs: int, type2: int, type1: int) -> dict[str, int]:
    return {
        "type2_pairs_raw": pairs,
        "type2_tuples_primitive": type2,
        "type1_tuples_primitive": type1,
    }


class TestFamilies:
    def test_first_and_last_rows(self, family_a, family_b):
        # Row 1 adjoins {3} to the base, row 511 every multiple of 3 up to 27.
        pool = (3, 6, 9, 12, 15, 18, 21, 24, 27)
        for records, base in ((family_a, (1, 17, 19)), (family_b, (2, 16, 20))):
            first, last = records[0].members[0], records[-1].members[0]
            assert first == ConnectionSet(54, tuple(sorted(base + (3,))))
            assert last == ConnectionSet(54, tuple(sorted(base + pool)))

    def test_unknown_family(self):
        with pytest.raises(InvalidParams):
            enumerate_family("z")


class TestEnumerateFamily:
    def test_counts(self, family_a, family_b):
        for records in (family_a, family_b):
            assert len(records) == 511
            verdicts = [r.verdict.table_verdict for r in records]
            assert verdicts.count("T2") == 480
            assert verdicts.count("T1") == 31

    def test_row_order(self, family_a):
        assert family_a[0].members[0] == cs("C54(1,3,17,19)")
        assert family_a[8].members[0] == cs("C54(1,17,19,27)")
        assert family_a[9].members[0] == cs("C54(1,3,6,17,19)")
        assert family_a[510].members[0] == cs("C54(1,3,6,9,12,15,17,18,19,21,24,27)")

    def test_t1_positions(self, family_a, family_b):
        for records in (family_a, family_b):
            got = [
                i
                for i, r in enumerate(records, start=1)
                if r.verdict.table_verdict == "T1"
            ]
            assert got == T1_ROWS

    def test_members_are_theta_images(self, family_a):
        rec = family_a[0]
        assert rec.members == (
            cs("C54(1,3,17,19)"),
            cs("C54(3,7,11,25)"),
            cs("C54(3,5,13,23)"),
        )
        assert rec.theta_images == {2: rec.members[1], 4: rec.members[2]}

    def test_family_row_is_the_enumerated_row(self, family_a):
        for rec in family_a[:20]:
            row = family_row(rec.members[0])
            assert row.members == rec.members
            assert row.theta_images == rec.theta_images
            assert row.verdict == rec.verdict

    def test_t1_membership_is_orbit_equality(self, family_a, family_b):
        # Every row has three distinct members and an orbit of three, so
        # "all members in the orbit" and "orbit equals the members" agree.
        for rec in family_a + family_b:
            orbit = set(rec.verdict.orbit.members)
            assert len(orbit) == 3 and len(set(rec.members)) == 3
            assert (rec.verdict.kind == TYPE1) == (orbit == set(rec.members))

    def test_union_property_all_rows(self, family_a, family_b):
        # every row's images are the one-extension seed images with the rest
        # of the extension riding along unchanged
        for spec_name, records in (("a", family_a), ("b", family_b)):
            base = ConnectionSet(54, FAMILY_BASES[spec_name])
            for rec in records:
                ext = tuple(
                    j for j in rec.members[0].jumps if j not in base.jumps
                )
                seed = ConnectionSet(54, tuple(sorted(base.jumps + ext[:1])))
                rest = ext[1:]
                for t in (2, 4):
                    seed_img = theta_image(seed, 3, t)
                    expected = set(seed_img.jumps) | set(rest)
                    assert set(rec.theta_images[t].jumps) == expected


def test_worker_count_is_one():
    # circio runs in one process; perfbench still records this value.
    assert worker_count(None) == 1


class TestScanLatticeChecks:
    """The core-lattice invariants raise WitnessMismatch, not assert."""

    def test_image_escaping_the_lattice(self, monkeypatch):
        monkeypatch.setattr(
            enumeration_mod, "_jump_image", lambda n, m, t, core: cs("C16(2,4)")
        )
        with pytest.raises(WitnessMismatch, match="escaped the core lattice"):
            full_scan(16)

    def test_minimal_core_with_a_non_minimal_image(self, monkeypatch):
        # At n = 16 the cores are (1,7), (3,5) and (1,3,5,7); send (1,7) to
        # the non-minimal one and skip the pair re-check it would fail.
        def images(n, m, t, core):
            return cs("C16(1,3,5,7)") if core == (1, 7) else None

        monkeypatch.setattr(enumeration_mod, "_jump_image", images)
        monkeypatch.setattr(enumeration_mod, "_verify_theta_pair", lambda *args: None)
        with pytest.raises(WitnessMismatch, match="is not minimal"):
            full_scan(16)


class TestFixedMasks:
    """A unit fixes an extension mask exactly when the mask is a union of
    the unit's cycles on the multiple-of-m pool."""

    def test_matches_brute_force(self):
        checked = 0
        for n in range(2, 55):
            for m in valid_block_moduli(n):
                pool = tuple(range(m, n // 2 + 1, m))
                for x in units(n):
                    if 2 * x > n:
                        break
                    expected = set()
                    for mask in range(1 << len(pool)):
                        jumps = {j for i, j in enumerate(pool) if mask >> i & 1}
                        if {min(x * j % n, n - x * j % n) for j in jumps} == jumps:
                            expected.add(mask)
                    assert _fixed_masks(n, pool, x) == expected, (n, m, x)
                    checked += 1
        # Units x <= n/2 at n = 8, 16, 24, 27, 32, 40, 48, 54.
        assert checked == 2 + 4 + 4 + 9 + 8 + 8 + 8 + 9


class TestFullScan:
    def test_n8_empty(self):
        rep = full_scan(8)
        assert rep.counts["type2_pairs_raw"] == 0
        assert rep.counts["type2_tuples_primitive"] == 0
        assert rep.records == []

    # Every count of every scannable order the benchmark runs, plus n = 24:
    # pairs, T2 tuples, T1 tuples.
    def test_n16(self):
        assert full_scan(16).counts == scan_counts(8, 8, 7)

    def test_n24(self):
        assert full_scan(24).counts == scan_counts(64, 32, 94)

    def test_n27(self):
        assert full_scan(27).counts == scan_counts(72, 12, 3)

    def test_n32(self):
        assert full_scan(32).counts == scan_counts(1392, 384, 126)

    def test_n48(self, scan_of):
        assert scan_of(48).counts == scan_counts(105728, 10624, 9851)

    def test_n54(self, scan54):
        assert scan54.counts == scan_counts(28800, 960, 1595)

    def test_n54_is_the_paper_960(self, scan54, family_a, family_b):
        # The exhaustive scan and the two families derive the paper's 960
        # Type-2 triples independently; as sets of members they agree.
        assert all(
            len(rec.members) == 3 and rec.verdict.m == 3 for rec in scan54.records
        )
        scanned = {frozenset(rec.members) for rec in scan54.records}
        rows = {
            frozenset(rec.members)
            for rec in family_a + family_b
            if rec.verdict.kind == TYPE2
        }
        assert len(scan54.records) == len(scanned) == len(rows) == 960
        assert scanned == rows

    def test_no_transform_order_scans_clean(self):
        rep = full_scan(12)
        assert rep.counts["type2_pairs_raw"] == 0
        assert rep.records == []

    def test_records_are_verified_type2(self):
        rep = full_scan(16)
        for rec in rep.records:
            assert rec.verdict.kind == TYPE2
            pair = classify_pair(rec.members[0], rec.members[1])
            assert pair.kind == TYPE2

    def test_report_json_shape(self):
        out = full_scan(16).to_json()
        assert out["n"] == 16
        assert "convention" in out and "pairs" in out["convention"]
        assert set(out["counts"]) == {
            "type2_pairs_raw",
            "type2_tuples_primitive",
            "type1_tuples_primitive",
        }
        assert len(out["records"]) == 8

    @pytest.mark.parametrize("n", [8, 16, 27])
    def test_streamed_report_is_the_json_dump(self, n):
        report = full_scan(n)
        fh = io.StringIO()
        report.write_json(fh)
        assert fh.getvalue() == json.dumps(report.to_json(), indent=2) + "\n"

    def test_order_ceiling(self):
        with pytest.raises(Intractable):
            full_scan(55)
        with pytest.raises(Intractable):
            full_scan(1)

    def test_budget_ceiling(self):
        with pytest.raises(Intractable):
            full_scan(54, budget=10)


def records_holding(report, sets) -> list:
    """The records of a scan report whose members include every set in sets."""
    return [rec for rec in report.records if set(sets) <= set(rec.members)]


class TestScanHoldsTheConstructions:
    """The exhaustive scan re-derives both constructions: each output lies
    inside one scan record."""

    def test_every_a17c_pair(self, scan_of):
        pairs = []
        for k in range(2, 7):
            for s in range(1, k + 1):
                if 2 * s - 1 != k:
                    pairs.append((k, generate_a17c(k, s)))
        assert len(pairs) == 18
        for k, pair in pairs:
            assert len(records_holding(scan_of(8 * k), pair)) == 1

    @pytest.mark.parametrize("base,ys", [(1, 3), (2, 6)], ids=["n27", "n54"])
    def test_every_c1_chain(self, scan_of, base, ys):
        chains = [
            [generate_c1(base, 3, x, y, i) for i in range(1, 4)]
            for x in (1, 2)
            for y in range(ys)
        ]
        assert len(chains) == 2 * ys
        for chain in chains:
            assert len(records_holding(scan_of(27 * base), chain)) == 1


def brute_force_pair_count(n: int) -> int:
    """Unordered non-multiplier theta pairs {R, theta(R)}, found by trying
    every R with |R| >= 3 and a multiple of m at every shift t."""
    half = n // 2
    pairs = set()
    for m in valid_block_moduli(n):
        for size in range(3, half + 1):
            for jumps in combinations(range(1, half + 1), size):
                if all(j % m for j in jumps):
                    continue
                r = ConnectionSet(n, jumps)
                for t in range(1, n // m):
                    s = theta_image(r, m, t)
                    if s is None or s == r:
                        continue
                    key = (r, s) if r < s else (s, r)
                    if key not in pairs and is_adam_equivalent(r, s) is None:
                        pairs.add(key)
    return len(pairs)


class TestBruteForceScanCounts:
    """The scan's raw pair counts, derived without the core lattice."""

    @pytest.mark.parametrize(
        "n,expected",
        [
            (8, 0),
            (16, 8),
            (24, 64),
            (27, 72),
            pytest.param(32, 1392, marks=pytest.mark.slow),
        ],
    )
    def test_matches_full_scan(self, n, expected):
        assert brute_force_pair_count(n) == expected
        assert full_scan(n).counts["type2_pairs_raw"] == expected


class TestGenerateA17c:
    def test_worked_pair(self):
        assert generate_a17c(2, 1) == (cs("C16(1,2,7)"), cs("C16(2,3,5)"))

    def test_degenerate(self):
        with pytest.raises(DegeneratePair):
            generate_a17c(3, 2)  # 2s-1 = 3 = k

    def test_validation(self):
        with pytest.raises(InvalidParams):
            generate_a17c(1, 1)
        with pytest.raises(InvalidParams):
            generate_a17c(3, 0)
        with pytest.raises(InvalidParams):
            generate_a17c(3, 4)  # 2s-1 = 7 > 2k-1 = 5

    def test_k4_classifies_type2(self):
        left, right = generate_a17c(4, 1)
        assert left.n == 32
        v = classify_pair(left, right)
        assert (v.kind, v.m) == (TYPE2, 2)
        assert v.t in (4, 12)


class TestGenerateC1:
    def test_worked_chain(self):
        got = [generate_c1(1, 3, 1, 0, i) for i in (1, 2, 3)]
        assert got == [cs("C27(1,3,8,10)"), cs("C27(3,4,5,13)"), cs("C27(2,3,7,11)")]

    def test_chain_links_by_shift(self):
        for base in (1, 2):
            chain = [generate_c1(base, 3, 1, 0, i) for i in (1, 2, 3)]
            assert theta_image(chain[0], 3, base) == chain[1]
            assert theta_image(chain[1], 3, base) == chain[2]
            # index wraps: the step out of the last member lands on the first
            assert theta_image(chain[2], 3, base) == chain[0]

    def test_validation(self):
        with pytest.raises(InvalidParams):
            generate_c1(0, 3, 1, 0, 1)
        for bad_p in (2, 4, 9):
            with pytest.raises(InvalidParams):
                generate_c1(1, bad_p, 1, 0, 1)
        with pytest.raises(InvalidIndex):
            generate_c1(1, 3, 1, 0, 0)
        with pytest.raises(InvalidIndex):
            generate_c1(1, 3, 1, 0, 4)
        with pytest.raises(InvalidIndex):
            generate_c1(1, 3, 0, 0, 1)
        with pytest.raises(InvalidIndex):
            generate_c1(1, 3, 3, 0, 1)
        with pytest.raises(InvalidIndex):
            generate_c1(1, 3, 1, 3, 1)


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

    def test_json_and_summary(self):
        report = probe_open_problems()
        out = report.to_json()
        assert len(out["entries"]) == 35
        assert len(report.summary().splitlines()) == 35
