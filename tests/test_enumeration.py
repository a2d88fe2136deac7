"""Order-54 families and exhaustive scans; the scans hold both constructions."""

from __future__ import annotations

import io
import json
import sys
from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circio.enumeration as enumeration_mod
import circio.oracle as oracle_mod
import circio.theta as theta_mod
from circio import (
    NON_ISOMORPHIC,
    TYPE1,
    TYPE2,
    UNKNOWN,
    CirculantGraph,
    Classification,
    ConnectionSet,
    Intractable,
    InvalidParams,
    ScanReport,
    TupleRecord,
    WitnessMismatch,
    adam_orbit,
    canonical_form,
    classify_pair,
    classify_tuple,
    enumerate_family,
    full_scan,
    generate_a17c,
    generate_c1,
    is_adam_equivalent,
    theta_image,
    valid_block_moduli,
    verify_goldens,
    worker_count,
)
from circio.enumeration import (
    _SCAN_CONVENTION,
    FAMILY_BASES,
    _CoreSets,
    _mask_tables,
    _pair_orbit,
    family_rows,
)
from circio.export import _RecordText, export_jsonl
from circio.multipliers import _images, units
from circio.theta import _levels, _nonmultiple_atoms
from helpers import count_calls, cs, d_r_theta_image, rule_theta_image, theta_check_verdicts

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

    def test_family_rows_in_the_order_asked(self, family_a, family_b):
        # TupleRecord compares by identity, so compare its fields.
        for records, name, rows in ((family_a, "a", [511, 1, 3]), (family_b, "b", [42])):
            for got, row in zip(family_rows(name, rows), rows, strict=True):
                want = records[row - 1]
                assert got.members == want.members
                assert got.theta_images == want.theta_images
                assert got.verdict == want.verdict
        assert family_rows("b", []) == []

    @pytest.mark.parametrize("row", [0, 512])
    def test_family_rows_outside_the_table(self, row):
        with pytest.raises(InvalidParams, match=f"family rows run from 1 to 511, got {row}"):
            family_rows("a", [1, row])

    @pytest.mark.parametrize("t", [2, 4])
    def test_non_circulant_base_image_raises(self, monkeypatch, t):
        # A raised WitnessMismatch, not an assert that python -O strips. The
        # rows read the base's images from one theta walk; drop shift t from it.
        real = enumeration_mod.jump_hits
        monkeypatch.setattr(
            enumeration_mod,
            "jump_hits",
            lambda n, m, jumps: ((s, img) for s, img in real(n, m, jumps) if s != t),
        )
        with pytest.raises(WitnessMismatch, match=r"C54\(1,17,19\) has no circulant image"):
            enumerate_family("a")

    def test_t1_membership_is_orbit_equality(self, family_a, family_b):
        # Every row has three distinct members and an orbit of three, so
        # "all members in the orbit" and "orbit equals the members" agree.
        for rec in family_a + family_b:
            orbit = set(rec.verdict.orbit)
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
    """The core-lattice invariants raise WitnessMismatch, not assert. The
    faults go in through the scan's image builder."""

    @staticmethod
    def send(monkeypatch, images):
        """At every hit the scan tests, send each core in images to its
        entry and every other core to itself."""
        monkeypatch.setattr(
            enumeration_mod,
            "_jump_image",
            lambda n, m, t, core: images.get(core, ConnectionSet(n, core)),
        )

    def test_image_escaping_the_lattice(self, monkeypatch):
        self.send(monkeypatch, {(1, 7): cs("C16(2,4)")})
        with pytest.raises(WitnessMismatch, match="escaped the core lattice"):
            full_scan(16)

    def test_minimal_core_with_a_non_minimal_image(self, monkeypatch):
        # At n = 16 the cores are (1,7), (3,5) and (1,3,5,7); send (1,7) to
        # the non-minimal one, and skip the pair re-check it would fail.
        self.send(monkeypatch, {(1, 7): cs("C16(1,3,5,7)")})
        monkeypatch.setattr(enumeration_mod, "_verify_theta_pair", lambda *args: None)
        with pytest.raises(WitnessMismatch, match="is not minimal"):
            full_scan(16)

    def test_minimal_core_with_an_image_outside_its_class(self, monkeypatch):
        # At n = 27 the minimal cores are (1,8,10), (2,7,11) and (4,5,13).
        # Chained one to the next, the class of (1,8,10) is its own image
        # set, which misses the image of (2,7,11).
        self.send(
            monkeypatch, {(1, 8, 10): cs("C27(2,7,11)"), (2, 7, 11): cs("C27(4,5,13)")}
        )
        monkeypatch.setattr(enumeration_mod, "_verify_theta_pair", lambda *args: None)
        with pytest.raises(WitnessMismatch, match="leaves its theta class"):
            full_scan(27)


class TestFixedMasks:
    """A unit's mask table maps each extension mask on the multiple-of-m
    pool to the mask of its jumps' images; the unit fixes the masks that
    its table maps to themselves."""

    def test_matches_brute_force(self):
        checked = 0
        for n in range(2, 55):
            for m in valid_block_moduli(n):
                pool = tuple(range(m, n // 2 + 1, m))
                tables = _mask_tables(n, pool)
                assert list(tables) == [x for x in units(n) if 2 * x <= n]
                mask_of = {j: 1 << i for i, j in enumerate(pool)}
                for x, table in tables.items():
                    assert len(table) == 1 << len(pool), (n, m, x)
                    for mask in range(1 << len(pool)):
                        jumps = {j for i, j in enumerate(pool) if mask >> i & 1}
                        moved = sum(mask_of[min(x * j % n, n - x * j % n)] for j in jumps)
                        assert table[mask] == moved, (n, m, x, mask)
                    checked += 1
        # Units x <= n/2 at n = 8, 16, 24, 27, 32, 40, 48, 54.
        assert checked == 2 + 4 + 4 + 9 + 8 + 8 + 8 + 9

    @pytest.mark.parametrize("n,pool", [(16, (2, 4)), (16, (1, 2, 4, 6, 8)), (27, (3, 9))])
    def test_pool_a_unit_leaves_raises(self, n, pool):
        with pytest.raises(WitnessMismatch, match="does not permute"):
            _mask_tables(n, pool)

    def test_core_image_of_another_size_raises(self, monkeypatch):
        # The scan maps each class core by every unit once; an image that
        # lost a jump must stop it, under python -O too.
        monkeypatch.setattr(
            enumeration_mod, "_images", lambda cs: [img[1:] for img in _images(cs)]
        )
        with pytest.raises(WitnessMismatch, match="another size"):
            full_scan(27)

    def test_core_image_off_the_lattice_raises(self, monkeypatch):
        # A record's orbit sets are read from the per-core dicts of the unit
        # images of its class core; an image that is no core must stop the
        # scan, not raise KeyError. n/2 = 8 is a multiple of m = 2.
        monkeypatch.setattr(
            enumeration_mod, "_images", lambda cs: [img[:-1] + (8,) for img in _images(cs)]
        )
        with pytest.raises(WitnessMismatch, match="is not a core"):
            full_scan(16)


# Every order with scan records and its one valid m.
RECORD_ORDERS = ((16, 2), (24, 2), (27, 3), (32, 2), (40, 2), (48, 2), (54, 3))


@st.composite
def core_mask_pairs(draw) -> tuple[int, int, tuple[int, ...], int]:
    """(n, m, core, mask): core a union of atoms of one scan level, mask
    any subset of the multiple-of-m pool, at an order with records."""
    n, m = draw(st.sampled_from(RECORD_ORDERS))
    atoms = _nonmultiple_atoms(n, m, draw(st.sampled_from(_levels(n, m))))
    chosen = draw(st.sets(st.sampled_from(atoms), min_size=1))
    core = tuple(sorted(j for atom in chosen for j in atom))
    return n, m, core, draw(st.integers(0, (1 << (n // 2 // m)) - 1))


class TestPairOrbit:
    """The scan builds a record's Ádám orbit from its (core, mask) pair:
    the unit x maps it to (x*core, x*mask)."""

    @settings(max_examples=150, deadline=None)
    @given(core_mask_pairs())
    def test_is_adam_orbit(self, pair):
        n, m, core, mask = pair
        pool = tuple(range(m, n // 2 + 1, m))
        exts = [tuple(j for i, j in enumerate(pool) if k >> i & 1) for k in range(1 << len(pool))]
        sets: dict = {}
        # One _CoreSets per unit image, as the scan's per-core dicts are:
        # equal images share their sets through sets.
        image_at = [_CoreSets(n, img, exts, sets) for img in _images(ConnectionSet(n, core))]
        orbit = _pair_orbit(image_at, list(_mask_tables(n, pool).values()), mask)
        whole = ConnectionSet(n, tuple(sorted(core + exts[mask])))
        assert orbit == adam_orbit(whole)
        assert len({id(cs) for cs in orbit}) == len(orbit)
        assert all(sets[cs.jumps] is cs for cs in orbit)


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

    def test_n40(self):
        assert full_scan(40).counts == scan_counts(9216, 1536, 1533)

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

    def test_n27_tuples_are_triples_at_m3(self, scan_of):
        # The paper's statement at the other scannable order whose only
        # valid modulus is 3.
        records = scan_of(27).records
        assert len(records) == 12
        assert all(len(rec.members) == 3 and rec.verdict.m == 3 for rec in records)

    @pytest.mark.parametrize("n, differ", [(27, 12), (54, 480)])
    def test_classify_tuple_agrees_with_every_record(self, n, differ, scan_of):
        # A record's t carries members[0] onto some other member; classify's
        # carries it onto members[1]. Both are the smallest such shift.
        moved = 0
        for rec in scan_of(n).records:
            got = classify_tuple(rec.members, budget=0)
            assert got.verdict.kind == rec.verdict.kind == TYPE2
            assert got.verdict.m == rec.verdict.m
            assert got.verdict.orbit == rec.verdict.orbit
            assert got.theta_images == rec.theta_images
            assert rec.verdict.t == min(rec.theta_images)
            assert got.verdict.t == min(
                t for t, img in got.theta_images.items() if img == rec.members[1]
            )
            moved += got.verdict.t != rec.verdict.t
        assert moved == differ

    def test_records_sharing_a_first_member_raise(self, monkeypatch):
        # Scanning one modulus twice repeats every record. The records are
        # ordered by their first member alone, so the scan must stop there
        # instead of returning the doubled list.
        monkeypatch.setattr(enumeration_mod, "valid_block_moduli", lambda n: [2, 2])
        with pytest.raises(WitnessMismatch, match="two scan records start with"):
            full_scan(16)

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

    # Records share orbit tuples at n = 32 (192 repeats), 40 (768) and 48
    # (5,120), so the orbit text rendered once is checked here on two orders
    # without the slow n = 48.
    @pytest.mark.parametrize(
        "n", [8, 16, 27, 32, 40, pytest.param(48, marks=pytest.mark.slow), 54]
    )
    def test_streamed_report_is_the_json_dump(self, n, scan_of):
        report = scan_of(n)
        fh = io.StringIO()
        report.write_json(fh)
        assert fh.getvalue() == json.dumps(report.to_json(), indent=2) + "\n"

    def test_writer_takes_every_verdict_shape(self, tmp_path):
        # The scan writes only Type-2 records and the families T1 and T2;
        # the record renderer must still match json.dumps, indented for the
        # report and compact for JSON lines, on every optional verdict field
        # and on empty theta images.
        t1 = classify_tuple(
            (cs("C54(1,9,17,19)"), cs("C54(5,9,13,23)"), cs("C54(7,9,11,25)"))
        )
        non_iso = classify_tuple(
            (cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"), cs("C54(1,2,17,19)"))
        )
        unknown = classify_tuple((cs("C16(1,2,7)"), cs("C16(1,6,7)")), budget=2)
        assert (t1.verdict.kind, t1.verdict.unit) == (TYPE1, 5)
        assert non_iso.verdict.kind == NON_ISOMORPHIC and non_iso.verdict.certificate
        assert (unknown.verdict.kind, unknown.verdict.reason) == (UNKNOWN, "budget")
        # A reason json must escape, on a record with no theta images.
        escaped = TupleRecord(
            members=unknown.members,
            theta_images={},
            verdict=Classification(
                kind=UNKNOWN, orbit=unknown.verdict.orbit, reason='a "quoted" \\ \nreason, \u00e9'
            ),
        )
        # An empty verdict list, and a record of one member.
        empty_chain = TupleRecord(
            members=t1.members,
            theta_images=t1.theta_images,
            verdict=Classification(kind=TYPE2, orbit=t1.verdict.orbit, m=3, t=2, chain=()),
        )
        one_member = TupleRecord(
            members=t1.members[:1], theta_images={2: t1.members[2]}, verdict=t1.verdict
        )
        records = [t1, non_iso, unknown, escaped, empty_chain, one_member]
        for record in records:
            fh = io.StringIO()
            ScanReport(n=0, counts={}, records=[record]).write_json(fh)
            nested = json.dumps(record.to_json(), indent=2).replace("\n", "\n    ")
            assert fh.getvalue() == (
                f'{{\n  "n": 0,\n  "convention": {json.dumps(_SCAN_CONVENTION)},\n'
                '  "counts": {},\n'
                f'  "records": [\n    {nested}\n  ]\n}}\n'
            )
        path = tmp_path / "shapes.jsonl"
        export_jsonl(records, path)
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(record.to_json()) + "\n" for record in records
        )

    @pytest.mark.parametrize(
        "n", [16, 24, 27, 32, 40, pytest.param(48, marks=pytest.mark.slow), 54]
    )
    def test_record_orbits_are_the_first_members_orbits(self, n, scan_of):
        records = scan_of(n).records
        assert records
        for rec in records:
            assert rec.verdict.orbit == adam_orbit(rec.members[0])

    @pytest.mark.parametrize("n", [27, 32, pytest.param(48, marks=pytest.mark.slow), 54])
    def test_images_and_chain_are_member_objects(self, n, scan_of):
        # The scan builds each distinct set once and shares it, not an equal
        # copy: within a record, and across the whole report.
        one: dict[tuple[int, ...], ConnectionSet] = {}
        for rec in scan_of(n).records:
            ids = {id(c) for c in rec.members}
            assert all(id(img) in ids for img in rec.theta_images.values())
            assert all(id(c) in ids for c in rec.verdict.chain)
            verdict = rec.verdict
            for c in chain(rec.members, rec.theta_images.values(), verdict.chain, verdict.orbit):
                assert one.setdefault(c.jumps, c) is c
        assert len(one) > len(scan_of(n).records)

    def test_order_ceiling(self):
        with pytest.raises(Intractable):
            full_scan(55)
        with pytest.raises(Intractable):
            full_scan(1)

    def test_budget_ceiling(self):
        with pytest.raises(Intractable):
            full_scan(54, budget=10)

    # (n, image-phase work, pair-phase work). The image-phase work is exact:
    # the number of images the scan's table builds, one per core and hit.
    # The pair-phase work is the number of core pairs inside theta classes
    # shifted left by the size of the multiple-of-m pool: 564 << 9 at n = 54.
    @pytest.mark.parametrize(
        "n,images,masks",
        [
            (24, 39, 192),
            (27, 56, 96),
            (32, 65, 1792),
            (40, 127, 13312),
            (48, 309, 147456),
            (54, 3087, 288768),
        ],
    )
    def test_phase_budgets(self, n, images, masks):
        with pytest.raises(Intractable, match=f"core image phase needs {images} images"):
            full_scan(n, budget=images - 1)
        with pytest.raises(Intractable, match=f"pair counting phase needs {masks} mask"):
            full_scan(n, budget=images)


class TestScanImageTable:
    """The scan reads each core's hit step from the level that builds it,
    and theta's own walk (jump_hits) must find the same shifts: the two
    sides of the period rule, compared on every core."""

    @pytest.mark.parametrize(
        "n,count",
        [(8, 3), (16, 13), (24, 39), (27, 56), (32, 65), (40, 127), (48, 309), (54, 3087)],
    )
    def test_images_asked_are_jump_hits(self, monkeypatch, n, count):
        build = enumeration_mod._jump_image
        asked = []

        def recording(n_, m, t, core):
            asked.append((m, core, t))
            return build(n_, m, t, core)

        searched = []
        for name in ("_hit_step", "jump_hits"):
            monkeypatch.setattr(theta_mod, name, lambda *args, name=name: searched.append(name))
        monkeypatch.setattr(enumeration_mod, "_jump_image", recording)
        with pytest.raises(Intractable, match=f"core image phase needs {count} images"):
            full_scan(n, budget=count - 1)
        assert asked == []
        full_scan(n)
        assert searched == []
        assert len(asked) == len(set(asked)) == count
        monkeypatch.undo()
        expected = {
            (m, core, t)
            for m, core in {(m, core) for m, core, _ in asked}
            for t, _ in theta_mod.jump_hits(n, m, core)
        }
        assert set(asked) == expected


class TestWitnessRecheck:
    """The scan re-verifies the witness of every counted raw pair at
    n <= 32, and of its first 100 records above that: theta must carry the
    left set edge by edge onto the right one, and no unit multiplier may.
    The re-check tests D'_r = D(right) for each residue class r: it
    builds no image, vertex map or adjacency and runs no period search, so
    it does not repeat the jump rule that built the theta class."""

    @pytest.mark.parametrize("n,checks", [(32, 1392), (54, 100)])
    def test_recheck_is_edge_level_only(self, monkeypatch, n, checks):
        called = []
        for name in ("theta_image", "_hit_step", "jump_hits", "theta_vertex_map"):
            count_calls(monkeypatch, called, theta_mod, name)
        count_calls(monkeypatch, called, enumeration_mod, "jump_hits")
        count_calls(monkeypatch, called, enumeration_mod, "_carries")
        count_calls(monkeypatch, called, oracle_mod, "verify_permutation")
        full_scan(n)
        assert called == ["_carries"] * checks

    @pytest.mark.parametrize("n", [16, 24, 27, 32])
    def test_class_rule_agrees_with_edge_check_on_scan_pairs(self, monkeypatch, n):
        pairs = []
        monkeypatch.setattr(
            enumeration_mod, "_verify_theta_pair", lambda *pair: pairs.append(pair)
        )
        report = full_scan(n)
        assert len(pairs) == report.counts["type2_pairs_raw"] > 0
        for left, right, m, t in pairs:
            assert theta_check_verdicts(left, right, m, t) == (True, True)
        # Each left side against the next pair's right side, at the left
        # pair's (m, t): both checks reject every one.
        crossed = [
            theta_check_verdicts(left, right, m, t)
            for (left, _, m, t), (_, right, _, _) in zip(pairs, pairs[1:])
        ]
        assert crossed == [(False, False)] * (len(pairs) - 1)

    def test_recheck_raises_on_every_record_with_one_image_jump_changed(self, scan54):
        n = 54
        for record in scan54.records:
            m, t = record.verdict.m, record.verdict.t
            image = record.theta_images[t]
            enumeration_mod._verify_theta_pair(record.members[0], image, m, t)
            spare = next(j for j in range(1, n // 2 + 1) if j not in image.jumps)
            changed = ConnectionSet(n, tuple(sorted(image.jumps[1:] + (spare,))))
            with pytest.raises(WitnessMismatch, match="does not carry"):
                enumeration_mod._verify_theta_pair(record.members[0], changed, m, t)

    def test_recheck_raises_on_a_changed_jump(self):
        left = cs("C54(1,3,17,19)")
        enumeration_mod._verify_theta_pair(left, cs("C54(3,7,11,25)"), 3, 2)
        with pytest.raises(WitnessMismatch, match=r"does not carry C54\(1,3,17,19\) onto"):
            enumeration_mod._verify_theta_pair(left, cs("C54(3,7,11,23)"), 3, 2)

    def test_recheck_raises_on_a_pair_a_unit_carries(self):
        # Family a row 3 is Type-1: theta at t=2 and a unit both carry it.
        left, right = cs("C54(1,9,17,19)"), cs("C54(7,9,11,25)")
        assert theta_image(left, 3, 2) == right
        with pytest.raises(WitnessMismatch, match="a unit multiplier carries"):
            enumeration_mod._verify_theta_pair(left, right, 3, 2)

    @pytest.mark.parametrize(
        "n,calls",
        [(16, 8), (24, 64), (27, 72), (32, 1392), (40, 100), (48, 100), (54, 100)],
    )
    def test_verify_calls(self, monkeypatch, n, calls):
        verify = enumeration_mod._verify_theta_pair
        seen = []

        def counting(left, right, m, t):
            seen.append(left)
            return verify(left, right, m, t)

        monkeypatch.setattr(enumeration_mod, "_verify_theta_pair", counting)
        report = full_scan(n)
        assert len(seen) == calls
        if n <= 32:
            assert calls == report.counts["type2_pairs_raw"]
        else:
            assert set(seen) <= {rec.members[0] for rec in report.records}


def test_families_goldens_and_scan_never_reach_the_oracle(monkeypatch):
    """Every binding of the canonical-labeling oracle in the package is
    replaced by a trap, as perfbench's tracer patches them."""

    def trap(*args, **kwargs):
        pytest.fail("the canonical-labeling oracle was called")

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "circio" or name.startswith("circio."))
    ]
    for name in ("isomorphic", "canonical_form"):
        original = getattr(oracle_mod, name)
        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, trap)
    # The trap is live: this pair needs the oracle.
    with pytest.raises(pytest.fail.Exception):
        classify_pair(cs("C16(1,2,7)"), cs("C16(1,6,7)"))

    assert len(enumerate_family("a")) == 511
    assert verify_goldens().ok
    for n in (16, 27, 32):
        assert full_scan(n).records


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


def d_r_tuple_counts(n: int) -> tuple[int, int]:
    """(Type-2, Type-1) primitive tuples from the D'_r rule and adam_orbit
    alone, with none of the scan's atoms, levels, classes or mask tables, at
    an order with one valid m.

    A core is a nonempty set of non-multiples of m whose image is circulant
    at some proper divisor of n/m^2, one shift per level. The minimal cores
    strictly contain no other core. A minimal core's class is the core with
    its circulant images at every shift. A class of two or more members gives
    one tuple per nonempty set E of multiples of m with |core| + |E| >= 3;
    it is Type-1 when every member with E lies in the Ádám orbit of the first
    member with E."""
    (m,) = valid_block_moduli(n)
    q = n // (m * m)
    divisors = [d for d in range(1, q) if q % d == 0]
    nonmultiples = [j for j in range(1, n // 2 + 1) if j % m]
    multiples = range(m, n // 2 + 1, m)
    cores = [
        set(core)
        for k in range(1, len(nonmultiples) + 1)
        for core in combinations(nonmultiples, k)
        if any(d_r_theta_image(n, m, d, core) is not None for d in divisors)
    ]
    minimal = [tuple(sorted(c)) for c in cores if not any(o < c for o in cores)]
    classes = {
        frozenset(
            [core]
            + [
                image.jumps
                for t in range(1, n // m)
                if (image := d_r_theta_image(n, m, t, core)) is not None
            ]
        )
        for core in minimal
    }
    type2 = type1 = 0
    for members in classes:
        if len(members) < 2:
            continue
        first, *others = sorted(members)
        for k in range(max(1, 3 - len(first)), len(multiples) + 1):
            for ext in combinations(multiples, k):
                orbit = adam_orbit(ConnectionSet(n, tuple(sorted(first + ext))))
                if all(ConnectionSet(n, tuple(sorted(core + ext))) in orbit for core in others):
                    type1 += 1
                else:
                    type2 += 1
    return type2, type1


class TestSecondDerivationTupleCounts:
    """The scan's primitive tuple counts, derived from the D'_r rule and
    adam_orbit without the core lattice or the units' mask tables."""

    @pytest.mark.parametrize(
        "n,type2,type1",
        [
            (16, 8, 7),
            (24, 32, 94),
            (27, 12, 3),
            (32, 384, 126),
            (40, 1536, 1533),
            pytest.param(48, 10624, 9851, marks=pytest.mark.slow),
            pytest.param(54, 960, 1595, marks=pytest.mark.slow),
        ],
    )
    def test_matches_full_scan(self, n, type2, type1, scan_of):
        assert d_r_tuple_counts(n) == (type2, type1)
        counts = scan_of(n).counts
        assert counts["type2_tuples_primitive"] == type2
        assert counts["type1_tuples_primitive"] == type1


def oracle_type2_pair_count(n: int) -> int:
    """type2 verdicts over the pairs of sets from two distinct Ádám orbits
    that canonical_form puts in one isomorphism class."""
    half = range(1, n // 2 + 1)
    orbits, seen = [], set()
    for jumps in chain.from_iterable(combinations(half, k) for k in half):
        member = ConnectionSet(n, jumps)
        if member not in seen:
            orbit = adam_orbit(member)
            seen.update(orbit)
            orbits.append(orbit)
    classes = defaultdict(list)
    for orbit in orbits:
        classes[canonical_form(CirculantGraph(orbit[0])).canonical_edges].append(orbit)
    return sum(
        classify_pair(a, b).kind == TYPE2
        for group in classes.values()
        for left, right in combinations(group, 2)
        for a in left
        for b in right
    )


class TestThirdDerivationPairCounts:
    """The scan's raw pair counts, with the isomorphism classes taken from
    the oracle rather than from theta."""

    @pytest.mark.parametrize(
        "n,pairs",
        [(16, 8), (24, 64), (27, 72), pytest.param(32, 1392, marks=pytest.mark.slow)],
    )
    def test_matches_full_scan(self, n, pairs, scan_of):
        assert oracle_type2_pair_count(n) == pairs
        assert scan_of(n).counts["type2_pairs_raw"] == pairs


@pytest.mark.slow
def test_order54_core_lattice_brute_force(scan54):
    """Every core at n = 54 at every shift, with no atoms or classes: the
    pairs {core, theta(core)} with their extensions give the raw pairs."""
    n, m = 54, 3
    nonmultiples = [j for j in range(1, 28) if j % 3]
    multiples = list(range(3, 28, 3))
    # At 9t = 0 (mod 54), that is t = 6 and 12, theta_t multiplies each jump
    # by the unit 1 + 3t and fixes every multiple of 3, so none of its pairs
    # can be a raw pair.
    shifts = [t for t in range(1, 18) if 9 * t % 54]
    pairs = set()
    for size in range(1, len(nonmultiples) + 1):
        for core in combinations(nonmultiples, size):
            for t in shifts:
                image = rule_theta_image(n, m, t, core)
                if image is not None and image.jumps != core:
                    pairs.add(tuple(sorted((core, image.jumps))))
    assert len(pairs) == 564
    raw = 0
    for core, image in pairs:
        for k in range(max(1, 3 - len(core)), len(multiples) + 1):
            for ext in combinations(multiples, k):
                left = ConnectionSet(n, tuple(sorted(core + ext)))
                right = ConnectionSet(n, tuple(sorted(image + ext)))
                if is_adam_equivalent(left, right) is None:
                    raw += 1
    assert raw == scan54.counts["type2_pairs_raw"] == 28800


class TestRecordTextMemo:
    """The record renderer quotes each set once and renders each shared
    orbit once, keyed by identity. It holds what it keyed, so a renderer
    that outlives its records' owners still matches json.dumps."""

    @staticmethod
    def indented(record: TupleRecord) -> str:
        return json.dumps(record.to_json(), indent=2).replace("\n", "\n    ")

    def test_one_renderer_for_two_reports(self):
        render = _RecordText(4)
        first = full_scan(16)
        assert [render(r) for r in first.records] == [self.indented(r) for r in first.records]
        # The first report's objects are freed but for what the renderer
        # holds, so the second report's objects cannot take their ids.
        del first
        second = full_scan(27)
        assert [render(r) for r in second.records] == [self.indented(r) for r in second.records]

    def test_renderer_outlives_the_records_it_rendered(self):
        # Each pass drops its sets before the next builds new ones, which
        # CPython tends to place where the dropped ones were. A memo that
        # did not hold its keys would hand a new set a dropped set's text.
        render = _RecordText()
        for j in range(1, 20):
            a, b = ConnectionSet(40, (j,)), ConnectionSet(40, (j, 20))
            record = TupleRecord(
                members=(a, b),
                theta_images={j: b},
                verdict=Classification(kind=UNKNOWN, orbit=(a,), reason=f"pass {j}"),
            )
            assert render(record) == json.dumps(record.to_json())
            del a, b, record

    def test_same_report_written_twice(self, scan_of):
        report = scan_of(40)
        want = json.dumps(report.to_json(), indent=2) + "\n"
        for _ in range(2):
            fh = io.StringIO()
            report.write_json(fh)
            assert fh.getvalue() == want

    def test_scan_report_then_family_export(self, tmp_path, family_a):
        report = full_scan(54)
        fh = io.StringIO()
        report.write_json(fh)
        assert fh.getvalue() == json.dumps(report.to_json(), indent=2) + "\n"
        path = tmp_path / "family_a.jsonl"
        export_jsonl(family_a, path)
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(rec.to_json()) + "\n" for rec in family_a
        )

    def test_orbit_of_equal_but_distinct_sets(self, family_a):
        # A T1 family row's orbit holds sets equal to its members, built
        # apart from them by adam_orbit.
        row = family_a[T1_ROWS[0] - 1]
        assert row.verdict.kind == TYPE1
        orbit = row.verdict.orbit
        assert any(c == m and c is not m for c in orbit for m in row.members)
        render = _RecordText()
        assert render(row) == json.dumps(row.to_json())
        assert _RecordText(4)(row) == self.indented(row)

