"""Release conformance checks, each with its stated time bound.

One test class per bar: the worked transform images, the twelve published
orbits, the 1022-row double-family enumeration and its 960/62 split, the
transcribed-table verification, the six multiplier identities, both
construction generators, small-order scan counts, oracle agreement on
sampled records, the bulk invariants, and the open-question probes.
Timings use perf_counter with a warm-up pass so import costs do not bill
against the first measurement.
"""

from __future__ import annotations

import random
import time

import pytest

from circio import (
    CirculantGraph,
    ConnectionSet,
    ThetaParams,
    adam_orbit,
    adjacency_spectrum,
    canonical_edges_of,
    classify_pair,
    classify_tuple,
    enumerate_family,
    first_spectral_gap,
    full_scan,
    generate_a17c,
    generate_c1,
    is_adam_equivalent,
    isomorphic,
    load_golden_rows,
    probe_open_problems,
    theta_image,
    theta_vertex_map,
    verify_goldens,
    verify_permutation,
)
from circio.multipliers import multiply_set
from helpers import THETA_ORDERS, cs, edge_list
from test_multipliers import MULTIPLIER_IDENTITIES, ORBIT_IDENTITIES

WORKED_IMAGES = [
    ("C54(1,3,17,19)", 2, "C54(3,7,11,25)"),
    ("C54(1,3,17,19)", 4, "C54(3,5,13,23)"),
    ("C54(2,3,16,20)", 2, "C54(3,4,14,22)"),
    ("C54(2,3,16,20)", 4, "C54(3,8,10,26)"),
]


def best_of(fn, repeats: int = 5) -> float:
    """Smallest wall time over several runs, in seconds."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def family_runs():
    out = {}
    for name in ("a", "b"):
        start = time.perf_counter()
        records = enumerate_family(name)
        out[name] = (records, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def scan_16():
    start = time.perf_counter()
    report = full_scan(16)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def scan_27():
    start = time.perf_counter()
    report = full_scan(27)
    return report, time.perf_counter() - start


class TestWorkedImages:
    @pytest.mark.parametrize("source,t,expected", WORKED_IMAGES)
    def test_exact(self, source, t, expected):
        assert theta_image(cs(source), 3, t) == cs(expected)

    def test_under_one_millisecond_each(self):
        for source, t, _ in WORKED_IMAGES:
            src = cs(source)
            assert best_of(lambda: theta_image(src, 3, t)) < 1e-3


class TestOrbitIdentities:
    @pytest.mark.parametrize("source", sorted(ORBIT_IDENTITIES))
    def test_exact(self, source):
        members = adam_orbit(cs(source))
        assert {str(c) for c in members} == ORBIT_IDENTITIES[source]

    def test_under_one_millisecond_each(self):
        for source in ORBIT_IDENTITIES:
            src = cs(source)
            assert best_of(lambda: adam_orbit(src)) < 1e-3


class TestHeadlineCount:
    def test_both_families(self, family_runs):
        (recs_a, secs_a), (recs_b, secs_b) = family_runs["a"], family_runs["b"]
        assert len(recs_a) == 511 and len(recs_b) == 511
        tallies = {
            name: [r.verdict.table_verdict for r in recs].count
            for name, (recs, _) in family_runs.items()
        }
        assert tallies["a"]("T2") == 480 and tallies["b"]("T2") == 480
        assert tallies["a"]("T1") == 31 and tallies["b"]("T1") == 31
        combined_t2 = tallies["a"]("T2") + tallies["b"]("T2")
        assert combined_t2 == 960
        assert secs_a + secs_b < 60.0


class TestTableConformance:
    def test_zero_verdict_mismatches(self):
        report = verify_goldens()
        assert report.rows_checked >= 60
        assert report.verdict_mismatches == ()
        assert report.ok

    def test_row_coverage(self):
        rows = {(r.family, r.row_no): r for r in load_golden_rows()}
        tables = {r.table_no for r in rows.values()}
        assert {1, 12, 24, 34, 46} <= tables
        for row_no in (3, 6, 9, 27, 30, 42):
            assert rows[("a", row_no)].expected_verdict == "T1"


class TestMultiplierIdentities:
    @pytest.mark.parametrize("source,first,second", MULTIPLIER_IDENTITIES)
    def test_exact(self, source, first, second):
        src = cs(source)
        for x, product in (first, second):
            assert multiply_set(src, x) == cs(product)


class TestGeneratorConformance:
    def test_pair_construction_sweep(self):
        start = time.perf_counter()
        for k in range(2, 7):
            for s in range(1, k + 1):
                if 2 * s - 1 == k:
                    continue
                left, right = generate_a17c(k, s)
                verdict = classify_pair(left, right)
                assert verdict.kind == "type2"
                assert verdict.m == 2
                assert verdict.t in (k, 3 * k)
        assert time.perf_counter() - start < 30.0

    def test_chain_construction_order_54(self, family_runs):
        t2_triples = {
            frozenset(r.members)
            for name in ("a", "b")
            for r in family_runs[name][0]
            if r.verdict.kind == "type2"
        }
        start = time.perf_counter()
        for x in (1, 2):
            for y in range(6):
                chain = frozenset(
                    generate_c1(2, 3, x, y, i) for i in range(1, 4)
                )
                assert chain in t2_triples
        assert time.perf_counter() - start < 30.0

    def test_chain_construction_order_27(self):
        start = time.perf_counter()
        for x in (1, 2):
            for y in range(3):
                chain = tuple(generate_c1(1, 3, x, y, i) for i in range(1, 4))
                assert all(c.n == 27 for c in chain)
                record = classify_tuple(chain)
                assert record.verdict.kind == "type2"
        assert time.perf_counter() - start < 30.0


class TestScanCounts:
    def test_n16(self, scan_16):
        report, secs = scan_16
        assert report.counts["type2_pairs_raw"] == 8
        assert report.counts["type2_tuples_primitive"] == 8
        assert secs < 1.0

    def test_n16_witnesses_hold(self, scan_16):
        report, _ = scan_16
        for rec in report.records:
            m, t = rec.verdict.m, rec.verdict.t
            assert theta_image(rec.members[0], m, t) in rec.members[1:]
            assert is_adam_equivalent(rec.members[0], rec.members[1]) is None

    def test_n27(self, scan_27):
        report, secs = scan_27
        assert report.counts["type2_tuples_primitive"] == 12
        assert report.counts["type2_pairs_raw"] == 72
        assert secs < 5.0

    @pytest.mark.slow
    def test_n48_scan_and_report(self, tmp_path):
        # The heaviest scan command: n = 48 has the most records (10,624).
        # Scan and report took 0.3 to 0.5 s on 2 shared CPUs; the bound is
        # 5 to 8 times that.
        full_scan(16)
        start = time.perf_counter()
        report = full_scan(48)
        with open(tmp_path / "scan48.json", "w", encoding="utf-8") as fh:
            report.write_json(fh)
        secs = time.perf_counter() - start
        assert report.counts["type2_tuples_primitive"] == len(report.records) == 10624
        assert secs < 2.5

    def test_n8_empty(self):
        report = full_scan(8)
        assert report.counts["type2_pairs_raw"] == 0
        assert report.records == []

    def test_stretch_orders(self):
        start = time.perf_counter()
        report_24 = full_scan(24)
        report_32 = full_scan(32)
        assert time.perf_counter() - start < 600.0
        assert report_24.counts["type2_pairs_raw"] == 64
        assert report_24.counts["type2_tuples_primitive"] == 32
        assert report_32.counts["type2_pairs_raw"] == 1392
        assert report_32.counts["type2_tuples_primitive"] == 384


class TestOracleAgreement:
    def test_sampled_records_and_spectral_rejects(self, family_runs):
        start = time.perf_counter()
        t2_records = [
            r for r in family_runs["a"][0] if r.verdict.kind == "type2"
        ]
        rng = random.Random(20260816)
        for rec in rng.sample(t2_records, 100):
            a = CirculantGraph(rec.members[0])
            b = CirculantGraph(rec.members[1])
            verdict = isomorphic(a, b)
            assert verdict.kind == "isomorphic"
            assert verify_permutation(a, b, verdict.permutation)

        jumps = list(range(1, 28))
        checked = 0
        while checked < 100:
            left = ConnectionSet(54, tuple(sorted(rng.sample(jumps, 4))))
            right = ConnectionSet(54, tuple(sorted(rng.sample(jumps, 4))))
            if first_spectral_gap(
                adjacency_spectrum(left), adjacency_spectrum(right)
            ) is None:
                continue
            verdict = isomorphic(CirculantGraph(left), CirculantGraph(right))
            assert verdict.kind == "non-isomorphic"
            assert verdict.certificate.startswith("spectrum[")
            checked += 1
        assert time.perf_counter() - start < 120.0


class TestBulkInvariants:
    def test_identity_shift_on_random_inputs(self):
        rng = random.Random(7)
        for n, m in THETA_ORDERS:
            identity = theta_vertex_map(ThetaParams(n, m, 0))
            assert identity == tuple(range(n))
        for _ in range(1000):
            n, m = THETA_ORDERS[rng.randrange(len(THETA_ORDERS))]
            pool = list(range(1, n // 2 + 1))
            picked = set(rng.sample(pool, rng.randint(2, min(6, len(pool)))))
            picked.add(m * rng.randint(1, n // 2 // m))
            source = ConnectionSet(n, tuple(sorted(picked)))
            assert theta_image(source, m, 0) == source

    def test_multiples_fixed_across_scan_members(self, scan_16, scan_27, family_runs):
        def multiples(c: ConnectionSet, m: int) -> set:
            return {j for j in c.jumps if j % m == 0}

        for report in (scan_16[0], scan_27[0]):
            for rec in report.records:
                m = rec.verdict.m
                fixed = multiples(rec.members[0], m)
                assert all(multiples(c, m) == fixed for c in rec.members[1:])
        for name in ("a", "b"):
            for rec in family_runs[name][0]:
                fixed = multiples(rec.members[0], 3)
                assert all(multiples(c, 3) == fixed for c in rec.members[1:])

    def test_union_shift_on_random_inputs(self):
        rng = random.Random(11)
        agreements = 0
        trials = 0
        while trials < 500:
            n, m = THETA_ORDERS[rng.randrange(len(THETA_ORDERS))]
            pool = list(range(1, n // 2 + 1))
            picked = set(rng.sample(pool, rng.randint(2, min(5, len(pool)))))
            picked.add(m * rng.randint(1, n // 2 // m))
            source = ConnectionSet(n, tuple(sorted(picked)))
            mult_pool = [
                j for j in range(m, n // 2 + 1, m) if j not in source.jumps
            ]
            if not mult_pool:
                continue
            trials += 1
            extra = tuple(
                sorted(rng.sample(mult_pool, rng.randint(1, len(mult_pool))))
            )
            t = rng.randint(1, n // m - 1)
            # theta fixes multiples of m: theta(R + E) = theta(R) + E.
            image = theta_image(source, m, t)
            via_union = (
                None
                if image is None
                else ConnectionSet(n, tuple(sorted(set(image.jumps) | set(extra))))
            )
            merged = ConnectionSet(n, tuple(sorted(set(source.jumps) | set(extra))))
            direct = theta_image(merged, m, t)
            assert via_union == direct
            agreements += direct is not None
        assert agreements > 0

    def test_witness_pairs_cospectral(self, scan_16, scan_27, family_runs):
        rng = random.Random(13)

        def check(members):
            spectra = [adjacency_spectrum(c) for c in members]
            for i in range(len(spectra)):
                for j in range(i + 1, len(spectra)):
                    assert first_spectral_gap(spectra[i], spectra[j]) is None

        for report in (scan_16[0], scan_27[0]):
            for rec in report.records:
                check(rec.members)
        sampled = rng.sample(family_runs["a"][0], 25)
        sampled += rng.sample(family_runs["b"][0], 25)
        for rec in sampled:
            check(rec.members)

    def test_canonical_form_relabeling_invariant(self):
        g = CirculantGraph(cs("C54(1,3,17,19)"))
        base_cert, _ = canonical_edges_of(g.n, edge_list(g))
        rng = random.Random(17)
        for _ in range(50):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = [
                (min(perm[a], perm[b]), max(perm[a], perm[b]))
                for a, b in edge_list(g)
            ]
            cert, _ = canonical_edges_of(g.n, relabeled)
            assert cert == base_cert


class TestOpenProblemProbes:
    def test_all_probes_terminate_with_certificates(self):
        report = probe_open_problems()
        assert len(report.entries) == 35
        for entry in report.entries:
            assert entry.verdict.kind != "timeout"
            if entry.verdict.kind == "isomorphic":
                assert verify_permutation(
                    CirculantGraph(entry.left),
                    CirculantGraph(entry.right),
                    entry.verdict.permutation,
                )
            else:
                assert entry.verdict.certificate
