"""Pair and tuple verdicts."""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circio.classify as classify_mod
import circio.theta as theta_mod
from circio import (
    DEFAULT_BUDGET,
    NON_ISOMORPHIC,
    TYPE1,
    TYPE2,
    UNKNOWN,
    ConnectionSet,
    InvalidParams,
    OrderMismatch,
    WitnessMismatch,
    adam_orbit,
    classify_pair,
    classify_tuple,
    full_scan,
    generate_a17c,
    generate_c1,
    probe_open_problems,
    theta_image,
    valid_block_moduli,
)
from circio.classify import _theta_link, type1_verdict
from circio.theta import _multiples
from helpers import cs, family_records

# sha256 of the newline-joined json.dumps of every verdict in verdict_lines().
VERDICT_DIGEST = "72ebba3c5c9c3045e5bd2dcb7fd2b7308fdf56f4dbf2843e8ade60d12105a3b2"


class TestClassifyPair:
    def test_type1(self):
        v = classify_pair(cs("C54(1,9,17,19)"), cs("C54(5,9,13,23)"))
        assert v.kind == TYPE1
        assert v.unit == 5
        assert v.describe() == "Type1 x=5"
        assert v.table_verdict == "T1"

    def test_type2(self):
        v = classify_pair(cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"))
        assert v.kind == TYPE2
        assert (v.m, v.t) == (3, 2)
        assert v.describe() == "Type2 m=3 t=2"
        assert v.table_verdict == "T2"
        assert v.chain == (cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"))

    def test_false_theta_image_is_not_certified(self, monkeypatch):
        # A link rests on the edge-level check, not on the image jump_hits
        # reports: θ at t = 1 does not carry a onto b (t = 2 does).
        a, b = cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)")

        def false_hits(n, m, jumps):
            yield 1, b

        monkeypatch.setattr(classify_mod, "jump_hits", false_hits)
        with pytest.raises(WitnessMismatch, match="does not carry"):
            classify_pair(a, b)

    def test_type2_family_b(self):
        v = classify_pair(cs("C54(2,3,16,20)"), cs("C54(3,4,14,22)"))
        assert (v.kind, v.m, v.t) == (TYPE2, 3, 2)

    def test_non_isomorphic(self):
        v = classify_pair(cs("C54(1,2,17,19)"), cs("C54(2,5,13,23)"))
        assert v.kind == NON_ISOMORPHIC
        assert v.certificate.startswith("spectrum[")
        assert v.table_verdict == NON_ISOMORPHIC

    def test_unknown_composite_isomorphism(self):
        # isomorphic only through a multiplier composed with a block shift
        v = classify_pair(cs("C16(1,2,7)"), cs("C16(1,6,7)"))
        assert v.kind == UNKNOWN
        assert "no Type-1/Type-2 witness" in v.reason

    def test_unknown_budget(self):
        v = classify_pair(cs("C16(1,2,7)"), cs("C16(1,6,7)"), budget=3)
        assert v.kind == UNKNOWN
        assert v.reason == "budget"

    def test_same_set_rejected(self):
        with pytest.raises(InvalidParams):
            classify_pair(cs("C54(1,3)"), cs("C54(1,3)"))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            classify_pair(cs("C54(1)"), cs("C27(1)"))

    def test_symmetric_verdicts(self):
        pairs = [
            ("C54(1,9,17,19)", "C54(5,9,13,23)"),
            ("C54(1,3,17,19)", "C54(3,7,11,25)"),
            ("C54(1,3,17,19)", "C54(3,5,13,23)"),
            ("C54(1,2,17,19)", "C54(2,5,13,23)"),
            ("C16(1,2,7)", "C16(2,3,5)"),
            ("C16(1,2,7)", "C16(1,6,7)"),
        ]
        for left, right in pairs:
            fwd = classify_pair(cs(left), cs(right))
            rev = classify_pair(cs(right), cs(left))
            assert fwd.kind == rev.kind

    def test_no_type2_below_three_jumps(self):
        # every 2-jump pair at order 16 resolves without a block-shift verdict
        sets = [
            ConnectionSet(16, combo) for combo in combinations(range(1, 9), 2)
        ]
        for a, b in combinations(sets, 2):
            assert classify_pair(a, b).kind != TYPE2

    def test_orbit_attached(self):
        v = classify_pair(cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"))
        assert cs("C54(1,3,17,19)") in v.orbit

    def test_to_json(self):
        v = classify_pair(cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"))
        out = v.to_json()
        assert out["verdict"] == TYPE2
        assert out["m"] == 3 and out["t"] == 2
        assert out["orbit"][0] == "C54(1,3,17,19)"


class TestFields:
    @pytest.mark.parametrize(
        "kind,pair,budget,keys",
        [
            (TYPE1, ("C54(1,9,17,19)", "C54(5,9,13,23)"), DEFAULT_BUDGET, ["unit"]),
            (TYPE2, ("C54(1,3,17,19)", "C54(3,7,11,25)"), DEFAULT_BUDGET, ["m", "t", "chain"]),
            (NON_ISOMORPHIC, ("C54(1,2,17,19)", "C54(2,5,13,23)"), DEFAULT_BUDGET, ["certificate"]),
            (UNKNOWN, ("C16(1,2,7)", "C16(1,6,7)"), 3, ["reason"]),
        ],
    )
    def test_key_order_per_verdict_kind(self, kind, pair, budget, keys):
        v = classify_pair(cs(pair[0]), cs(pair[1]), budget)
        assert v.kind == kind
        keys = ["verdict", *keys, "orbit"]
        fields = v.fields()
        assert [key for key, _ in fields] == keys
        assert list(v.to_json()) == keys
        # Sets stay ConnectionSets; only to_json renders them as text.
        assert dict(fields)["orbit"] is v.orbit


class TestType1Verdict:
    def test_all_members_in_the_orbit(self):
        members = (cs("C54(1,9,17,19)"), cs("C54(7,9,11,25)"), cs("C54(5,9,13,23)"))
        v = type1_verdict(members, adam_orbit(members[0]))
        assert v.kind == TYPE1
        # The unit carries members[0] onto members[1], not onto the smallest.
        assert v.unit == 7

    def test_one_member_outside(self):
        members = (cs("C54(1,3,17,19)"), cs("C54(5,13,15,23)"), cs("C54(3,7,11,25)"))
        assert type1_verdict(members, adam_orbit(members[0])) is None


class TestClassifyTuple:
    def test_type2_triple(self):
        rec = classify_tuple(
            (cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"), cs("C54(3,5,13,23)"))
        )
        assert rec.verdict.kind == TYPE2
        assert (rec.verdict.m, rec.verdict.t) == (3, 2)
        assert rec.theta_images[2] == cs("C54(3,7,11,25)")
        assert rec.theta_images[4] == cs("C54(3,5,13,23)")

    def test_type1_triple(self):
        rec = classify_tuple(
            (cs("C54(1,9,17,19)"), cs("C54(5,9,13,23)"), cs("C54(7,9,11,25)"))
        )
        assert rec.verdict.kind == TYPE1
        assert rec.verdict.unit == 5

    def test_type2_reports_the_first_linked_pair(self):
        # Pair (0, 1) is linked at t = 2 and pair (0, 2) at t = 1: the verdict
        # takes the first pair in (i, j) order, not the smallest t.
        rec = classify_tuple(
            (cs("C27(1,3,8,9,10)"), cs("C27(2,3,7,9,11)"), cs("C27(3,4,5,9,13)"))
        )
        assert (rec.verdict.kind, rec.verdict.m, rec.verdict.t) == (TYPE2, 3, 2)
        assert rec.theta_images[1] == cs("C27(3,4,5,9,13)")

    def test_mixed_membership_not_type2(self):
        # two block-shift partners plus one spectral stranger
        rec = classify_tuple(
            (cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"), cs("C54(1,2,17,19)"))
        )
        assert rec.verdict.kind == NON_ISOMORPHIC

    def test_needs_two(self):
        with pytest.raises(InvalidParams):
            classify_tuple((cs("C54(1,3)"),))

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParams):
            classify_tuple((cs("C54(1,3)"), cs("C54(1,3)")))

    def test_rejects_mixed_orders(self):
        with pytest.raises(OrderMismatch):
            classify_tuple((cs("C54(1,3)"), cs("C27(1,3)")))

    def test_record_json(self):
        rec = classify_tuple(
            (cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)"), cs("C54(3,5,13,23)"))
        )
        out = rec.to_json()
        assert out["members"][0] == "C54(1,3,17,19)"
        assert out["theta_images"]["2"] == "C54(3,7,11,25)"
        assert out["verdict"]["verdict"] == TYPE2


def all_theta_hits(a: ConnectionSet) -> list[tuple[int, int, ConnectionSet]]:
    """Every (m, t, image) with a circulant image, over every valid m of which
    a holds a multiple, ascending: the brute force the walks must agree with."""
    return [
        (m, t, img)
        for m in valid_block_moduli(a.n)
        if any(j % m == 0 for j in a.jumps)
        for t in range(1, a.n // m)
        if (img := theta_image(a, m, t)) is not None
    ]


@st.composite
def theta_queries(draw) -> tuple[ConnectionSet, list[ConnectionSet]]:
    """A set a and targets that mix its theta images, from every modulus,
    with random sets of its size. 54 has one valid modulus; 64 has two
    (2, 4) and 216 three (2, 3, 6)."""
    n = draw(st.sampled_from((54, 64, 216)))
    m = draw(st.sampled_from(valid_block_moduli(n)))
    multiple = draw(st.integers(1, n // 2 // m)) * m
    rest = draw(st.sets(st.integers(1, n // 2), min_size=2, max_size=6))
    a = ConnectionSet(n, tuple(sorted(rest | {multiple})))
    hits = all_theta_hits(a)
    targets = []
    for modulus in valid_block_moduli(n):
        images = sorted({img for m_, _, img in hits if m_ == modulus and img != a})
        if images:
            targets += draw(st.lists(st.sampled_from(images), max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        jumps = draw(st.sets(st.integers(1, n // 2), min_size=len(a.jumps),
                             max_size=len(a.jumps)))
        targets.append(ConnectionSet(n, tuple(sorted(jumps))))
    targets = list(dict.fromkeys(b for b in targets if b != a))
    return a, draw(st.permutations(targets))


class TestAcrossModuli:
    """Orders with two or more valid moduli exercise the rules "smallest (m, t)
    across moduli" and "theta images at the first m that has any"."""

    @settings(max_examples=80, deadline=None)
    @given(theta_queries())
    def test_links_and_images_match_brute_force(self, query):
        a, targets = query
        hits = all_theta_hits(a)
        expected_links = {}
        for m, t, img in hits:
            if img in targets and len(a.jumps) >= 3:
                expected_links.setdefault(img, (m, t))
        links = {b: link for b in targets if (link := _theta_link(a, b)) is not None}
        assert links == expected_links

        if not targets:
            return
        expected_images = {}
        for modulus in valid_block_moduli(a.n):
            expected_images = {t: img for m, t, img in hits if m == modulus and img in targets}
            if expected_images:
                break
        # The images do not depend on the verdict, so the oracle gets no budget.
        assert classify_tuple((a, *targets), budget=0).theta_images == expected_images

    def test_pair_linked_only_at_m4(self):
        a, b = cs("C64(1,4,16,31)"), cs("C64(4,9,16,23)")
        assert all(theta_image(a, 2, t) != b for t in range(1, 32))
        v = classify_pair(a, b)
        assert (v.kind, v.m, v.t) == (TYPE2, 4, 2)
        assert v.describe() == "Type2 m=4 t=2"

    def test_links_skip_moduli_no_open_target_reaches(self, monkeypatch):
        # C64(2,4,31) shares a's multiples of 2 and of 4 and is linked at
        # m = 2; C64(4,17,30) shares only a's multiples of 4, so its search
        # builds no image at m = 2.
        a = cs("C64(1,2,4)")
        near, far = cs("C64(2,4,31)"), cs("C64(4,17,30)")
        calls = []
        real = theta_mod._jump_image

        def counted(n, m, t, jumps):
            calls.append((m, t))
            return real(n, m, t, jumps)

        monkeypatch.setattr(theta_mod, "_jump_image", counted)
        links = {b: _theta_link(a, b) for b in (near, far)}
        assert links == {near: (2, 16), far: (4, 4)}
        for m, t in calls:
            # Each image is built for a target eligible at m, up to its link.
            assert any(
                links.get(b, (m, t)) >= (m, t) and _multiples(b, m) == _multiples(a, m)
                for b in (near, far)
            ), (m, t)
        # Each modulus builds only its hits: t = 16 at m = 2 (N = {1, 63} has
        # period 64, 64 // gcd(64, 4) = 16) and t = 4 at m = 4.
        assert calls == [(2, 16), (4, 4)]


@lru_cache(maxsize=None)
def pair_corpus() -> tuple[tuple[ConnectionSet, ConnectionSet], ...]:
    """Family member pairs, scan record member pairs, construction pairs and
    the probe pairs, in a fixed order."""
    pairs = []
    for row in family_records("a") + family_records("b"):
        first, second, third = row.members
        pairs += [(first, second), (first, third), (second, third), (third, first)]
    for n in (16, 24, 27, 32):
        for record in full_scan(n).records:
            pairs += combinations(record.members, 2)
    for k in range(2, 7):
        for s in range(1, k + 1):
            if 2 * s - 1 != k:
                pairs.append(generate_a17c(k, s))
    pairs += [(entry.left, entry.right) for entry in probe_open_problems().entries]
    return tuple(pairs)


def verdict_lines() -> list[str]:
    lines = [json.dumps(classify_pair(a, b).to_json()) for a, b in pair_corpus()]
    c16 = (cs("C16(1,2,7)"), cs("C16(1,6,7)"))
    lines.append(json.dumps(classify_pair(*c16).to_json()))
    lines.append(json.dumps(classify_pair(*c16, budget=3).to_json()))
    tuples = [row.members for row in family_records("a") + family_records("b")]
    tuples += [
        tuple(generate_c1(1, 3, x, y, i) for i in range(1, 4))
        for x in (1, 2)
        for y in range(3)
    ]
    lines += [json.dumps(classify_tuple(members).to_json()) for members in tuples]
    return lines


class TestVerdictDigest:
    """Every verdict field, over the pairs and tuples the package reproduces,
    is locked by one digest."""

    def test_digest(self):
        lines = verdict_lines()
        assert len(lines) == 4601 + 2 + 1028
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VERDICT_DIGEST

    def test_pair_is_the_two_member_tuple(self):
        for a, b in pair_corpus():
            assert classify_tuple((a, b)).verdict == classify_pair(a, b), (a, b)
