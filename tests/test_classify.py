"""Pair and tuple verdicts."""

from __future__ import annotations

from itertools import combinations

import pytest

from circio import (
    NON_ISOMORPHIC,
    TYPE1,
    TYPE2,
    UNKNOWN,
    ConnectionSet,
    InvalidParams,
    OrderMismatch,
    adam_orbit,
    classify_pair,
    classify_tuple,
)
from circio.classify import type1_verdict
from helpers import cs


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
