"""The two parametric constructions: worked examples, links, validation."""

from __future__ import annotations

import pytest

from circio import (
    TYPE2,
    DegeneratePair,
    InvalidIndex,
    InvalidParams,
    classify_pair,
    generate_a17c,
    generate_c1,
    theta_image,
)
from helpers import cs


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
