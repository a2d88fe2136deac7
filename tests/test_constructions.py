"""The two parametric constructions: worked examples, links, validation,
and their Type-2 claims checked edge by edge on parameter grids that reach
orders far above the scan's."""

from __future__ import annotations

from itertools import combinations

import pytest

from circio import (
    TYPE2,
    DegeneratePair,
    InvalidIndex,
    InvalidParams,
    classify_pair,
    generate_a17c,
    generate_c1,
    is_adam_equivalent,
    theta_image,
)
from circio.theta import _carries, jump_hits
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


def _slow_unless(small: bool):
    return () if small else pytest.mark.slow


class TestConstructionClaims:
    """Each link is checked by _carries, theta's edge-level class rule, at
    the (m, t) the construction names, and no unit multiplier may make it.
    These are finite grids, not proofs for every parameter."""

    @pytest.mark.parametrize("p,base", [
        pytest.param(p, base, marks=_slow_unless(p <= 5 and base <= 2))
        for p in (3, 5, 7)
        for base in range(1, 5)
    ])
    def test_c1_chains_link_member_i_to_j_at_t_of_j_minus_i(self, p, base):
        links = 0
        for x in range(1, p):
            for y in range(base * p):
                chain = [generate_c1(base, p, x, y, i) for i in range(1, p + 1)]
                assert len(set(chain)) == p, (x, y)
                for (i, a), (j, b) in combinations(enumerate(chain), 2):
                    _carries(a, b, p, (j - i) * base)
                    assert is_adam_equivalent(a, b) is None, (x, y, i, j)
                    links += 1
        assert links == (p - 1) * base * p * p * (p - 1) // 2

    @pytest.mark.parametrize("k", [
        pytest.param(k, marks=_slow_unless(k <= 20)) for k in range(2, 61)
    ])
    def test_a17c_pairs_link_at_m2(self, k):
        for s in range(1, k + 1):
            if 2 * s - 1 == k:
                continue
            left, right = generate_a17c(k, s)
            shifts = {t for t, img in jump_hits(left.n, 2, left.jumps) if img == right}
            assert shifts, s
            for t in shifts:
                _carries(left, right, 2, t)
            assert is_adam_equivalent(left, right) is None, s
            if k <= 40:
                assert shifts == {k, 3 * k}, s
