"""The block-shift transform: worked images, parameter law, fixed multiples,
and agreement of the jump-level image with the edge-level definition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circio.theta as theta_mod
from circio import (
    ConnectionSet,
    InvalidParams,
    ThetaParams,
    WitnessMismatch,
    theta_image,
    theta_scan,
    theta_vertex_map,
    theta_witness,
    valid_block_moduli,
)
from circio.enumeration import _core_image
from helpers import cs, edge_level_theta_image, theta_inputs

# The four worked images at order 54, m = 3.
WORKED_IMAGES = [
    ("C54(1,3,17,19)", 2, "C54(3,7,11,25)"),
    ("C54(1,3,17,19)", 4, "C54(3,5,13,23)"),
    ("C54(2,3,16,20)", 2, "C54(3,4,14,22)"),
    ("C54(2,3,16,20)", 4, "C54(3,8,10,26)"),
]


class TestParams:
    def test_valid(self):
        ThetaParams(54, 3, 0)
        ThetaParams(54, 3, 17)
        ThetaParams(16, 2, 7)

    def test_m_too_small(self):
        with pytest.raises(InvalidParams):
            ThetaParams(54, 1, 0)

    def test_cube_must_divide(self):
        with pytest.raises(InvalidParams):
            ThetaParams(54, 2, 0)
        with pytest.raises(InvalidParams):
            ThetaParams(12, 2, 0)

    def test_t_range(self):
        with pytest.raises(InvalidParams):
            ThetaParams(54, 3, 18)
        with pytest.raises(InvalidParams):
            ThetaParams(54, 3, -1)

    def test_valid_block_moduli(self):
        assert valid_block_moduli(54) == [3]
        assert valid_block_moduli(16) == [2]
        assert valid_block_moduli(8) == [2]
        assert valid_block_moduli(12) == []
        assert valid_block_moduli(216) == [2, 3, 6]

    def test_theta_params_valid_needs_multiple(self):
        assert theta_image(cs("C54(1,3,17,19)"), 3, 2) == cs("C54(3,7,11,25)")
        with pytest.raises(InvalidParams, match="theta is undefined"):
            theta_image(cs("C54(1,17,19)"), 3, 2)
        with pytest.raises(InvalidParams, match="must divide"):
            theta_image(cs("C16(3,6)"), 3, 0)
        with pytest.raises(InvalidParams, match="m must be >= 2"):
            theta_image(cs("C54(1,3)"), 1, 0)


class TestVertexMap:
    def test_worked_values_t2(self):
        perm = theta_vertex_map(ThetaParams(54, 3, 2))
        expected = {1: 7, 3: 3, 17: 29, 19: 25, 35: 47, 37: 43, 51: 51, 53: 11}
        for x, y in expected.items():
            assert perm[x] == y

    def test_worked_values_t4(self):
        perm = theta_vertex_map(ThetaParams(54, 3, 4))
        expected = {1: 13, 3: 3, 17: 41, 19: 31, 35: 5, 37: 49, 51: 51, 53: 23}
        for x, y in expected.items():
            assert perm[x] == y

    def test_identity_at_t0(self):
        assert theta_vertex_map(ThetaParams(54, 3, 0)) == tuple(range(54))

    @given(theta_inputs())
    def test_always_bijective(self, inp):
        a, m, t = inp
        perm = theta_vertex_map(ThetaParams(a.n, m, t))
        assert sorted(perm) == list(range(a.n))

    @given(theta_inputs())
    def test_multiples_of_m_fixed(self, inp):
        a, m, t = inp
        perm = theta_vertex_map(ThetaParams(a.n, m, t))
        for x in range(0, a.n, m):
            assert perm[x] == x


class TestThetaImage:
    @pytest.mark.parametrize("source,t,expected", WORKED_IMAGES)
    def test_worked_examples(self, source, t, expected):
        assert theta_image(cs(source), 3, t) == cs(expected)

    def test_not_circulant(self):
        assert theta_image(cs("C54(1,3,17,19)"), 3, 1) is None

    def test_t0_is_identity(self):
        a = cs("C54(1,3,17,19)")
        assert theta_image(a, 3, 0) == a

    def test_requires_multiple_of_m(self):
        with pytest.raises(InvalidParams):
            theta_image(cs("C54(1,17,19)"), 3, 2)

    def test_rejects_bad_modulus(self):
        with pytest.raises(InvalidParams):
            theta_image(cs("C54(1,3,17,19)"), 2, 1)


class TestThetaWitness:
    def test_witness_carries_map_and_image(self):
        w = theta_witness(cs("C54(1,3,17,19)"), 3, 2)
        assert w is not None
        assert w.image == cs("C54(3,7,11,25)")
        assert w.source == cs("C54(1,3,17,19)")
        assert w.params == ThetaParams(54, 3, 2)
        assert w.vertex_map[1] == 7

    def test_witness_none_when_not_circulant(self):
        assert theta_witness(cs("C54(1,3,17,19)"), 3, 1) is None

    def test_wrong_image_raises_witness_mismatch(self, monkeypatch):
        source = cs("C54(1,3,17,19)")
        # The t=4 image is circulant, but the t=2 vertex map does not reach it.
        wrong = cs("C54(3,5,13,23)")
        monkeypatch.setattr(theta_mod, "theta_image", lambda c, m, t: wrong)
        with pytest.raises(WitnessMismatch):
            theta_witness(source, 3, 2)


class TestThetaScan:
    def test_family_base_hits(self):
        hits = dict(theta_scan(cs("C54(1,3,17,19)"), 3))
        assert hits[2] == cs("C54(3,7,11,25)")
        assert hits[4] == cs("C54(3,5,13,23)")
        assert sorted(hits) == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_scan_preserves_multiples(self):
        for t, img in theta_scan(cs("C54(3,6,17,19)"), 3):
            assert {j for j in img.jumps if j % 3 == 0} == {3, 6}

    def test_scan_requires_eligibility(self):
        with pytest.raises(InvalidParams):
            theta_scan(cs("C54(1,17,19)"), 3)


class TestUnionShift:
    """theta fixes multiples of m in every D'_r, so for any set E of them
    theta(R + E) = theta(R) + E, and both sides are None together."""

    @settings(max_examples=60)
    @given(theta_inputs(), st.data())
    def test_matches_direct_image(self, inp, data):
        a, m, t = inp
        pool = list(range(m, a.n // 2 + 1, m))
        extra = set(data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))))
        union = ConnectionSet(a.n, tuple(sorted(set(a.jumps) | extra)))
        image = theta_image(a, m, t)
        expected = (
            None
            if image is None
            else ConnectionSet(a.n, tuple(sorted(set(image.jumps) | extra)))
        )
        assert theta_image(union, m, t) == expected

    def test_none_propagates(self):
        assert theta_image(cs("C54(1,3,17,19)"), 3, 1) is None
        assert theta_image(cs("C54(1,3,6,17,19)"), 3, 1) is None


class TestJumpLevelImage:
    @settings(max_examples=60)
    @given(theta_inputs())
    def test_agrees_with_edge_level_definition(self, inp):
        a, m, t = inp
        assert theta_image(a, m, t) == edge_level_theta_image(a, m, t)

        # A bare core (no multiple of m) against the edge-level image of the
        # core with m adjoined, m stripped again.
        core = tuple(j for j in a.jumps if j % m)
        if core:
            probe = edge_level_theta_image(
                ConnectionSet(a.n, tuple(sorted(core + (m,)))), m, t
            )
            expected = None if probe is None else tuple(j for j in probe.jumps if j != m)
            assert _core_image(a.n, m, core, t) == expected
