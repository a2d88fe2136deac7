"""The block-shift transform: worked images, parameter law, fixed multiples,
the composition law, and agreement of the jump-level image with the
edge-level definition and with the m-set D'_r rule."""

from __future__ import annotations

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circio.oracle as oracle_mod
import circio.theta as theta_mod
from circio.core import full_difference_set
from circio.theta import _levels, _nonmultiple_atoms
from circio import (
    ConnectionSet,
    InvalidParams,
    ThetaParams,
    WitnessMismatch,
    reflexive_reduce,
    theta_image,
    theta_scan,
    theta_vertex_map,
    theta_witness,
    valid_block_moduli,
)
from helpers import (
    count_calls,
    cs,
    d_r_sets,
    d_r_theta_image,
    edge_level_theta_image,
    rule_theta_image,
    theta_check_verdicts,
    theta_inputs,
    vertex_map_carries,
)

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

    def test_order_eight_billion(self):
        # The hit step comes from the differences of N, not from the divisors
        # of n/m^2 = 2*10^9, so one shift takes microseconds, not a walk over n.
        a = cs("C8000000000(1,2)")
        assert theta_image(a, 2, 1) is None
        assert theta_image(a, 2, 2 * 10**9) == cs("C8000000000(2,3999999999)")


class TestThetaWitness:
    def test_witness_carries_map_and_image(self):
        assert theta_witness(cs("C54(1,3,17,19)"), 3, 2) == cs("C54(3,7,11,25)")
        # The vertex map whose edges _carries checks, one class at a time.
        assert theta_vertex_map(ThetaParams(54, 3, 2))[1] == 7

    def test_witness_checks_by_class_rule_only(self, monkeypatch):
        called = []
        count_calls(monkeypatch, called, theta_mod, "_carries")
        count_calls(monkeypatch, called, theta_mod, "theta_vertex_map")
        count_calls(monkeypatch, called, oracle_mod, "verify_permutation")
        assert theta_witness(cs("C54(1,3,17,19)"), 3, 2) == cs("C54(3,7,11,25)")
        assert called == ["_carries"]

    @given(theta_inputs())
    def test_witness_is_the_checked_image(self, inp):
        # Both are None together; otherwise the same set.
        a, m, t = inp
        assert theta_witness(a, m, t) == theta_image(a, m, t)

    def test_order_eight_billion_certifies_quickly(self):
        # _carries compares sets of |D| differences, so certifying a hit at
        # n = 8*10^9 costs what it does at n = 54. An n-bit mask of the
        # differences would take 1 GB here.
        start = time.perf_counter()
        image = theta_witness(cs("C8000000000(1,2)"), 2, 2_000_000_000)
        assert time.perf_counter() - start < 2.0
        assert image == cs("C8000000000(2,3999999999)")

    def test_witness_none_when_not_circulant(self):
        assert theta_witness(cs("C54(1,3,17,19)"), 3, 1) is None

    def test_wrong_image_raises_witness_mismatch(self, monkeypatch):
        source = cs("C54(1,3,17,19)")
        # The t=4 image is circulant, but the t=2 vertex map does not reach it.
        wrong = cs("C54(3,5,13,23)")
        monkeypatch.setattr(theta_mod, "theta_image", lambda c, m, t: wrong)
        with pytest.raises(WitnessMismatch):
            theta_witness(source, 3, 2)


# Orders whose valid m run from 2 to 6, for the class-rule check.
CARRIES_ORDERS = tuple((n, m) for n in (54, 64, 125, 216) for m in valid_block_moduli(n))


@st.composite
def carries_inputs(draw) -> tuple[ConnectionSet, int, int]:
    """(a, m, t) at an order of CARRIES_ORDERS. Half the draws snap t down to
    a shift whose image is circulant; even orders may put n/2 in a."""
    n, m = draw(st.sampled_from(CARRIES_ORDERS))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=8))
    if n % 2 == 0 and draw(st.booleans()):
        jumps.add(n // 2)
    jumps = tuple(sorted(jumps))
    t = draw(st.integers(0, n // m - 1))
    if draw(st.booleans()):
        t -= t % theta_mod._hit_step(n, m, jumps)
    return ConnectionSet(n, jumps), m, t


class TestCarries:
    """_carries checks D'_r = D(b) for each residue class r, through D'_0
    and D'_{m-1}; it must accept and reject exactly where the
    vertex-by-vertex reference vertex_map_carries does."""

    @pytest.mark.parametrize("source,t,image", WORKED_IMAGES)
    def test_worked_images(self, source, t, image):
        assert theta_check_verdicts(cs(source), cs(image), 3, t) == (True, True)
        assert theta_check_verdicts(cs(source), cs(image), 3, 6 - t) == (False, False)

    def test_order_mismatch_and_bad_params(self):
        a = cs("C54(1,3,17,19)")
        assert theta_check_verdicts(a, cs("C27(3,7,11,12)"), 3, 2) == (False, False)
        # At t = 0 theta is the identity, and these jumps read alike at n = 27.
        assert theta_check_verdicts(cs("C54(1,3,5)"), cs("C27(1,3,5)"), 3, 0) == (False, False)
        for check in (theta_mod._carries, vertex_map_carries):
            with pytest.raises(InvalidParams):
                check(a, cs("C54(3,7,11,25)"), 2, 2)
            with pytest.raises(InvalidParams):
                check(a, cs("C54(3,7,11,25)"), 3, 18)

    @settings(max_examples=200, deadline=None)
    @given(carries_inputs(), st.data())
    def test_agrees_with_certify(self, inp, data):
        a, m, t = inp
        n = a.n
        hit = rule_theta_image(n, m, t, a.jumps) is not None
        # reduce(D'_r) for each class r: every one is the image at a hit,
        # and none is a set that theta carries a onto at a miss.
        reduced = [
            ConnectionSet(n, tuple(sorted(d for d in d_r if 2 * d <= n)))
            for d_r in d_r_sets(n, m, t, a.jumps)
        ]
        for image in reduced:
            assert theta_check_verdicts(a, image, m, t) == (hit, hit)
        image = reduced[0]
        if image.jumps:
            i = data.draw(st.integers(0, len(image.jumps) - 1))
            spare = [j for j in range(1, n // 2 + 1) if j not in image.jumps]
            jumps = set(image.jumps) - {image.jumps[i]} | {data.draw(st.sampled_from(spare))}
            changed = ConnectionSet(n, tuple(sorted(jumps)))
            assert theta_check_verdicts(a, changed, m, t) == (False, False)


class TestThetaScan:
    def test_family_base_hits(self):
        hits = dict(theta_scan(cs("C54(1,3,17,19)"), 3))
        assert hits[2] == cs("C54(3,7,11,25)")
        assert hits[4] == cs("C54(3,5,13,23)")
        assert sorted(hits) == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_scan_preserves_multiples(self):
        for t, img in theta_scan(cs("C54(3,6,17,19)"), 3):
            assert {j for j in img.jumps if j % 3 == 0} == {3, 6}

    @given(theta_inputs())
    def test_every_hit_keeps_the_multiples_of_m(self, inp):
        a, m, _ = inp
        fixed = {j for j in a.jumps if j % m == 0}
        for t, img in theta_scan(a, m):
            assert {j for j in img.jumps if j % m == 0} == fixed

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
            image = rule_theta_image(a.n, m, t, core)
            assert (None if image is None else image.jumps) == expected


# Orders with m = 4, 5 and 6 among their valid moduli.
LARGE_THETA_ORDERS = tuple(
    (n, m) for n in (64, 125, 216, 250) for m in valid_block_moduli(n)
)


def nonempty_jump_sets(n: int):
    pool = range(1, n // 2 + 1)
    for k in range(1, len(pool) + 1):
        yield from combinations(pool, k)


def full_period_shifts(n: int, m: int) -> list[int]:
    """The t in [0, n/m - 1] with n | t*m^2, where +t*m^2 moves nothing."""
    return [t for t in range(n // m) if t * m * m % n == 0]


@st.composite
def large_order_inputs(draw) -> tuple[int, int, int, tuple[int, ...]]:
    """(n, m, t, jumps) at an order of LARGE_THETA_ORDERS. Half the draws are
    unions of atoms of one scan level, so many shifts have circulant images."""
    n, m = draw(st.sampled_from(LARGE_THETA_ORDERS))
    if draw(st.booleans()):
        atoms = _nonmultiple_atoms(n, m, draw(st.sampled_from(_levels(n, m))))
        chosen = draw(st.sets(st.sampled_from(atoms), min_size=1, max_size=3))
        mults = draw(st.sets(st.sampled_from(range(m, n // 2 + 1, m)), max_size=2))
        jumps = {j for atom in chosen for j in atom} | mults
    else:
        jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=8))
    return n, m, draw(st.integers(0, n // m - 1)), tuple(sorted(jumps))


class TestClassRule:
    """theta decides a shift by the period rule, N + t*m^2 = N, and builds
    only D'_0 instead of comparing the m sets D'_r; both must give the same
    answer at every shift, misses included."""

    @pytest.mark.parametrize(
        "n", [8, 16, 24, 27, pytest.param(32, marks=pytest.mark.slow)]
    )
    def test_matches_d_r_rule_on_every_set(self, n):
        for m in valid_block_moduli(n):
            for jumps in nonempty_jump_sets(n):
                for t in range(n // m):
                    expected = d_r_theta_image(n, m, t, jumps)
                    assert rule_theta_image(n, m, t, jumps) == expected, (m, t, jumps)

    @settings(max_examples=150, deadline=None)
    @given(large_order_inputs())
    def test_matches_edge_level_definition_at_large_moduli(self, inp):
        n, m, t, jumps = inp
        expected = edge_level_theta_image(ConnectionSet(n, jumps), m, t)
        assert rule_theta_image(n, m, t, jumps) == expected

    @pytest.mark.parametrize("n", [8, 16, 24, 27])
    def test_period_dividing_n_gives_reduced_d0(self, n):
        """When n | t*m^2 every class is trivially periodic, so every eligible
        set has a circulant image, and it is reduce(D'_0)."""
        for m in valid_block_moduli(n):
            for t in full_period_shifts(n, m):
                for jumps in nonempty_jump_sets(n):
                    a = ConnectionSet(n, jumps)
                    if not any(j % m == 0 for j in jumps):
                        continue
                    d0 = [d + (d % m) * t * m for d in full_difference_set(a)]
                    assert theta_image(a, m, t) == reflexive_reduce(d0, n), (m, t, a)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(LARGE_THETA_ORDERS + ((54, 3),)), st.data())
    def test_period_dividing_n_at_larger_orders(self, order, data):
        n, m = order
        t = data.draw(st.sampled_from(full_period_shifts(n, m)))
        mult = m * data.draw(st.integers(1, n // 2 // m))
        others = data.draw(st.sets(st.integers(1, n // 2), max_size=6))
        a = ConnectionSet(n, tuple(sorted(others | {mult})))
        d0 = [d + (d % m) * t * m for d in full_difference_set(a)]
        image = theta_image(a, m, t)
        assert image == reflexive_reduce(d0, n)
        assert image == edge_level_theta_image(a, m, t)


class TestHitWalk:
    """jump_hits against the references shift by shift: the same hits in the
    same order, with the same images, and no image built at a miss."""

    @pytest.mark.parametrize("n", [8, 16, 24, 27])
    def test_walk_matches_d_r_rule_on_every_set(self, n, monkeypatch):
        built = []
        real = theta_mod._jump_image

        def counted(n, m, t, jumps):
            built.append(t)
            return real(n, m, t, jumps)

        monkeypatch.setattr(theta_mod, "_jump_image", counted)
        for m in valid_block_moduli(n):
            for jumps in nonempty_jump_sets(n):
                expected = [
                    (t, image)
                    for t in range(1, n // m)
                    if (image := d_r_theta_image(n, m, t, jumps)) is not None
                ]
                built.clear()
                assert list(theta_mod.jump_hits(n, m, jumps)) == expected, (m, jumps)
                assert built == [t for t, _ in expected], (m, jumps)

    @settings(max_examples=15, deadline=None)
    @given(large_order_inputs())
    def test_walk_matches_edge_level_definition_at_large_moduli(self, inp):
        n, m, _, jumps = inp
        expected = [
            (t, image)
            for t in range(1, n // m)
            if (image := edge_level_theta_image(ConnectionSet(n, jumps), m, t)) is not None
        ]
        assert list(theta_mod.jump_hits(n, m, jumps)) == expected


# Every (n, m) with m^3 | n and n <= 2000.
LEVEL_ORDERS = tuple((n, m) for n in range(8, 2001) for m in valid_block_moduli(n))


@st.composite
def periodic_jump_sets(draw) -> tuple[int, int, tuple[int, ...]]:
    """(n, m, jumps) at an order of LEVEL_ORDERS: the jumps whose residues
    mod a drawn period p | n, up to sign, lie in a drawn set, and in half the
    draws one jump toggled, which usually breaks the period."""
    n, m = draw(st.sampled_from(LEVEL_ORDERS))
    p = draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0]))
    residues = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=6))
    jumps = {j for j in range(1, n // 2 + 1) if j % p in residues or -j % p in residues}
    if draw(st.booleans()):
        jumps ^= {draw(st.integers(1, n // 2))}
    return n, m, tuple(sorted(jumps or {1}))


class TestLevels:
    """_levels lists the divisors of q = n/m^2 up to sqrt(q), and _hit_step
    finds N's least period among its differences from min N; both against
    brute force at every order with a valid modulus up to 2000."""

    def test_levels_are_the_divisor_list(self):
        for n, m in LEVEL_ORDERS:
            q = n // (m * m)
            assert _levels(n, m) == [m * m * d for d in range(1, q) if q % d == 0], (n, m)

    @settings(max_examples=200, deadline=None)
    @given(periodic_jump_sets())
    def test_hit_step_is_the_least_hitting_shift(self, inp):
        n, m, jumps = inp
        nonmult = {d for s in jumps for d in (s, n - s) if d % m}
        least = next(
            t for t in range(1, n // m + 1) if {(v + t * m * m) % n for v in nonmult} == nonmult
        )
        assert theta_mod._hit_step(n, m, jumps) == least


# (n, m) with m^3 | n up to 120, for the composition law on images.
COMPOSITION_ORDERS = tuple(
    (n, m) for n in range(8, 121) for m in valid_block_moduli(n)
)


@st.composite
def circulant_theta_hits(draw) -> tuple[int, int, int, tuple[int, ...]]:
    """(n, m, s, R): R a union of atoms of one scan level with some multiples
    of m, and s a shift whose image of R is circulant."""
    n, m = draw(st.sampled_from(COMPOSITION_ORDERS))
    atoms = _nonmultiple_atoms(n, m, draw(st.sampled_from(_levels(n, m))))
    chosen = draw(st.sets(st.sampled_from(atoms), min_size=1))
    mults = draw(st.sets(st.sampled_from(range(m, n // 2 + 1, m)), max_size=3))
    jumps = tuple(sorted({j for atom in chosen for j in atom} | mults))
    hits = [s for s in range(n // m) if rule_theta_image(n, m, s, jumps) is not None]
    return n, m, draw(st.sampled_from(hits)), jumps


class TestComposition:
    """theta keeps x mod m, so theta_u after theta_s is theta_{s+u} with the
    shift taken mod n/m. The scan's theta classes rest on this law."""

    @pytest.mark.parametrize("n", [8, 16, 27, 54])
    def test_vertex_maps_compose(self, n):
        m = valid_block_moduli(n)[0]
        k = n // m
        maps = [theta_vertex_map(ThetaParams(n, m, t)) for t in range(k)]
        for s in range(k):
            for u in range(k):
                composed = tuple(maps[u][maps[s][x]] for x in range(n))
                assert composed == maps[(s + u) % k], (n, s, u)

    @settings(max_examples=150)
    @given(circulant_theta_hits(), st.data())
    def test_images_compose(self, hit, data):
        n, m, s, jumps = hit
        u = data.draw(st.integers(0, n // m - 1))
        image = rule_theta_image(n, m, s, jumps)
        assert rule_theta_image(n, m, u, image.jumps) == rule_theta_image(
            n, m, (s + u) % (n // m), jumps
        )
