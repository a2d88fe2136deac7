"""Unit multipliers, orbits, and the published identity checks."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import circio.multipliers as multipliers_mod
from circio import (
    ConnectionSet,
    Intractable,
    NotAUnit,
    OrderMismatch,
    WitnessMismatch,
    adam_orbit,
    is_adam_equivalent,
)
from circio.multipliers import MAX_UNIT_ORDER, carrying_half_units, multiply_set, units
from helpers import connection_sets, cs

# Each entry: source text, then (x, product text) twice. These are the six
# worked multiplier items, each certifying one Type-1 triple at order 54.
MULTIPLIER_IDENTITIES = [
    ("C54(1,9,17,19)", (5, "C54(5,9,13,23)"), (7, "C54(7,9,11,25)")),
    ("C54(1,17,18,19)", (5, "C54(5,13,18,23)"), (7, "C54(7,11,18,25)")),
    ("C54(1,17,19,27)", (5, "C54(5,13,23,27)"), (7, "C54(7,11,25,27)")),
    ("C54(2,9,16,20)", (7, "C54(4,9,14,22)"), (5, "C54(8,9,10,26)")),
    ("C54(2,16,18,20)", (7, "C54(4,14,18,22)"), (5, "C54(8,10,18,26)")),
    ("C54(2,16,20,27)", (7, "C54(4,14,22,27)"), (5, "C54(8,10,26,27)")),
]

# The twelve published order-54 orbits: source text -> full orbit as texts.
ORBIT_IDENTITIES = {
    "C54(1,3,17,19)": {"C54(1,3,17,19)", "C54(5,13,15,23)", "C54(7,11,21,25)"},
    "C54(1,6,17,19)": {"C54(1,6,17,19)", "C54(5,13,23,24)", "C54(7,11,12,25)"},
    "C54(1,12,17,19)": {"C54(1,12,17,19)", "C54(5,6,13,23)", "C54(7,11,24,25)"},
    "C54(1,15,17,19)": {"C54(1,15,17,19)", "C54(5,13,21,23)", "C54(3,7,11,25)"},
    "C54(1,17,19,21)": {"C54(1,17,19,21)", "C54(3,5,13,23)", "C54(7,11,15,25)"},
    "C54(1,17,19,24)": {"C54(1,17,19,24)", "C54(5,12,13,23)", "C54(6,7,11,25)"},
    "C54(2,3,16,20)": {"C54(2,3,16,20)", "C54(8,10,15,26)", "C54(4,14,21,22)"},
    "C54(2,6,16,20)": {"C54(2,6,16,20)", "C54(8,10,24,26)", "C54(4,12,14,22)"},
    "C54(2,12,16,20)": {"C54(2,12,16,20)", "C54(6,8,10,26)", "C54(4,14,22,24)"},
    "C54(2,15,16,20)": {"C54(2,15,16,20)", "C54(8,10,21,26)", "C54(3,4,14,22)"},
    "C54(2,16,20,21)": {"C54(2,16,20,21)", "C54(3,8,10,26)", "C54(4,14,15,22)"},
    "C54(2,16,20,24)": {"C54(2,16,20,24)", "C54(8,10,12,26)", "C54(4,6,14,22)"},
}


class TestUnits:
    def test_units_16(self):
        assert units(16) == (1, 3, 5, 7, 9, 11, 13, 15)

    def test_units_54_count(self):
        assert len(units(54)) == 18
        assert all(u % 2 and u % 3 for u in units(54))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            units(1)


class TestMultiplySet:
    @pytest.mark.parametrize("source,first,second", MULTIPLIER_IDENTITIES)
    def test_published_identities(self, source, first, second):
        for x, product in (first, second):
            assert multiply_set(cs(source), x) == cs(product)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            multiply_set(cs("C54(1,3)"), 6)

    @given(connection_sets(max_n=50), st.integers(1, 200))
    def test_preserves_cardinality(self, a, k):
        us = units(a.n)
        x = us[k % len(us)]
        assert len(multiply_set(a, x).jumps) == len(a.jumps)

    def test_size_change_raises_witness_mismatch(self, monkeypatch):
        monkeypatch.setattr(
            multipliers_mod, "reflexive_reduce", lambda raw, n: ConnectionSet(n, (1,))
        )
        with pytest.raises(WitnessMismatch):
            multiply_set(cs("C54(1,3)"), 5)

    @given(connection_sets(max_n=50), st.integers(1, 200))
    def test_x_and_minus_x_agree(self, a, k):
        us = units(a.n)
        x = us[k % len(us)]
        assert multiply_set(a, x) == multiply_set(a, a.n - x)


class TestAdamOrbit:
    @pytest.mark.parametrize("source,expected", sorted(ORBIT_IDENTITIES.items()))
    def test_published_orbits(self, source, expected):
        got = {str(m) for m in adam_orbit(cs(source))}
        assert got == expected

    @pytest.mark.parametrize("source", sorted(ORBIT_IDENTITIES))
    def test_orbit_same_from_every_member(self, source):
        orbit = adam_orbit(cs(source))
        for member in orbit:
            assert adam_orbit(member) == orbit

    def test_contains_self_and_canonical_is_min(self):
        orbit = adam_orbit(cs("C54(1,6,17,19)"))
        assert type(orbit) is tuple
        assert list(orbit) == sorted(orbit, key=lambda c: c.jumps)
        assert cs("C54(1,6,17,19)") in orbit
        assert orbit[0] == min(orbit, key=lambda c: c.jumps)

    def test_symmetry_exhaustive_n16(self):
        # b in orbit(a) <=> orbit(a) == orbit(b), over every set on [1,8].
        all_sets = [
            ConnectionSet(16, combo)
            for k in range(1, 9)
            for combo in combinations(range(1, 9), k)
        ]
        orbits = {a: adam_orbit(a) for a in all_sets}
        phi16 = len(units(16))
        for a in all_sets:
            assert len(orbits[a]) <= phi16
            for b in orbits[a]:
                assert orbits[b] == orbits[a]
                assert a in orbits[b]


class TestUnitCeiling:
    """Above MAX_UNIT_ORDER the unit tables are refused, not built."""

    def test_just_above_raises(self):
        big = ConnectionSet(MAX_UNIT_ORDER + 1, (1, 2))
        with pytest.raises(Intractable, match=f"n <= {MAX_UNIT_ORDER}"):
            adam_orbit(big)
        with pytest.raises(Intractable):
            is_adam_equivalent(big, ConnectionSet(MAX_UNIT_ORDER + 1, (1, 3)))


class TestIsAdamEquivalent:
    def test_finds_smallest_unit(self):
        assert is_adam_equivalent(cs("C54(1,9,17,19)"), cs("C54(5,9,13,23)")) == 5

    def test_published_negative(self):
        base = cs("C54(1,3,17,19)")
        assert is_adam_equivalent(base, cs("C54(3,7,11,25)")) is None
        assert is_adam_equivalent(base, cs("C54(3,5,13,23)")) is None

    def test_identity(self):
        a = cs("C54(1,3,17,19)")
        assert is_adam_equivalent(a, a) == 1

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            is_adam_equivalent(cs("C54(1)"), cs("C27(1)"))

    def test_size_mismatch_short_circuits(self):
        assert is_adam_equivalent(cs("C54(1,3)"), cs("C54(1)")) is None


@st.composite
def same_order_pairs(draw) -> tuple[ConnectionSet, ConnectionSet]:
    """(a, b) on one order; b is a unit multiple of a about half the time."""
    a = draw(connection_sets(max_n=60))
    if draw(st.booleans()):
        us = units(a.n)
        return a, multiply_set(a, us[draw(st.integers(0, len(us) - 1))])
    jumps = draw(st.sets(st.integers(1, a.n // 2), min_size=1))
    return a, ConnectionSet(a.n, tuple(sorted(jumps)))


def every_set(n: int) -> list[ConnectionSet]:
    half = range(1, n // 2 + 1)
    return [ConnectionSet(n, c) for k in range(1, len(half) + 1) for c in combinations(half, k)]


def orbit_by_definition(a: ConnectionSet) -> tuple[ConnectionSet, ...]:
    return tuple(sorted({multiply_set(a, x) for x in units(a.n)}))


def carrying_by_definition(a: ConnectionSet, b: ConnectionSet) -> list[int]:
    return [x for x in units(a.n) if multiply_set(a, x) == b]


def half_carrying_by_definition(a: ConnectionSet, b: ConnectionSet) -> tuple[int, ...]:
    return tuple(x for x in carrying_by_definition(a, b) if 2 * x <= a.n)


class TestUnitTables:
    """The cached per-order tables agree with multiply_set over every unit."""

    @given(connection_sets(max_n=60))
    def test_orbit_is_every_unit_multiple(self, a):
        assert adam_orbit(a) == orbit_by_definition(a)

    @given(same_order_pairs())
    def test_carrying_units_by_definition(self, pair):
        a, b = pair
        expected = carrying_by_definition(a, b)
        assert carrying_half_units(a, b) == half_carrying_by_definition(a, b)
        assert is_adam_equivalent(a, b) == (expected[0] if expected else None)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smallest_orders_exhaustive(self, n):
        sets = every_set(n)
        for a in sets:
            assert adam_orbit(a) == orbit_by_definition(a)
            for b in sets:
                expected = carrying_by_definition(a, b)
                assert carrying_half_units(a, b) == half_carrying_by_definition(a, b)
                assert is_adam_equivalent(a, b) == (expected[0] if expected else None)

    def test_off_the_multiply_set_path(self, monkeypatch):
        def refuse(cs, x):
            pytest.fail("multiply_set called")

        monkeypatch.setattr(multipliers_mod, "multiply_set", refuse)
        a = cs("C54(1,3,9,15,17,19,21,27)")
        assert len(adam_orbit(a)) == 3
        assert is_adam_equivalent(a, a) == 1

    def test_size_change_raises_witness_mismatch(self, monkeypatch):
        # Every jump sent to 1: the images lose jumps.
        monkeypatch.setattr(
            multipliers_mod,
            "_column",
            lambda n, j: tuple(1 for _ in multipliers_mod._half_units(n)),
        )
        a = cs("C54(1,3,17,19)")
        with pytest.raises(WitnessMismatch):
            adam_orbit(a)
        with pytest.raises(WitnessMismatch):
            carrying_half_units(a, cs("C54(5,13,15,23)"))
        with pytest.raises(WitnessMismatch):
            is_adam_equivalent(a, a)

    def test_size_check_runs_on_every_unit(self, monkeypatch):
        # Only the last half unit's image loses a jump, and no image is b, so
        # a size check on the images that match b alone would pass it.
        a, b = cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)")
        column = multipliers_mod._column

        def merged(n, j):
            col = column(n, j)
            if j == a.jumps[1]:
                return col[:-1] + column(n, a.jumps[0])[-1:]
            return col

        monkeypatch.setattr(multipliers_mod, "_column", merged)
        with pytest.raises(WitnessMismatch):
            carrying_half_units(a, b)
        with pytest.raises(WitnessMismatch):
            is_adam_equivalent(a, b)

    @pytest.mark.parametrize(
        "n,half", [(2, (1,)), (16, (1, 3, 5, 7)), (54, (1, 5, 7, 11, 13, 17, 19, 23, 25))]
    )
    def test_sets_with_no_jumps(self, n, half):
        # No jump, no column: every unit carries the empty set onto itself.
        # every_set and connection_sets never draw it.
        empty = ConnectionSet(n, ())
        assert carrying_half_units(empty, empty) == half
        assert is_adam_equivalent(empty, empty) == 1
        assert adam_orbit(empty) == (empty,)

    def test_caches_are_bounded(self):
        for cached in (multipliers_mod._half_units, multipliers_mod._column):
            assert cached.cache_info().maxsize is not None


class TestCarryingUnits:
    @given(connection_sets(max_n=50), st.integers(1, 200))
    def test_exactly_the_carrying_units_ascending(self, a, k):
        us = units(a.n)
        b = multiply_set(a, us[k % len(us)])
        got = carrying_half_units(a, b)
        assert got == half_carrying_by_definition(a, b)
        # The smallest carrying unit is a half unit, so is_adam_equivalent
        # reads it off the half table.
        assert is_adam_equivalent(a, b) == got[0] == carrying_by_definition(a, b)[0]

    def test_published_pair(self):
        # x and n - x always act alike, so units come in pairs: the smallest
        # carrying unit is at most n/2.
        a, b = cs("C54(1,9,17,19)"), cs("C54(5,9,13,23)")
        got = carrying_by_definition(a, b)
        assert got[0] == 5
        assert sorted(54 - x for x in got) == got
        assert carrying_half_units(a, b) == tuple(x for x in got if x <= 27)

    def test_none_for_a_theta_image(self):
        assert carrying_half_units(cs("C54(1,3,17,19)"), cs("C54(3,7,11,25)")) == ()

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            carrying_half_units(cs("C54(1)"), cs("C27(1)"))
