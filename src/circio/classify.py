"""Pair and tuple classification: multiplier first, then theta, then oracle.

The verdict vocabulary mirrors the tables this package reproduces: a tuple
is T1 exactly when every member lies in the unit-multiplier orbit of its
first member (orbits are equivalence classes, so every pair is then
multiplied), and T2 when theta witnesses link everything but at least one
pair has no multiplier witness. type1_verdict is the one place the T1 rule
is decided, and _verdict the one place every verdict is: classify_pair is
its two-member case.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import CirculantGraph, ConnectionSet, _set, _Value
from .errors import InvalidParams, OrderMismatch
from .multipliers import adam_orbit, is_adam_equivalent
from .oracle import DEFAULT_BUDGET, isomorphic
from .theta import _carries, _multiples, jump_hits, valid_block_moduli

TYPE1 = "type1"
TYPE2 = "type2"
NON_ISOMORPHIC = "non-isomorphic"
UNKNOWN = "unknown"


class Classification(_Value):
    """Exactly one verdict; witness fields for the others stay None."""

    __slots__ = _fields = ("kind", "orbit", "unit", "m", "t", "chain", "certificate", "reason")
    kind: str
    orbit: tuple[ConnectionSet, ...]
    unit: Optional[int]
    m: Optional[int]
    t: Optional[int]
    chain: Optional[tuple[ConnectionSet, ...]]
    certificate: Optional[str]
    reason: Optional[str]

    def __init__(
        self,
        kind: str,
        orbit: tuple[ConnectionSet, ...],
        unit: Optional[int] = None,
        m: Optional[int] = None,
        t: Optional[int] = None,
        chain: Optional[tuple[ConnectionSet, ...]] = None,
        certificate: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "orbit", orbit)
        _set(self, "unit", unit)
        _set(self, "m", m)
        _set(self, "t", t)
        _set(self, "chain", chain)
        _set(self, "certificate", certificate)
        _set(self, "reason", reason)

    @property
    def table_verdict(self) -> str:
        """The tables' two-letter column, where it applies."""
        return {TYPE1: "T1", TYPE2: "T2"}.get(self.kind, self.kind)

    def describe(self) -> str:
        if self.kind == TYPE1:
            return f"Type1 x={self.unit}"
        if self.kind == TYPE2:
            return f"Type2 m={self.m} t={self.t}"
        if self.kind == NON_ISOMORPHIC:
            return f"NonIsomorphic {self.certificate}"
        return f"Unknown {self.reason}"

    def fields(self) -> list[tuple[str, object]]:
        """The JSON layout, key by key: verdict, each witness field that is
        set, then orbit. Sets stay ConnectionSets; to_json and the record
        renderer in export.py each render this one list."""
        out: list[tuple[str, object]] = [("verdict", self.kind)]
        for key in ("unit", "m", "t", "chain", "certificate", "reason"):
            value = getattr(self, key)
            if value is not None:
                out.append((key, value))
        out.append(("orbit", self.orbit))
        return out

    def to_json(self) -> dict:
        return {
            key: [str(c) for c in value] if isinstance(value, tuple) else value
            for key, value in self.fields()
        }


class TupleRecord(_Value):
    """Compares and hashes by identity."""

    __slots__ = _fields = ("members", "theta_images", "verdict")
    members: tuple[ConnectionSet, ...]
    theta_images: dict[int, ConnectionSet]
    verdict: Classification

    def __init__(
        self,
        members: tuple[ConnectionSet, ...],
        theta_images: dict[int, ConnectionSet],
        verdict: Classification,
    ) -> None:
        _set(self, "members", members)
        _set(self, "theta_images", theta_images)
        _set(self, "verdict", verdict)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def to_json(self) -> dict:
        return {
            "members": [str(c) for c in self.members],
            "theta_images": {str(t): str(img) for t, img in sorted(self.theta_images.items())},
            "verdict": self.verdict.to_json(),
        }


def type1_verdict(
    members: Sequence[ConnectionSet], orbit: tuple[ConnectionSet, ...]
) -> Optional[Classification]:
    """T1 when every member lies in orbit, the orbit of members[0]; else None.

    The unit reported is the smallest one carrying members[0] onto members[1].
    """
    if not all(cs in orbit for cs in members):
        return None
    return Classification(
        kind=TYPE1, orbit=orbit, unit=is_adam_equivalent(members[0], members[1])
    )


def _theta_moduli(a: ConnectionSet) -> list[int]:
    """The valid moduli m of which a holds a multiple, ascending: where theta
    is defined for a, so jump_hits needs no further validation there."""
    return [m for m in valid_block_moduli(a.n) if _multiples(a, m)]


def _theta_link(a: ConnectionSet, b: ConnectionSet) -> Optional[tuple[int, int]]:
    """Smallest (m, t) at which the theta image of a is b, or None.

    b is eligible at m when a and b have as many jumps, at least three, and
    the same nonempty set of multiples of m, which theta fixes. The search
    builds no image at an m where b is not eligible, and stops at the link.
    """
    if len(b.jumps) != len(a.jumps) or len(a.jumps) < 3:
        return None
    for m in _theta_moduli(a):
        if _multiples(b, m) == _multiples(a, m):
            for t, img in jump_hits(a.n, m, a.jumps):
                if img == b:
                    return m, t
    return None


def _verdict(members: tuple[ConnectionSet, ...], budget: int) -> Classification:
    """The verdict on two or more pairwise distinct sets of one order.

    T1 needs every member in the orbit of the first (type1_verdict). Else
    every pair (i < j) without a multiplier needs a theta link, and the
    first linked pair in (i, j) order gives the reported (m, t); each link
    is certified edge by edge (theta._carries) before it counts. Pairs with
    neither go to the oracle in (i, j) order; the first non-isomorphic or
    timeout answer decides, and an all-isomorphic answer is unknown.
    """
    if len(members) < 2:
        raise InvalidParams("need at least two members")
    n = members[0].n
    for cs in members[1:]:
        if cs.n != n:
            raise OrderMismatch(f"orders differ: {n} vs {cs.n}")
    if len(set(members)) != len(members):
        raise InvalidParams("members must be pairwise distinct")
    orbit = adam_orbit(members[0])
    verdict = type1_verdict(members, orbit)
    if verdict is not None:
        return verdict
    first_theta: Optional[tuple[int, int]] = None
    unlinked: list[tuple[ConnectionSet, ConnectionSet]] = []
    for i, a in enumerate(members[:-1]):
        # Ádám equivalence of a pair is membership in the first one's orbit.
        own_orbit = orbit if i == 0 else adam_orbit(a)
        for b in members[i + 1:]:
            if b in own_orbit:
                continue
            link = _theta_link(a, b)
            if link is None:
                unlinked.append((a, b))
                continue
            _carries(a, b, *link)
            if first_theta is None:
                first_theta = link
    if not unlinked:
        # Not T1, so some pair has no multiplier and first_theta is set.
        m, t = first_theta
        return Classification(kind=TYPE2, orbit=orbit, m=m, t=t, chain=members)
    for a, b in unlinked:
        iso = isomorphic(CirculantGraph(a), CirculantGraph(b), budget)
        if iso.kind == "non-isomorphic":
            return Classification(
                kind=NON_ISOMORPHIC, orbit=orbit, certificate=iso.certificate
            )
        if iso.kind == "timeout":
            return Classification(kind=UNKNOWN, orbit=orbit, reason="budget")
    return Classification(
        kind=UNKNOWN,
        orbit=orbit,
        reason="isomorphic, no Type-1/Type-2 witness found",
    )


def classify_pair(
    a: ConnectionSet, b: ConnectionSet, budget: int = DEFAULT_BUDGET
) -> Classification:
    """The two-member case of classify_tuple's verdict."""
    return _verdict((a, b), budget)


def classify_tuple(
    members: Sequence[ConnectionSet], budget: int = DEFAULT_BUDGET
) -> TupleRecord:
    """Classify 2 or more sets the way the tables do (see _verdict), with
    the theta images of the first member that are other members, at the
    smallest m that has any."""
    members = tuple(members)
    verdict = _verdict(members, budget)

    rest = set(members[1:])
    theta_images: dict[int, ConnectionSet] = {}
    first = members[0]
    for m in _theta_moduli(first):
        theta_images = {t: img for t, img in jump_hits(first.n, m, first.jumps) if img in rest}
        if theta_images:
            break
    return TupleRecord(members=members, theta_images=theta_images, verdict=verdict)
