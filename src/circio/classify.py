"""Pair and tuple classification: multiplier first, then theta, then oracle.

The verdict vocabulary mirrors the tables this package reproduces: a tuple
is T1 exactly when every member lies in the unit-multiplier orbit of its
first member (orbits are equivalence classes, so every pair is then
multiplied), and T2 when theta witnesses link everything but at least one
pair has no multiplier witness. type1_verdict is the one place that rule is
decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import CirculantGraph, ConnectionSet
from .errors import InvalidParams, OrderMismatch
from .multipliers import AdamOrbit, adam_orbit, is_adam_equivalent
from .oracle import DEFAULT_BUDGET, isomorphic
from .theta import _has_multiple, theta_image, theta_scan, valid_block_moduli

TYPE1 = "type1"
TYPE2 = "type2"
NON_ISOMORPHIC = "non-isomorphic"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Classification:
    """Exactly one verdict; witness fields for the others stay None."""

    kind: str
    orbit: AdamOrbit
    unit: Optional[int] = None
    m: Optional[int] = None
    t: Optional[int] = None
    chain: Optional[tuple[ConnectionSet, ...]] = None
    certificate: Optional[str] = None
    reason: Optional[str] = None

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

    def to_json(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.unit is not None:
            out["unit"] = self.unit
        if self.m is not None:
            out["m"] = self.m
        if self.t is not None:
            out["t"] = self.t
        if self.chain is not None:
            out["chain"] = [str(c) for c in self.chain]
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.reason is not None:
            out["reason"] = self.reason
        out["orbit"] = [str(c) for c in self.orbit.members]
        return out


@dataclass(frozen=True, eq=False)
class TupleRecord:
    members: tuple[ConnectionSet, ...]
    theta_images: dict[int, ConnectionSet]
    verdict: Classification

    def to_json(self) -> dict:
        return {
            "members": [str(c) for c in self.members],
            "theta_images": {str(t): str(img) for t, img in sorted(self.theta_images.items())},
            "verdict": self.verdict.to_json(),
        }


def type1_verdict(
    members: Sequence[ConnectionSet], orbit: AdamOrbit
) -> Optional[Classification]:
    """T1 when every member lies in orbit, the orbit of members[0]; else None.

    The unit reported is the smallest one carrying members[0] onto members[1].
    """
    if not all(cs in orbit for cs in members):
        return None
    return Classification(
        kind=TYPE1, orbit=orbit, unit=is_adam_equivalent(members[0], members[1])
    )


def _theta_pair_witness(
    a: ConnectionSet, b: ConnectionSet
) -> Optional[tuple[int, int]]:
    """Smallest (m, t) with theta_image(a, m, t) = b, honoring eligibility."""
    if len(a.jumps) != len(b.jumps) or len(a.jumps) < 3:
        return None
    for m in valid_block_moduli(a.n):
        # theta fixes multiples of m, so a and b must carry the same ones.
        fixed = {j for j in a.jumps if j % m == 0}
        if not fixed or fixed != {j for j in b.jumps if j % m == 0}:
            continue
        for t in range(1, a.n // m):
            if theta_image(a, m, t) == b:
                return (m, t)
    return None


def classify_pair(
    a: ConnectionSet, b: ConnectionSet, budget: int = DEFAULT_BUDGET
) -> Classification:
    """Type1, else Type2 (ascending m then t), else ask the oracle."""
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    if a == b:
        raise InvalidParams("classify_pair requires two distinct sets")
    orbit = adam_orbit(a)
    return type1_verdict((a, b), orbit) or _linked_verdict((a, b), orbit, budget)


def _linked_verdict(
    members: tuple[ConnectionSet, ...], orbit: AdamOrbit, budget: int
) -> Classification:
    """T2, non-isomorphic or unknown for members that are not T1.

    Pairs without a multiplier need a theta witness (ascending m then t).
    Pairs with neither go to the oracle in order; the first non-isomorphic
    or timeout verdict decides, and an all-isomorphic answer is unknown.
    """
    first_theta: Optional[tuple[int, int]] = None
    unlinked: list[tuple[ConnectionSet, ConnectionSet]] = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if is_adam_equivalent(members[i], members[j]) is not None:
                continue
            hit = _theta_pair_witness(members[i], members[j])
            if hit is None:
                unlinked.append((members[i], members[j]))
            elif first_theta is None:
                first_theta = hit
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


def classify_tuple(
    members: Sequence[ConnectionSet], budget: int = DEFAULT_BUDGET
) -> TupleRecord:
    """Classify 2 or more sets the way the tables do.

    T1 needs every member in the orbit of the first (type1_verdict); T2
    needs every pair witnessed (multiplier or theta) otherwise.
    """
    members = tuple(members)
    if len(members) < 2:
        raise InvalidParams("need at least two members")
    n = members[0].n
    for cs in members[1:]:
        if cs.n != n:
            raise OrderMismatch("tuple members must share one order")
    if len(set(members)) != len(members):
        raise InvalidParams("tuple members must be pairwise distinct")

    orbit = adam_orbit(members[0])
    verdict = type1_verdict(members, orbit) or _linked_verdict(members, orbit, budget)

    theta_images: dict[int, ConnectionSet] = {}
    base = members[0]
    rest = set(members[1:])
    for m in valid_block_moduli(n):
        if not _has_multiple(base, m):
            continue
        for t, img in theta_scan(base, m):
            if img in rest:
                theta_images[t] = img
        if theta_images:
            break
    return TupleRecord(members=members, theta_images=theta_images, verdict=verdict)
