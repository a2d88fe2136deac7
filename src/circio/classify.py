"""Pair and tuple classification: multiplier first, then theta, then oracle.

The verdict vocabulary mirrors the tables this package reproduces: a tuple
is T1 exactly when the unit-multiplier orbit of its first member equals the
member set, and T2 when theta witnesses link everything but at least one
pair has no multiplier witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import CirculantGraph, ConnectionSet
from .errors import InvalidParams, OrderMismatch
from .multipliers import AdamOrbit, adam_orbit, is_adam_equivalent
from .oracle import DEFAULT_BUDGET, isomorphic
from .theta import theta_image, theta_params_valid, theta_scan, valid_block_moduli

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
    x = is_adam_equivalent(a, b)
    if x is not None:
        return Classification(kind=TYPE1, orbit=orbit, unit=x)
    hit = _theta_pair_witness(a, b)
    if hit is not None:
        m, t = hit
        return Classification(kind=TYPE2, orbit=orbit, m=m, t=t, chain=(a, b))
    verdict = isomorphic(CirculantGraph(a), CirculantGraph(b), budget)
    if verdict.kind == "non-isomorphic":
        return Classification(
            kind=NON_ISOMORPHIC, orbit=orbit, certificate=verdict.certificate
        )
    if verdict.kind == "timeout":
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

    T2 needs every pair witnessed (multiplier or theta) with at least one
    pair having only a theta witness; T1 needs every pair multiplied.
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
    all_adam = True
    all_witnessed = True
    first_theta: Optional[tuple[int, int]] = None
    unit_01: Optional[int] = None
    unlinked: list[tuple[ConnectionSet, ConnectionSet]] = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            x = is_adam_equivalent(members[i], members[j])
            if i == 0 and j == 1:
                unit_01 = x
            if x is not None:
                continue
            all_adam = False
            hit = _theta_pair_witness(members[i], members[j])
            if hit is None:
                all_witnessed = False
                unlinked.append((members[i], members[j]))
            elif first_theta is None:
                first_theta = hit

    if all_adam:
        verdict = Classification(kind=TYPE1, orbit=orbit, unit=unit_01)
    elif all_witnessed:
        m, t = first_theta
        verdict = Classification(kind=TYPE2, orbit=orbit, m=m, t=t, chain=members)
    else:
        verdict = None
        for a, b in unlinked:
            iso = isomorphic(CirculantGraph(a), CirculantGraph(b), budget)
            if iso.kind == "non-isomorphic":
                verdict = Classification(
                    kind=NON_ISOMORPHIC, orbit=orbit, certificate=iso.certificate
                )
                break
            if iso.kind == "timeout":
                verdict = Classification(kind=UNKNOWN, orbit=orbit, reason="budget")
                break
        if verdict is None:
            verdict = Classification(
                kind=UNKNOWN,
                orbit=orbit,
                reason="isomorphic, no Type-1/Type-2 witness found",
            )

    theta_images: dict[int, ConnectionSet] = {}
    base = members[0]
    rest = set(members[1:])
    for m in valid_block_moduli(n):
        if not theta_params_valid(n, m, base):
            continue
        for t, img in theta_scan(base, m):
            if img in rest:
                theta_images[t] = img
        if theta_images:
            break
    return TupleRecord(members=members, theta_images=theta_images, verdict=verdict)
