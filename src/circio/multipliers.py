"""Unit multipliers and their orbits on connection sets.

Multiplying every jump by a unit x (then reducing) is the first way two
connection sets on the same order can describe isomorphic graphs. The orbit
of a set under all units is the equivalence class for that mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import ConnectionSet, reflexive_reduce
from .errors import NotAUnit, OrderMismatch, WitnessMismatch


@dataclass(frozen=True)
class AdamOrbit:
    """Orbit of a connection set under all unit multipliers.

    members are sorted lexicographically by jump sequence; members[0] is the
    canonical representative.
    """

    n: int
    members: tuple[ConnectionSet, ...]

    @property
    def canonical(self) -> ConnectionSet:
        return self.members[0]

    def __contains__(self, cs: object) -> bool:
        return cs in self.members


def units(n: int) -> tuple[int, ...]:
    """Residues in [1, n) coprime to n, ascending."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    return tuple(x for x in range(1, n) if math.gcd(x, n) == 1)


def multiply_set(cs: ConnectionSet, x: int) -> ConnectionSet:
    """Jump-wise multiplication by a unit, reduced back to [1, n//2]."""
    n = cs.n
    if math.gcd(x % n, n) != 1:
        raise NotAUnit(f"{x} is not a unit mod {n}")
    out = reflexive_reduce([x * j for j in cs.jumps], n)
    # Units permute the difference residues, so the size never changes.
    if len(out.jumps) != len(cs.jumps):
        raise WitnessMismatch(f"{x}*{cs} reduced to {out}, which has another size")
    return out


def adam_orbit(cs: ConnectionSet) -> AdamOrbit:
    """All unit multiples of cs. Always contains cs itself."""
    seen = {multiply_set(cs, x) for x in units(cs.n)}
    return AdamOrbit(cs.n, tuple(sorted(seen, key=lambda c: c.jumps)))


def carrying_units(a: ConnectionSet, b: ConnectionSet) -> Iterator[int]:
    """The units x with x*a = b, ascending."""
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    if len(a.jumps) != len(b.jumps):
        return
    for x in units(a.n):
        if multiply_set(a, x) == b:
            yield x


def is_adam_equivalent(a: ConnectionSet, b: ConnectionSet) -> Optional[int]:
    """Smallest unit x with x*a = b, or None when no multiplier works."""
    return next(carrying_units(a, b), None)
