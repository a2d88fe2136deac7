"""Oracle verdicts for the open non-isomorphism questions at orders 48 and 54.

Each probed pair goes to the canonical-labeling oracle; its verdict carries
its certificate and is never presumed.
"""

from __future__ import annotations

from itertools import combinations

from .core import CirculantGraph, ConnectionSet, _Value, reflexive_reduce
from .oracle import IsoVerdict, isomorphic


# Each member's fixed jumps; a probe adds its s to every member.
_PROBE_PAIRS_48 = {
    "n48-a": ((1, 23), (11, 13)),
    "n48-b": ((5, 19), (7, 17)),
}
_PROBE_S_48 = (3, 9, 15, 21)
_PROBE_TRIPLE_54 = ((1, 17, 19), (5, 13, 23), (7, 11, 25))
_PROBE_S_54 = (2, 4, 8, 10, 14, 16, 20, 22, 26)


class ProbeEntry(_Value):
    __slots__ = _fields = ("group", "s", "left", "right", "verdict")
    group: str
    s: int
    left: ConnectionSet
    right: ConnectionSet
    verdict: IsoVerdict

    def __init__(
        self, group: str, s: int, left: ConnectionSet, right: ConnectionSet, verdict: IsoVerdict
    ) -> None:
        self._init(group, s, left, right, verdict)

    def describe(self) -> str:
        return (
            f"{self.group} s={self.s}: {self.left} vs {self.right} -> "
            f"{self.verdict.serialize()}"
        )

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "s": self.s,
            "left": str(self.left),
            "right": str(self.right),
            "verdict": self.verdict.serialize(),
        }


class ProbeReport(_Value):
    __slots__ = _fields = ("entries",)
    entries: tuple[ProbeEntry, ...]

    def __init__(self, entries: tuple[ProbeEntry, ...]) -> None:
        self._init(entries)

    def to_json(self) -> dict:
        return {"entries": [e.to_json() for e in self.entries]}

    def summary(self) -> str:
        return "\n".join(e.describe() for e in self.entries)


def probe_open_problems() -> ProbeReport:
    """Oracle verdicts for the undecided non-isomorphism questions.

    Two shapes: order-48 pairs over s in {3,9,15,21} and order-54 triples
    (checked pairwise) over the nine even s with gcd(54, s) not divisible
    by 3. Verdicts are reported with certificates, never presumed. Every
    probe ends on its spectrum, before any canonical search.
    """
    pairs = [
        (group, s, reflexive_reduce([*left, s], 48), reflexive_reduce([*right, s], 48))
        for group, (left, right) in _PROBE_PAIRS_48.items()
        for s in _PROBE_S_48
    ]
    for s in _PROBE_S_54:
        triple = [reflexive_reduce([*fixed, s], 54) for fixed in _PROBE_TRIPLE_54]
        pairs += [
            (f"n54-triple[{i}{j}]", s, triple[i], triple[j]) for i, j in combinations(range(3), 2)
        ]
    entries = tuple(
        ProbeEntry(group, s, a, b, isomorphic(CirculantGraph(a), CirculantGraph(b)))
        for group, s, a, b in pairs
    )
    return ProbeReport(entries=entries)
