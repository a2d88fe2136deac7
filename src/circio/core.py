"""Connection sets, circulant graphs, and the edge-level circulancy test.

A connection set is the reduced jump list of a circulant graph: every jump
lives in [1, n//2] and the list is strictly increasing. All constructors
funnel through reflexive_reduce so the invariants hold everywhere else.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import ZeroJump

_CS_TEXT = re.compile(r"^\s*C\s*(\d+)\s*\(\s*([0-9,\s]*?)\s*\)\s*$")


@dataclass(frozen=True, order=True)
class ConnectionSet:
    """Reduced jump set of C_n(jumps). Immutable and hashable."""

    n: int
    jumps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"order must be >= 2, got {self.n}")
        half = self.n // 2
        prev = 0
        for j in self.jumps:
            if not (1 <= j <= half):
                raise ValueError(f"jump {j} outside [1, {half}] for n={self.n}")
            if j <= prev:
                raise ValueError("jumps must be strictly increasing")
            prev = j

    def __str__(self) -> str:
        return f"C{self.n}({','.join(str(j) for j in self.jumps)})"

    @classmethod
    def parse(cls, text: str) -> "ConnectionSet":
        """Parse the text form "C<n>(j1,j2,...)", whitespace tolerant."""
        m = _CS_TEXT.match(text)
        if m is None:
            raise ValueError(f"not a connection set literal: {text!r}")
        n = int(m.group(1))
        body = m.group(2)
        raw = [int(p) for p in body.split(",") if p.strip()] if body.strip() else []
        if not raw:
            raise ValueError("empty connection set")
        return reflexive_reduce(raw, n)


def reflexive_reduce(raw: Iterable[int], n: int) -> ConnectionSet:
    """Reduce raw jumps into [1, n//2], sorted and deduplicated.

    Raises ZeroJump if any value is 0 mod n (a loop, not representable).
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    out = set()
    for r in raw:
        v = r % n
        if v == 0:
            raise ZeroJump(f"jump {r} is 0 mod {n}")
        out.add(min(v, n - v))
    return ConnectionSet(n, tuple(sorted(out)))


def full_difference_set(cs: ConnectionSet) -> tuple[int, ...]:
    """All residues d in (0, n) with reduced form in cs; n/2 appears once."""
    n = cs.n
    out = set()
    for s in cs.jumps:
        out.add(s)
        out.add(n - s)
    return tuple(sorted(out))


@dataclass(frozen=True)
class CirculantGraph:
    """C_n(R): vertex set Z_n, x ~ y iff reduce(y - x) in R."""

    cs: ConnectionSet

    @property
    def n(self) -> int:
        return self.cs.n

    @property
    def degree(self) -> int:
        n, jumps = self.cs.n, self.cs.jumps
        return 2 * len(jumps) - (1 if n % 2 == 0 and n // 2 in jumps else 0)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Unordered edges as (min, max) pairs."""
        n = self.cs.n
        out = set()
        for x in range(n):
            for s in self.cs.jumps:
                y = (x + s) % n
                out.add((x, y) if x < y else (y, x))
        return frozenset(out)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists, indexed by vertex."""
        n = self.cs.n
        diffs = full_difference_set(self.cs)
        return tuple(tuple(sorted((x + d) % n for d in diffs)) for x in range(n))

    def __str__(self) -> str:
        return str(self.cs)


@dataclass(frozen=True)
class EdgeImage:
    """Image of an edge set under a vertex map; pairs stored as (min, max)."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if not (0 <= a < b < self.n):
                raise ValueError(f"bad pair ({a},{b}) for n={self.n}")


def is_circulant(img: EdgeImage) -> Optional[ConnectionSet]:
    """Return S with C_n(S) = img if adjacency is rotation invariant.

    None means the image is not circulant. The check walks every pair once;
    membership is O(1). theta computes its images on jumps; this edge-level
    test is the reference the tests compare them against.
    """
    n = img.n
    pairs = img.pairs
    for a, b in pairs:
        a1, b1 = (a + 1) % n, (b + 1) % n
        key = (a1, b1) if a1 < b1 else (b1, a1)
        if key not in pairs:
            return None
    base = [b for a, b in pairs if a == 0]
    if not base:
        return None
    return reflexive_reduce(base, n)


def adjacency_spectrum(cs: ConnectionSet) -> list[float]:
    """Eigenvalues of C_n(cs), ascending: the closed form sum over the jumps
    of 2cos(2.0 * math.pi * k * s / n), each angle formed left to right."""
    n = cs.n
    lam = [0.0] * n
    for s in cs.jumps:
        if 2 * s == n:
            terms = [math.cos(math.pi * k) for k in range(n)]
        else:
            terms = [2.0 * math.cos(2.0 * math.pi * k * s / n) for k in range(n)]
        lam = [x + y for x, y in zip(lam, terms)]
    lam.sort()
    return lam


def first_spectral_gap(a: Sequence[float], b: Sequence[float], tol: float = 1e-9) -> Optional[int]:
    """Index of the first eigenvalue disagreement, or None if cospectral."""
    if len(a) != len(b):
        return 0
    for i, (x, y) in enumerate(zip(a, b)):
        if abs(x - y) > tol:
            return i
    return None
