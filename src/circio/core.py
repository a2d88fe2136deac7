"""Connection sets, circulant graphs, and the edge-level circulancy test.

A connection set is the reduced jump list of a circulant graph: every jump
lives in [1, n//2] and the list is strictly increasing. All constructors
funnel through reflexive_reduce so the invariants hold everywhere else.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering
from typing import Iterable, Optional, Sequence

from .errors import ZeroJump

_CS_TEXT = re.compile(r"^\s*C\s*([0-9]+)\s*\(\s*((?:[0-9]+(?:\s*,\s*[0-9]+)*)?)\s*\)\s*$")

_set = object.__setattr__


class _Value:
    """Base of circio's immutable value types.

    A subclass names its fields in _fields, gives each a slot, and sets them
    in its __init__ with object.__setattr__ (or _init). Instances of one
    class compare and hash as the tuple of their fields and print as
    Name(field=value, ...). Declaring one generates no code at import, a
    cost every circio command would pay.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), self._values()


@total_ordering
class ConnectionSet(_Value):
    """Reduced jump set of C_n(jumps). Immutable, hashable, and ordered by
    (n, jumps)."""

    __slots__ = _fields = ("n", "jumps")
    n: int
    jumps: tuple[int, ...]

    def __init__(self, n: int, jumps: tuple[int, ...]) -> None:
        if n < 2:
            raise ValueError(f"order must be >= 2, got {n}")
        half = n // 2
        prev = 0
        for j in jumps:
            if not (1 <= j <= half):
                raise ValueError(f"jump {j} outside [1, {half}] for n={n}")
            if j <= prev:
                raise ValueError("jumps must be strictly increasing")
            prev = j
        _set(self, "n", n)
        _set(self, "jumps", jumps)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.n == other.n and self.jumps == other.jumps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.jumps))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.n, self.jumps) < (other.n, other.jumps)
        return NotImplemented

    def __str__(self) -> str:
        return _set_text(self.n, map(str, self.jumps))

    @classmethod
    def parse(cls, text: str) -> "ConnectionSet":
        """Parse the text form "C<n>(j1,j2,...)": one integer per
        comma-separated item, whitespace tolerant. "C<n>()", which str
        prints for a set with no jumps, is that set."""
        m = _CS_TEXT.match(text)
        if m is None:
            raise ValueError(f"not a connection set literal: {text!r}")
        items = m.group(2).split(",") if m.group(2) else []
        return reflexive_reduce(map(int, items), int(m.group(1)))


def _set_text(n: int, jump_texts: Iterable[str]) -> str:
    """The text form C<n>(j1,j2,...) from the jumps' decimal texts: str
    writes it, and so does the record renderer in export.py."""
    return f"C{n}({','.join(jump_texts)})"


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


class CirculantGraph(_Value):
    """C_n(R): vertex set Z_n, x ~ y iff reduce(y - x) in R."""

    __slots__ = _fields = ("cs",)
    cs: ConnectionSet

    def __init__(self, cs: ConnectionSet) -> None:
        _set(self, "cs", cs)

    @property
    def n(self) -> int:
        return self.cs.n

    @property
    def degree(self) -> int:
        n, jumps = self.cs.n, self.cs.jumps
        return 2 * len(jumps) - (1 if n % 2 == 0 and n // 2 in jumps else 0)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists, indexed by vertex."""
        n = self.cs.n
        diffs = full_difference_set(self.cs)
        return tuple(tuple(sorted((x + d) % n for d in diffs)) for x in range(n))

    def __str__(self) -> str:
        return str(self.cs)


class EdgeImage(_Value):
    """Image of an edge set under a vertex map; pairs stored as (min, max)."""

    __slots__ = _fields = ("n", "pairs")
    n: int
    pairs: frozenset[tuple[int, int]]

    def __init__(self, n: int, pairs: frozenset[tuple[int, int]]) -> None:
        for a, b in pairs:
            if not (0 <= a < b < n):
                raise ValueError(f"bad pair ({a},{b}) for n={n}")
        self._init(n, pairs)


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


def first_spectral_gap(a: Sequence[float], b: Sequence[float]) -> Optional[int]:
    """Index of the first eigenvalue pair more than 1e-9 apart, or None if cospectral."""
    if len(a) != len(b):
        return 0
    return next((i for i, (x, y) in enumerate(zip(a, b)) if abs(x - y) > 1e-9), None)
