"""Unit multipliers and their orbits on connection sets.

Multiplying every jump by a unit x (then reducing) is the first way two
connection sets on the same order can describe isomorphic graphs. The orbit
of a set under all units is the equivalence class for that mechanism.

x and n - x reduce every jump alike, so the orbit needs only the units
x <= n/2. Their reduced products with each jump j are cached per (n, j) as
one column; the images of a set are the rows of its jumps' columns.
adam_orbit sorts each row into jumps. carrying_half_units sorts none: it
compares each row's set with b's, |a| steps a unit, and like the orbit it
checks that every row keeps |a| distinct jumps, whether or not it is b.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Optional

from .core import ConnectionSet, reflexive_reduce
from .errors import Intractable, NotAUnit, OrderMismatch, WitnessMismatch


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


# Columns kept at once: every (n, j) of all orders up to 80 fits.
_COLUMN_CACHE_SIZE = 2048
# Highest order whose units are listed. The cost is linear in n: the orbit
# of a 3-jump set takes about 1.2 s and 77 MB at n = 10**6.
MAX_UNIT_ORDER = 10**6


@lru_cache(maxsize=64)
def _half_units(n: int) -> tuple[int, ...]:
    """The units x <= n/2, ascending; Intractable above MAX_UNIT_ORDER."""
    if n > MAX_UNIT_ORDER:
        raise Intractable(f"unit multipliers support n <= {MAX_UNIT_ORDER}, got {n}")
    return tuple(x for x in range(1, n // 2 + 1) if math.gcd(x, n) == 1)


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _column(n: int, j: int) -> tuple[int, ...]:
    """x*j reduced to [1, n//2], for each x in _half_units(n)."""
    out = []
    for x in _half_units(n):
        v = x * j % n
        out.append(min(v, n - v))
    return tuple(out)


def _images(cs: ConnectionSet) -> list[tuple[int, ...]]:
    """The jumps of x*cs for each x in _half_units(cs.n), in that order."""
    n = cs.n
    columns = [_column(n, j) for j in cs.jumps]
    if not columns:
        return [()] * len(_half_units(n))
    return list(map(tuple, map(sorted, zip(*columns))))


def _same_size(cs: ConnectionSet, images: Iterable[Iterable[int]]) -> None:
    """Raise WitnessMismatch unless every image has as many jumps as cs."""
    # Units permute the difference residues, so the size never changes.
    # frozenset of a frozenset is that set itself: rows are not copied.
    for img in images:
        if len(frozenset(img)) != len(cs.jumps):
            raise WitnessMismatch(f"a unit multiple of {cs} reduced to {img}, another size")


def adam_orbit(cs: ConnectionSet) -> tuple[ConnectionSet, ...]:
    """All unit multiples of cs, sorted by jumps; [0] is the smallest.
    Always contains cs itself."""
    n = cs.n
    distinct = set(_images(cs))
    _same_size(cs, distinct)
    return tuple([cs if img == cs.jumps else ConnectionSet(n, img) for img in sorted(distinct)])


def carrying_half_units(a: ConnectionSet, b: ConnectionSet) -> tuple[int, ...]:
    """The units x <= n/2 with x*a = b, ascending."""
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    if len(a.jumps) != len(b.jumps):
        return ()
    n = a.n
    if not a.jumps:
        return _half_units(n)
    # A row that lost a jump raises even when it is not b's.
    rows = list(map(frozenset, zip(*[_column(n, j) for j in a.jumps])))
    _same_size(a, rows)
    target = frozenset(b.jumps)
    return tuple([x for x, row in zip(_half_units(n), rows) if row == target])


def is_adam_equivalent(a: ConnectionSet, b: ConnectionSet) -> Optional[int]:
    """Smallest unit x with x*a = b, or None when no multiplier works.

    If x carries a onto b, so does n - x, so the smallest is at most n/2.
    """
    low = carrying_half_units(a, b)
    return low[0] if low else None
