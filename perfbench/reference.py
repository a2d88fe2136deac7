"""Small reference arithmetic for circulant graphs, independent of circio.

The benchmark uses these to build its inputs and to check the program's
answers, so a verdict is never checked against the code that produced it.
Connection sets are plain sorted tuples of reduced jumps; n is passed apart.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


def reduce_jumps(raw: Iterable[int], n: int) -> tuple[int, ...]:
    """Reduce raw jumps into [1, n//2], sorted and deduplicated."""
    out = set()
    for r in raw:
        v = r % n
        if v == 0:
            raise ValueError(f"jump {r} is 0 mod {n}")
        out.add(min(v, n - v))
    return tuple(sorted(out))


def units_of(n: int) -> list[int]:
    return [x for x in range(1, n) if math.gcd(x, n) == 1]


def multiply(jumps: Sequence[int], x: int, n: int) -> tuple[int, ...]:
    return reduce_jumps((x * j for j in jumps), n)


def carrying_unit(a: Sequence[int], b: Sequence[int], n: int) -> Optional[int]:
    """Smallest unit x with x*a = b, or None."""
    b = tuple(b)
    for x in units_of(n):
        if multiply(a, x, n) == b:
            return x
    return None


def edges(jumps: Sequence[int], n: int) -> set[tuple[int, int]]:
    out = set()
    for x in range(n):
        for s in jumps:
            y = (x + s) % n
            out.add((x, y) if x < y else (y, x))
    return out


def theta(jumps: Sequence[int], n: int, m: int, t: int) -> Optional[tuple[int, ...]]:
    """Jumps of the image of C_n(jumps) under x -> x + (x mod m)*t*m, or None
    when the image is not circulant. Works on the whole edge set."""
    perm = [(x + (x % m) * t * m) % n for x in range(n)]
    image = set()
    for a, b in edges(jumps, n):
        pa, pb = perm[a], perm[b]
        image.add((pa, pb) if pa < pb else (pb, pa))
    for a, b in image:
        a1, b1 = (a + 1) % n, (b + 1) % n
        if ((a1, b1) if a1 < b1 else (b1, a1)) not in image:
            return None
    return reduce_jumps([b for a, b in image if a == 0], n)


def spectrum(jumps: Sequence[int], n: int) -> list[float]:
    """Eigenvalues of C_n(jumps), ascending."""
    lam = []
    for k in range(n):
        total = 0.0
        for s in jumps:
            if 2 * s == n:
                total += math.cos(math.pi * k)
            else:
                total += 2.0 * math.cos(2.0 * math.pi * k * s / n)
        lam.append(total)
    return sorted(lam)


def cospectral(a: Sequence[int], b: Sequence[int], n: int, tol: float = 1e-6) -> bool:
    return all(abs(x - y) <= tol for x, y in zip(spectrum(a, n), spectrum(b, n)))


def maps_edges(a: Sequence[int], b: Sequence[int], n: int, perm: Sequence[int]) -> bool:
    """True iff perm is a bijection of Z_n carrying C_n(a) onto C_n(b)."""
    if sorted(perm) != list(range(n)):
        return False
    target = edges(b, n)
    mapped = set()
    for x, y in edges(a, n):
        px, py = perm[x], perm[y]
        mapped.add((px, py) if px < py else (py, px))
    return mapped == target
