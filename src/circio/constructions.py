"""The two parametric constructions of isomorphic circulant pairs.

generate_a17c gives the order-8k pair that the transform at m = 2 links;
generate_c1 gives one member of the order base*p^3 chain that the transform
at m = p links, member i to member i+j at t = j*base.
"""

from __future__ import annotations

import math

from .core import ConnectionSet, reflexive_reduce
from .errors import DegeneratePair, InvalidIndex, InvalidParams


def generate_a17c(k: int, s: int) -> tuple[ConnectionSet, ConnectionSet]:
    """The order-8k construction pair for index s.

    R = {2, 2s-1, 4k-(2s-1)} and S = {2, 2k-(2s-1), 2k+(2s-1)}, both reduced.
    The pair is degenerate (same graph) exactly when 2s-1 = k.
    """
    if k < 2:
        raise InvalidParams(f"k must be >= 2, got {k}")
    odd = 2 * s - 1
    if not (1 <= odd <= 2 * k - 1):
        raise InvalidParams(f"s = {s} out of range for k = {k}")
    if odd == k:
        raise DegeneratePair(f"2s-1 = k = {k} collapses the pair")
    n = 8 * k
    r = reflexive_reduce([2, odd, 4 * k - odd], n)
    s_set = reflexive_reduce([2, 2 * k - odd, 2 * k + odd], n)
    return r, s_set


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % q for q in range(3, int(math.isqrt(p)) + 1, 2))


def generate_c1(base: int, p: int, x: int, y: int, i: int) -> ConnectionSet:
    """Member i of the order base*p^3 construction chain.

    d_i = (i-1)*x*p*base + x + y*p; the jump list is {p, d_i, n-d_i, n-p}
    plus q*base*p^2 +- d_i for q = 1..p-1, all reduced. Members i and i+j
    are linked by the transform at t = j*base.
    """
    if base < 1:
        raise InvalidParams(f"base must be >= 1, got {base}")
    if not _is_odd_prime(p):
        raise InvalidParams(f"p must be an odd prime, got {p}")
    if not (1 <= i <= p):
        raise InvalidIndex(f"i = {i} outside [1, {p}]")
    if not (1 <= x <= p - 1):
        raise InvalidIndex(f"x = {x} outside [1, {p - 1}]")
    if not (0 <= y <= base * p - 1):
        raise InvalidIndex(f"y = {y} outside [0, {base * p - 1}]")
    n = base * p ** 3
    d = (i - 1) * x * p * base + x + y * p
    raw = [p, d, n - d, n - p]
    for q in range(1, p):
        raw.append(q * base * p * p + d)
        raw.append(q * base * p * p - d)
    return reflexive_reduce(raw, n)
