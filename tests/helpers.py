"""Parsing shorthand and hypothesis strategies shared across the suite."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from hypothesis import strategies as st

from circio import (
    TYPE2,
    CirculantGraph,
    ConnectionSet,
    ThetaParams,
    TupleRecord,
    enumerate_family,
    theta_vertex_map,
)
from circio.core import EdgeImage, is_circulant

# Four Type-1 family rows (family, row from 1) whose canonical search is the
# costliest part of the pair queries; their costs span a sixfold range.
CATALOGUE_T1 = (("a", 3), ("b", 30), ("a", 206), ("b", 206))

# (n, m) pairs where the block transform is defined at all.
THETA_ORDERS = ((8, 2), (16, 2), (24, 2), (27, 3), (32, 2), (40, 2), (48, 2), (54, 3))


def cs(text: str) -> ConnectionSet:
    return ConnectionSet.parse(text)


@st.composite
def connection_sets(draw, min_n: int = 2, max_n: int = 60) -> ConnectionSet:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    return ConnectionSet(n, tuple(sorted(jumps)))


@st.composite
def theta_inputs(draw) -> tuple[ConnectionSet, int, int]:
    """A set guaranteed eligible for the transform, with valid (m, t)."""
    n, m = draw(st.sampled_from(THETA_ORDERS))
    mult = m * draw(st.integers(1, n // 2 // m))
    others = draw(st.sets(st.integers(1, n // 2), max_size=5))
    t = draw(st.integers(0, n // m - 1))
    return ConnectionSet(n, tuple(sorted(others | {mult}))), m, t


def edge_level_theta_image(cs: ConnectionSet, m: int, t: int) -> Optional[ConnectionSet]:
    """The definitional image: permute every edge of C_n(cs), test circulancy."""
    perm = theta_vertex_map(ThetaParams(cs.n, m, t))
    pairs = set()
    for a, b in CirculantGraph(cs).edges:
        pa, pb = perm[a], perm[b]
        pairs.add((pa, pb) if pa < pb else (pb, pa))
    return is_circulant(EdgeImage(cs.n, frozenset(pairs)))


@lru_cache(maxsize=None)
def family_records(name: str) -> tuple[TupleRecord, ...]:
    """All 511 rows of family a or b, in table order."""
    return tuple(enumerate_family(name))


def type2_family_records() -> list[TupleRecord]:
    """The 960 Type-2 rows of both families."""
    return [r for r in family_records("a") + family_records("b") if r.verdict.kind == TYPE2]


def reference_refine(n: int, adj: Sequence[Sequence[int]], colors: list[int]) -> list[int]:
    """Equitable refinement that re-sorts every vertex's neighbour colours in
    every round, colours renumbered 0, 1, ... in cell order. The oracle's
    refinement must give the same ordered partition."""
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def reference_individualize(colors: list[int], v: int) -> list[int]:
    """Split v off its class, just before the rest of it."""
    return [2 * c + (0 if u == v else 1) for u, c in enumerate(colors)]
