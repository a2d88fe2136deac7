"""Parsing shorthand and hypothesis strategies shared across the suite."""

from __future__ import annotations

from typing import Optional

from hypothesis import strategies as st

from circio import (
    CirculantGraph,
    ConnectionSet,
    EdgeImage,
    ThetaParams,
    is_circulant,
    theta_vertex_map,
)

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
