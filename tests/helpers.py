"""Parsing shorthand, hypothesis strategies and edge-level references
shared across the suite."""

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
    WitnessMismatch,
    enumerate_family,
    theta_vertex_map,
    verify_permutation,
)
from circio.core import EdgeImage, is_circulant
from circio.theta import _carries, _hit_step, _jump_image

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


def edge_list(g: CirculantGraph) -> list[tuple[int, int]]:
    """The edges of g as (low, high) pairs, sorted, built from its jumps."""
    n = g.n
    pairs = set()
    for x in range(n):
        for s in g.cs.jumps:
            y = (x + s) % n
            pairs.add((x, y) if x < y else (y, x))
    return sorted(pairs)


def adjacency_lists(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Sorted neighbour lists of a simple graph on range(n)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(row) for row in adj]


def reference_verify_permutation(
    a: CirculantGraph, b: CirculantGraph, perm: Sequence[int]
) -> bool:
    """True iff perm maps a's edge set exactly onto b's, by edge sets."""
    if a.n != b.n or len(perm) != a.n or len(set(perm)) != a.n:
        return False
    ae, be = set(edge_list(a)), set(edge_list(b))
    if len(ae) != len(be):
        return False
    for x, y in ae:
        px, py = perm[x], perm[y]
        if ((px, py) if px < py else (py, px)) not in be:
            return False
    return True


def edge_level_theta_image(cs: ConnectionSet, m: int, t: int) -> Optional[ConnectionSet]:
    """The definitional image: permute every edge of C_n(cs), test circulancy."""
    perm = theta_vertex_map(ThetaParams(cs.n, m, t))
    pairs = set()
    for a, b in edge_list(CirculantGraph(cs)):
        pa, pb = perm[a], perm[b]
        pairs.add((pa, pb) if pa < pb else (pb, pa))
    return is_circulant(EdgeImage(cs.n, frozenset(pairs)))


@lru_cache(maxsize=1)
def _last_hit_step(n: int, m: int, jumps: tuple[int, ...]) -> int:
    return _hit_step(n, m, jumps)


def rule_theta_image(n: int, m: int, t: int, jumps: Sequence[int]) -> Optional[ConnectionSet]:
    """theta's answer at one shift on bare jumps, which need hold no multiple
    of m: t hits iff the period rule's hit step divides it, and then the
    jump-level image, or None at a miss. The tests hold it against the
    references below at every shift, so the step of the last (n, m, jumps)
    is kept for the next shift."""
    return _jump_image(n, m, t, jumps) if t % _last_hit_step(n, m, tuple(jumps)) == 0 else None


def vertex_map_carries(a: ConnectionSet, b: ConnectionSet, m: int, t: int) -> None:
    """The vertex-by-vertex reference for theta._carries: raise
    WitnessMismatch unless theta's vertex map at (m, t) carries the edges of
    C_n(a) exactly onto those of C_n(b), as the oracle's verify_permutation
    checks it."""
    params = ThetaParams(a.n, m, t)
    if not verify_permutation(CirculantGraph(a), CirculantGraph(b), theta_vertex_map(params)):
        raise WitnessMismatch(f"vertex map of {params} does not carry {a} onto {b}")


def count_calls(monkeypatch, called: list, module, name: str) -> None:
    """Wrap module.name so that each call appends name to called."""
    real = getattr(module, name)

    def counting(*args):
        called.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def _accepts(check, a: ConnectionSet, b: ConnectionSet, m: int, t: int) -> bool:
    try:
        check(a, b, m, t)
    except WitnessMismatch:
        return False
    return True


def theta_check_verdicts(a: ConnectionSet, b: ConnectionSet, m: int, t: int) -> tuple[bool, bool]:
    """Whether the class-rule check theta._carries and the vertex-by-vertex
    reference vertex_map_carries each accept theta at (m, t) carrying a onto b."""
    return _accepts(_carries, a, b, m, t), _accepts(vertex_map_carries, a, b, m, t)


def d_r_sets(n: int, m: int, t: int, jumps: Sequence[int]) -> list[frozenset[int]]:
    """D'_r = { d + (((r + d) mod m) - r)*t*m mod n : d in D } for r in
    [0, m): the neighbours of theta(y) minus theta(y), for y = r (mod m)."""
    diffs = [d for s in jumps for d in (s, n - s)]
    return [
        frozenset((d + ((r + d) % m - r) * t * m) % n for d in diffs) for r in range(m)
    ]


def d_r_theta_image(n: int, m: int, t: int, jumps: Sequence[int]) -> Optional[ConnectionSet]:
    """The image by the D'_r rule: build every neighbour set D'_r and call
    the image circulant iff all m of them are equal."""
    images = set(d_r_sets(n, m, t, jumps))
    if len(images) != 1:
        return None
    return ConnectionSet(n, tuple(sorted(d for d in images.pop() if 2 * d <= n)))


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
