"""Isomorphism oracle independent of the multiplier/theta machinery.

Spectrum first (cheap non-isomorphism certificates), then canonical labeling
by individualization-refinement with automorphism pruning. The search starts
from the rotation x -> x+1 and the reflection x -> -x whenever the input, as
labeled, admits them, and from the transpositions of twin vertices (equal
open or closed neighbourhoods); each is checked edge by edge before use, and
the search adds the automorphisms it discovers at its leaves. A leaf that an
automorphism maps onto the best leaf also jumps the search back to the node
where their paths part, since the automorphism carries the rest of that
subtree onto one already explored. Pruning by automorphisms skips only
subtrees equivalent to explored ones, so the certificate and the labeling do
not depend on the seeds or the jumps. A regular graph skips the root
refinement, since its one-cell root coloring is already equitable.
isomorphic(a, b) needs no canonical form: it descends a's tree to its first
leaf and searches b only up to a leaf with that certificate, which b's tree
has exactly when a and b are isomorphic (McKay and Piperno 2014). The
canonical engine works on plain adjacency lists and uses no multiplier or
theta algebra, so it owes nothing to the algebra it is checking.
"""

from __future__ import annotations

from bisect import bisect
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    CirculantGraph,
    _Value,
    adjacency_spectrum,
    first_spectral_gap,
    full_difference_set,
)
from .errors import BudgetExceeded, InvalidParams, OrderMismatch, WitnessMismatch

DEFAULT_BUDGET = 10 ** 7

Cert = tuple[tuple[int, int], ...]  # a certificate: relabeled edges, sorted


class CanonicalForm(_Value):
    __slots__ = _fields = ("n", "canonical_edges", "labeling", "nodes")
    n: int
    canonical_edges: Cert
    labeling: tuple[int, ...]
    nodes: int  # search nodes used

    def __init__(
        self,
        n: int,
        canonical_edges: tuple[tuple[int, int], ...],
        labeling: tuple[int, ...],
        nodes: int,
    ) -> None:
        self._init(n, canonical_edges, labeling, nodes)


class IsoVerdict(_Value):
    """One of isomorphic (with permutation), non-isomorphic (with a named
    certificate), or timeout. nodes counts the search nodes used: those on
    a's path to its first leaf, and b's up to its first leaf with that leaf's
    certificate, or all of b's when no leaf has it (0 for a spectral
    verdict); serialize() leaves it out."""

    __slots__ = _fields = ("kind", "permutation", "certificate", "nodes")
    kind: str
    permutation: Optional[tuple[int, ...]]
    certificate: Optional[str]
    nodes: int

    def __init__(
        self,
        kind: str,
        permutation: Optional[tuple[int, ...]] = None,
        certificate: Optional[str] = None,
        nodes: int = 0,
    ) -> None:
        self._init(kind, permutation, certificate, nodes)

    def serialize(self) -> str:
        if self.kind == "isomorphic":
            return "isomorphic " + " ".join(str(p) for p in self.permutation)
        if self.kind == "non-isomorphic":
            return f"non-isomorphic {self.certificate}"
        return "timeout"


ColoursOf = Callable[[list[int]], Sequence[int]]


def _neighbour_colours(adj: Sequence[Sequence[int]]) -> list[ColoursOf]:
    """Per vertex v, a function from a coloring to the colours of v's
    neighbours, built once per search."""
    getters = []
    for row in adj:
        if len(row) > 1:
            getters.append(itemgetter(*row))
        else:  # itemgetter returns a scalar for one index and fails for none
            getters.append(itemgetter(slice(row[0], row[0] + 1) if row else slice(0)))
    return getters


def _refine(
    adj: Sequence[Sequence[int]],
    colors: list[int],
    cells: list[Optional[list[int]]],
    moved: Iterable[int],
    colours_of: list[ColoursOf],
) -> None:
    """Equitable refinement, in place.

    colors[v] is the first slot of v's cell in the ordered partition, and
    cells[c] is the sorted cell of colour c (None where no cell starts), so a
    discrete coloring is the labeling itself. Each round splits every cell by
    its vertices' sorted neighbour colours, parts in ascending order, using
    the colours the round started with. Signatures are label-free, so the
    final coloring is invariant under input relabeling.

    A round examines only the cells that hold a neighbour of a vertex that
    moved in the last round: in any other cell every vertex still sees the
    same neighbour counts, so it would not split. One largest part of each
    split cell does not count as moved, since its neighbour counts are the
    cell's minus the other parts'. The result is the same as splitting
    every cell in every round. moved names the vertices to start from:
    every vertex unless the coloring was equitable before they moved.
    colours_of is _neighbour_colours(adj).
    """
    while True:
        splits = []
        for start in {colors[u] for w in moved for u in adj[w]}:
            cell = cells[start]
            if len(cell) == 1:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(sorted(colours_of[v](colors)))
                parts.setdefault(key, []).append(v)
            if len(parts) > 1:
                splits.append((start, [parts[key] for key in sorted(parts)]))
        if not splits:
            return
        moved = []
        for start, parts in splits:
            largest = max(parts, key=len)
            for part in parts:
                if part is not largest:
                    moved += part
                cells[start] = part
                for v in part:
                    colors[v] = start
                start += len(part)


def _individualize(
    colors: list[int], cells: list[Optional[list[int]]], v: int
) -> tuple[list[int], list[Optional[list[int]]]]:
    """Copies of colors and cells with v split off just before the rest of
    its cell. Cells are shared, never changed in place."""
    colors, cells = colors[:], cells[:]
    start = colors[v]
    rest = [u for u in cells[start] if u != v]
    cells[start] = [v]
    cells[start + 1] = rest
    for u in rest:
        colors[u] = start + 1
    return colors, cells


def _certificate(adj: Sequence[Sequence[int]], lab: Sequence[int]) -> Cert:
    """The edges relabeled by lab, each as (low, high), in sorted order."""
    out = []
    for v, row in enumerate(adj):
        lv = lab[v]
        for u in row:
            if v < u:
                lu = lab[u]
                out.append((lv, lu) if lv < lu else (lu, lv))
    out.sort()
    return tuple(out)


def _close(orbit: set[int], todo: list[int], gens: Sequence[Sequence[int]]) -> None:
    """Add to orbit the images of todo under the group gens generate."""
    while todo:
        u = todo.pop()
        for g in gens:
            w = g[u]
            if w not in orbit:
                orbit.add(w)
                todo.append(w)


class _Search:
    def __init__(
        self, n: int, adj: Sequence[Sequence[int]], budget: int, stop: Optional[Cert] = None
    ):
        self.n = n
        self.adj = adj
        self.colours_of = _neighbour_colours(adj)
        # With equal row lengths the one-cell root coloring is equitable.
        self.regular = len({len(row) for row in adj}) <= 1
        self.stop = stop  # the search ends at the first leaf with this certificate
        self.budget = budget
        self.remaining = budget
        self.best_cert: Optional[Cert] = None
        self.best_lab: Optional[list[int]] = None
        self.best_path: tuple[int, ...] = ()
        self.auts: list[tuple[int, ...]] = []
        self.fixed: list[frozenset[int]] = []  # fixed points of auts[i]

    @property
    def nodes(self) -> int:
        return self.budget - self.remaining

    @cached_property
    def nbr(self) -> list[set[int]]:  # _first_leaf never reads it
        return [set(row) for row in self.adj]

    def _is_automorphism(self, gamma: Sequence[int]) -> bool:
        nbr = self.nbr
        for v in range(self.n):
            image = nbr[gamma[v]]
            for u in self.adj[v]:
                if gamma[u] not in image:
                    return False
        return True

    def _store(self, gamma: tuple[int, ...]) -> None:
        """Keep a verified automorphism unless it is the identity or known."""
        if any(gamma[v] != v for v in range(self.n)) and gamma not in self.auts:
            self.auts.append(gamma)
            self.fixed.append(frozenset(v for v in range(self.n) if gamma[v] == v))

    def _leaf(self, colors: list[int], path: tuple[int, ...]) -> int:
        """Compare the leaf with the best one and with stop, and return the
        depth the search resumes at: the leaf's own depth, the depth where
        its path parts from the best path when an automorphism maps it onto
        the best leaf, or -1, which ends the search with this leaf as the
        best, at a leaf whose certificate is stop."""
        lab = colors  # discrete coloring is the labeling itself
        if self.best_lab is not None:
            # lab's certificate equals the best one exactly when the map
            # onto the best leaf is an automorphism; only otherwise is the
            # certificate worth building. The best certificate is not stop,
            # or the search would have ended at it.
            inv_best = [0] * self.n
            for v in range(self.n):
                inv_best[self.best_lab[v]] = v
            gamma = tuple(inv_best[c] for c in lab)
            if self._is_automorphism(gamma):
                self._store(gamma)
                # gamma carries path onto the best path position by position,
                # so it fixes their common prefix and maps the subtree below
                # path[:k + 1] onto the explored one below best_path[:k + 1].
                k = 0
                for v, w in zip(path, self.best_path):
                    if v != w:
                        break
                    k += 1
                return k
        cert = _certificate(self.adj, lab)
        found = cert == self.stop
        if found or self.best_cert is None or cert < self.best_cert:
            self.best_cert = cert
            self.best_lab = list(lab)
            self.best_path = path
        return -1 if found else len(path)

    def node(
        self, colors: list[int], cells: list[Optional[list[int]]], path: tuple[int, ...]
    ) -> Optional[list[int]]:
        """Spend one node on path: refine its coloring in place and return
        the cell to individualize next, the first largest, or None at a
        leaf."""
        if self.remaining <= 0:
            raise BudgetExceeded("canonical search budget exhausted")
        self.remaining -= 1
        # The parent coloring is equitable, so only the last individualized
        # vertex has moved; the root starts from every vertex unless the
        # graph is regular.
        moved = path[-1:] if path or self.regular else range(self.n)
        _refine(self.adj, colors, cells, moved, self.colours_of)
        target = max(filter(None, cells), key=len, default=None)  # first largest
        return None if target is None or len(target) == 1 else target

    def run(
        self, colors: list[int], cells: list[Optional[list[int]]], path: tuple[int, ...]
    ) -> int:
        """Search the subtree below path; return the depth to resume at,
        below len(path) when a leaf jumped back past this node."""
        target = self.node(colors, cells, path)
        if target is None:
            return self._leaf(colors, path)
        depth = len(path)
        # Orbit pruning: skip a candidate that a known automorphism fixing
        # the path pointwise carries onto an explored one. forbidden is kept
        # closed under gens, the stored automorphisms that fix the path.
        gens: list[tuple[int, ...]] = []
        seen_auts = 0
        forbidden: set[int] = set()
        on_path = set(path)
        for v in target:
            if len(self.auts) > seen_auts:
                fresh = [
                    g
                    for g, fixed in zip(self.auts[seen_auts:], self.fixed[seen_auts:])
                    if on_path <= fixed
                ]
                seen_auts = len(self.auts)
                if fresh:
                    gens += fresh
                    _close(forbidden, list(forbidden), gens)
            if v in forbidden:
                continue
            resume = self.run(*_individualize(colors, cells, v), path + (v,))
            if resume < depth:
                return resume
            forbidden.add(v)
            _close(forbidden, [v], gens)
        return depth


def _dihedral_seeds(n: int, search: _Search) -> list[tuple[int, ...]]:
    """The rotation x -> x+1 and the reflection x -> -x mod n, each kept only
    if it is an automorphism of the input as labeled. Every circulant admits
    both in its natural labeling; a relabeled input usually admits neither."""
    maps = (tuple((v + 1) % n for v in range(n)), tuple(-v % n for v in range(n)))
    return [gamma for gamma in maps if search._is_automorphism(gamma)]


def _twin_seeds(n: int, adj: Sequence[Sequence[int]], search: _Search) -> list[tuple[int, ...]]:
    """Transpositions of twins: vertices with the same open neighbourhood
    (the sorted row) or the same closed one (the row with v inserted). The
    transpositions of consecutive members of a class generate every
    permutation of it; each is kept only if it is an automorphism. A
    transposition (u v) moves only the edges at u or v, so it is one exactly
    when N(u) - {v} = N(v) - {u}. Twins are a property of the adjacency
    lists alone, so a relabeled input gets as many seeds as its natural
    labeling."""
    open_keys = [tuple(row) for row in adj]
    closed_keys = []
    for v, row in enumerate(open_keys):
        i = bisect(row, v)
        closed_keys.append(row[:i] + (v,) + row[i:])
    seeds = []
    for keys in (open_keys, closed_keys):
        if len(set(keys)) == n:
            continue  # no twins of this kind, the usual case
        classes: dict[tuple[int, ...], list[int]] = {}
        for v, key in enumerate(keys):
            classes.setdefault(key, []).append(v)
        for members in classes.values():
            for u, v in zip(members, members[1:]):
                if search.nbr[u] - {v} == search.nbr[v] - {u}:
                    gamma = list(range(n))
                    gamma[u], gamma[v] = v, u
                    seeds.append(tuple(gamma))
    return seeds


def _canonical_search(
    n: int, adj: Sequence[Sequence[int]], budget: int, stop: Optional[Cert] = None
) -> tuple[Cert, tuple[int, ...], int]:
    """Certificate, labeling and search nodes used for sorted adjacency lists.

    With stop, every certificate the search builds is compared with stop,
    and the search ends at the first leaf whose certificate is stop and
    returns that leaf, whether or not it is the least so far. Pruning skips
    only subtrees that a verified automorphism carries onto explored ones,
    and an automorphism keeps certificates, so when any leaf of the tree has
    certificate stop the search meets one; otherwise it runs to the end and
    returns the least certificate. The best labeling and certificate are
    carried through the backjumps apart, so WitnessMismatch is raised unless
    the labeling reproduces the certificate exactly."""
    search = _Search(n, adj, budget, stop)
    for gamma in _dihedral_seeds(n, search) + _twin_seeds(n, adj, search):
        search._store(gamma)
    search.run(*_root(n), ())
    if search.best_cert is None:
        raise WitnessMismatch("canonical search reached no leaf")
    lab = tuple(search.best_lab)
    if _certificate(adj, lab) != search.best_cert:
        raise WitnessMismatch("the search labeling misses its certificate")
    return search.best_cert, lab, search.nodes


def _root(n: int) -> tuple[list[int], list[Optional[list[int]]]]:
    """The one-cell coloring and cells the search starts from."""
    return [0] * n, [list(range(n))] + [None] * (n - 1) if n else []


def _first_leaf(
    n: int, adj: Sequence[Sequence[int]], budget: int
) -> tuple[Cert, tuple[int, ...], int]:
    """Certificate, labeling and search nodes of the first leaf of
    _canonical_search's tree: the path that individualizes the first vertex
    of the target cell at every level, which no seed or pruning can skip.
    The tree is label-invariant, so an isomorphism carries this leaf onto a
    leaf of the other graph's tree with the same certificate."""
    search = _Search(n, adj, budget)
    colors, cells = _root(n)
    path: tuple[int, ...] = ()
    while (target := search.node(colors, cells, path)) is not None:
        colors, cells = _individualize(colors, cells, target[0])
        path += (target[0],)
    return _certificate(adj, colors), tuple(colors), search.nodes


def canonical_edges_of(
    n: int, edges: Sequence[tuple[int, int]], budget: int = DEFAULT_BUDGET
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Canonical certificate and labeling for a plain edge list.

    Exposed separately from canonical_form so label-invariance can be tested
    on arbitrarily relabeled inputs. Raises InvalidParams unless n is an
    int >= 0 and edges is a simple graph on range(n): every endpoint an int
    in range(n), no loop and no repeated edge. Raises WitnessMismatch if the
    search's labeling does not reproduce its certificate.
    """
    if not isinstance(n, int) or n < 0:
        raise InvalidParams(f"n must be an int >= 0, got {n!r}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < n and 0 <= b < n):
            raise InvalidParams(f"edge ({a}, {b}) has an endpoint outside range({n})")
        if a == b:
            raise InvalidParams(f"edge ({a}, {b}) is a loop")
        if b in adj[a]:
            raise InvalidParams(f"edge ({a}, {b}) is repeated")
        adj[a].append(b)
        adj[b].append(a)
    for row in adj:
        row.sort()
    cert, lab, _ = _canonical_search(n, adj, budget)
    return cert, lab


def canonical_form(g: CirculantGraph, budget: int = DEFAULT_BUDGET) -> CanonicalForm:
    """Canonical form of a circulant graph. Raises BudgetExceeded on blowup."""
    return CanonicalForm(g.n, *_canonical_search(g.n, g.adjacency, budget))


def verify_permutation(
    a: CirculantGraph, b: CirculantGraph, perm: Sequence[int]
) -> bool:
    """True iff perm maps a's edge set exactly onto b's.

    perm must be a bijection of range(n) and the degrees must agree. A
    bijection maps distinct edges to distinct pairs, so with equal edge
    counts it is enough that every edge {x, x+s} of a lands on one of b:
    that perm[x+s] - perm[x] is a difference of b.
    """
    n = a.n
    if b.n != n or a.degree != b.degree or len(perm) != n or set(perm) != set(range(n)):
        return False
    diffs = set(full_difference_set(b.cs))
    for x in range(n):
        px = perm[x]
        for s in a.cs.jumps:
            if (perm[(x + s) % n] - px) % n not in diffs:
                return False
    return True


def isomorphic(
    a: CirculantGraph, b: CirculantGraph, budget: int = DEFAULT_BUDGET
) -> IsoVerdict:
    """Spectrum shortcut for mismatches, individualization-refinement for
    the rest: the first leaf of a's search tree, then b's search up to a
    leaf with that certificate. a and b are isomorphic exactly when b's
    tree has such a leaf."""
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    gap = first_spectral_gap(adjacency_spectrum(a.cs), adjacency_spectrum(b.cs))
    if gap is not None:
        return IsoVerdict(kind="non-isomorphic", certificate=f"spectrum[{gap}]")
    nodes = 0
    try:
        # a's certificate is built from the labeling returned with it.
        cert_a, lab_a, nodes = _first_leaf(a.n, a.adjacency, budget)
        cert_b, lab_b, nodes_b = _canonical_search(b.n, b.adjacency, budget, cert_a)
    except BudgetExceeded:
        # The search gives up only once it has spent its whole budget.
        return IsoVerdict(kind="timeout", nodes=nodes + max(budget, 0))
    nodes += nodes_b
    if cert_a != cert_b:
        return IsoVerdict(kind="non-isomorphic", certificate="canonical-form", nodes=nodes)
    inv_b = [0] * b.n
    for v in range(b.n):
        inv_b[lab_b[v]] = v
    perm = tuple(inv_b[lab_a[v]] for v in range(a.n))
    if not verify_permutation(a, b, perm):
        raise WitnessMismatch(f"the oracle's permutation does not carry {a.cs} onto {b.cs}")
    return IsoVerdict(kind="isomorphic", permutation=perm, nodes=nodes)
