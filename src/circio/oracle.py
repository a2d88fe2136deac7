"""Isomorphism oracle independent of the multiplier/theta machinery.

Spectrum first (cheap non-isomorphism certificates), then canonical labeling
by individualization-refinement with discovered-automorphism pruning. The
canonical engine works on plain adjacency lists so it owes nothing to the
algebra it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import CirculantGraph, adjacency_spectrum, first_spectral_gap
from .errors import BudgetExceeded, OrderMismatch, WitnessMismatch

DEFAULT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class CanonicalForm:
    n: int
    canonical_edges: tuple[tuple[int, int], ...]
    labeling: tuple[int, ...]


@dataclass(frozen=True)
class IsoVerdict:
    """One of isomorphic (with permutation), non-isomorphic (with a named
    certificate), or timeout."""

    kind: str
    permutation: Optional[tuple[int, ...]] = None
    certificate: Optional[str] = None

    def serialize(self) -> str:
        if self.kind == "isomorphic":
            return "isomorphic " + " ".join(str(p) for p in self.permutation)
        if self.kind == "non-isomorphic":
            return f"non-isomorphic {self.certificate}"
        return "timeout"


def _refine(n: int, adj: Sequence[Sequence[int]], colors: list[int]) -> list[int]:
    """Equitable refinement. Signatures are label-free, so the final coloring
    is invariant under input relabeling."""
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _cells(n: int, colors: list[int]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for v in range(n):
        out.setdefault(colors[v], []).append(v)
    return out


def _individualize(colors: list[int], v: int) -> list[int]:
    # Split v off its class; _refine renormalizes the ids.
    return [2 * c + (0 if u == v else 1) for u, c in enumerate(colors)]


class _Search:
    def __init__(self, n: int, adj: Sequence[Sequence[int]], budget: int):
        self.n = n
        self.adj = adj
        self.remaining = budget
        self.best_cert: Optional[tuple[tuple[int, int], ...]] = None
        self.best_lab: Optional[list[int]] = None
        self.auts: list[tuple[int, ...]] = []

    def _certificate(self, lab: list[int]) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(self.n):
            lv = lab[v]
            for u in self.adj[v]:
                if v < u:
                    lu = lab[u]
                    out.append((lv, lu) if lv < lu else (lu, lv))
        out.sort()
        return tuple(out)

    def _is_automorphism(self, gamma: Sequence[int]) -> bool:
        adj = self.adj
        nbr = [set(a) for a in adj]
        for v in range(self.n):
            gv = gamma[v]
            for u in adj[v]:
                if gamma[u] not in nbr[gv]:
                    return False
        return True

    def _leaf(self, colors: list[int]) -> None:
        lab = colors  # discrete coloring is the labeling itself
        cert = self._certificate(lab)
        if self.best_cert is None or cert < self.best_cert:
            self.best_cert = cert
            self.best_lab = list(lab)
        elif cert == self.best_cert:
            inv_prev = [0] * self.n
            for v in range(self.n):
                inv_prev[self.best_lab[v]] = v
            gamma = tuple(inv_prev[lab[v]] for v in range(self.n))
            if any(gamma[v] != v for v in range(self.n)) and self._is_automorphism(gamma):
                self.auts.append(gamma)

    def run(self, colors: list[int], path: tuple[int, ...]) -> None:
        if self.remaining <= 0:
            raise BudgetExceeded("canonical search budget exhausted")
        self.remaining -= 1
        colors = _refine(self.n, self.adj, colors)
        cells = _cells(self.n, colors)
        target: Optional[list[int]] = None
        for color in sorted(cells):
            cell = cells[color]
            if len(cell) > 1 and (target is None or len(cell) > len(target)):
                target = cell
        if target is None:
            self._leaf(colors)
            return
        candidates = sorted(target)
        forbidden: set[int] = set()
        seen_auts = 0
        for v in candidates:
            # Orbit pruning: skip candidates reachable from an explored one by
            # a known automorphism fixing the current path pointwise.
            if len(self.auts) != seen_auts or v in forbidden:
                gens = [
                    g for g in self.auts if all(g[p] == p for p in path)
                ]
                seen_auts = len(self.auts)
                changed = True
                while changed:
                    changed = False
                    for g in gens:
                        for u in list(forbidden):
                            if g[u] not in forbidden:
                                forbidden.add(g[u])
                                changed = True
                if v in forbidden:
                    continue
            self.run(_individualize(colors, v), path + (v,))
            forbidden.add(v)


def canonical_edges_of(
    n: int, edges: Sequence[tuple[int, int]], budget: int = DEFAULT_BUDGET
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Canonical certificate and labeling for a plain edge list.

    Exposed separately from canonical_form so label-invariance can be tested
    on arbitrarily relabeled inputs.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for row in adj:
        row.sort()
    search = _Search(n, adj, budget)
    search.run([0] * n, ())
    if search.best_cert is None:
        raise WitnessMismatch("canonical search reached no leaf")
    return search.best_cert, tuple(search.best_lab)


def canonical_form(g: CirculantGraph, budget: int = DEFAULT_BUDGET) -> CanonicalForm:
    """Canonical form of a circulant graph. Raises BudgetExceeded on blowup."""
    cert, lab = canonical_edges_of(g.n, sorted(g.edges), budget)
    # The labeling must reproduce the certificate exactly.
    relabeled = sorted(
        (min(lab[a], lab[b]), max(lab[a], lab[b])) for a, b in g.edges
    )
    if tuple(relabeled) != cert:
        raise WitnessMismatch(f"the canonical labeling of {g.cs} misses its certificate")
    return CanonicalForm(g.n, cert, lab)


def verify_permutation(
    a: CirculantGraph, b: CirculantGraph, perm: Sequence[int]
) -> bool:
    """True iff perm maps a's edge set exactly onto b's."""
    if a.n != b.n or len(perm) != a.n or len(set(perm)) != a.n:
        return False
    be = b.edges
    if len(a.edges) != len(be):
        return False
    for x, y in a.edges:
        px, py = perm[x], perm[y]
        if ((px, py) if px < py else (py, px)) not in be:
            return False
    return True


def isomorphic(
    a: CirculantGraph, b: CirculantGraph, budget: int = DEFAULT_BUDGET
) -> IsoVerdict:
    """Spectrum shortcut for mismatches, canonical forms for the rest."""
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    gap = first_spectral_gap(adjacency_spectrum(a.cs), adjacency_spectrum(b.cs))
    if gap is not None:
        return IsoVerdict(kind="non-isomorphic", certificate=f"spectrum[{gap}]")
    try:
        ca = canonical_form(a, budget)
        cb = canonical_form(b, budget)
    except BudgetExceeded:
        return IsoVerdict(kind="timeout")
    if ca.canonical_edges != cb.canonical_edges:
        return IsoVerdict(kind="non-isomorphic", certificate="canonical-form")
    inv_b = [0] * b.n
    for v in range(b.n):
        inv_b[cb.labeling[v]] = v
    perm = tuple(inv_b[ca.labeling[v]] for v in range(a.n))
    if not verify_permutation(a, b, perm):
        raise WitnessMismatch(f"the canonical permutation does not carry {a.cs} onto {b.cs}")
    return IsoVerdict(kind="isomorphic", permutation=perm)
