"""Canonical labeling and the isomorphism verdicts."""

from __future__ import annotations

import hashlib
import random

import pytest

import circio.oracle as oracle_mod
from circio import (
    BudgetExceeded,
    CirculantGraph,
    ConnectionSet,
    InvalidParams,
    OrderMismatch,
    WitnessMismatch,
    canonical_edges_of,
    canonical_form,
    generate_c1,
    isomorphic,
    probe_open_problems,
    verify_permutation,
)
from circio.multipliers import multiply_set, units
from helpers import (
    CATALOGUE_T1,
    cs,
    family_records,
    reference_individualize,
    reference_refine,
    type2_family_records,
)


def graph(text: str) -> CirculantGraph:
    return CirculantGraph(cs(text))


class TestCanonicalForm:
    def test_adam_pair_shares_form(self):
        # 3*{1,2} reduces to {2,3}, so these are multiplier-isomorphic
        a = canonical_form(graph("C8(1,2)"))
        b = canonical_form(graph("C8(2,3)"))
        assert a.canonical_edges == b.canonical_edges

    def test_labeling_reproduces_certificate(self):
        g = graph("C16(1,2,7)")
        form = canonical_form(g)
        lab = form.labeling
        relabeled = sorted(
            (min(lab[a], lab[b]), max(lab[a], lab[b])) for a, b in g.edges
        )
        assert tuple(relabeled) == form.canonical_edges

    def test_relabeling_invariance(self):
        g = graph("C16(1,2,7)")
        base_cert, _ = canonical_edges_of(g.n, sorted(g.edges))
        rng = random.Random(7)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [
                (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges
            ]
            cert, _ = canonical_edges_of(g.n, edges)
            assert cert == base_cert

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceeded):
            canonical_form(graph("C54(1,3,17,19)"), budget=3)

    def test_tiny_orders(self):
        assert canonical_edges_of(0, []) == ((), ())
        assert canonical_edges_of(1, []) == ((), (0,))

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(1, 1)]),
            (3, [(-1, 0)]),
            (3, [(0, 5)]),
            (3, [(0, 1.0)]),
            (3, [(0, 1), (0, 1)]),
            (3, [(0, 1), (1, 0)]),
            (-1, []),
            (2.0, []),
        ],
    )
    def test_rejects_what_is_not_a_simple_graph(self, n, edges):
        with pytest.raises(InvalidParams):
            canonical_edges_of(n, edges)


class TestVerifyPermutation:
    def test_accepts_rotation(self):
        g = graph("C16(1,2,7)")
        rot = tuple((v + 1) % 16 for v in range(16))
        assert verify_permutation(g, g, rot)

    def test_rejects_wrong_map(self):
        a, b = graph("C16(1,2,7)"), graph("C16(2,3,5)")
        assert not verify_permutation(a, b, tuple(range(16)))

    def test_rejects_non_bijection(self):
        g = graph("C16(1,2,7)")
        assert not verify_permutation(g, g, (0,) * 16)
        assert not verify_permutation(g, g, (0, 1))


class TestIsomorphic:
    def test_self(self):
        v = isomorphic(graph("C16(1,2,7)"), graph("C16(1,2,7)"))
        assert v.kind == "isomorphic"

    def test_theta_pair(self):
        a, b = graph("C54(1,3,17,19)"), graph("C54(3,7,11,25)")
        v = isomorphic(a, b)
        assert v.kind == "isomorphic"
        assert verify_permutation(a, b, v.permutation)

    def test_composite_pair(self):
        # isomorphic, but by neither a multiplier nor a single block shift
        a, b = graph("C16(1,2,7)"), graph("C16(1,6,7)")
        v = isomorphic(a, b)
        assert v.kind == "isomorphic"
        assert verify_permutation(a, b, v.permutation)

    def test_spectral_reject(self):
        v = isomorphic(graph("C54(1,2,17,19)"), graph("C54(2,5,13,23)"))
        assert v.kind == "non-isomorphic"
        assert v.certificate.startswith("spectrum[")

    def test_degree_mismatch_is_spectral(self):
        v = isomorphic(graph("C16(1)"), graph("C16(1,2)"))
        assert v.kind == "non-isomorphic"

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            isomorphic(graph("C16(1)"), graph("C27(1)"))

    def test_timeout_verdict(self):
        v = isomorphic(graph("C54(1,3,17,19)"), graph("C54(3,7,11,25)"), budget=3)
        assert v.kind == "timeout"
        assert v.serialize() == "timeout"

    def test_agrees_with_multiplier_action(self):
        rng = random.Random(11)
        for n in (16, 24, 54):
            us = units(n)
            for _ in range(20):
                k = rng.randint(1, 4)
                jumps = tuple(sorted(rng.sample(range(1, n // 2 + 1), k)))
                a = ConnectionSet(n, jumps)
                b = multiply_set(a, rng.choice(us))
                v = isomorphic(CirculantGraph(a), CirculantGraph(b))
                assert v.kind == "isomorphic"

    def test_serialize_forms(self):
        iso = isomorphic(graph("C8(1,2)"), graph("C8(2,3)"))
        assert iso.serialize().startswith("isomorphic ")
        non = isomorphic(graph("C16(1)"), graph("C16(1,2)"))
        assert non.serialize().startswith("non-isomorphic spectrum[")


class TestCertificateChecks:
    """Each check raises WitnessMismatch, so python -O cannot skip it."""

    def test_search_without_a_leaf(self, monkeypatch):
        monkeypatch.setattr(oracle_mod._Search, "run", lambda self, *args: None)
        with pytest.raises(WitnessMismatch):
            canonical_edges_of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_labeling_that_misses_its_certificate(self, monkeypatch):
        real = oracle_mod._canonical_search

        def wrong_certificate(n, edges, budget):
            cert, lab, nodes = real(n, edges, budget)
            return cert[1:], lab, nodes

        monkeypatch.setattr(oracle_mod, "_canonical_search", wrong_certificate)
        with pytest.raises(WitnessMismatch):
            canonical_form(graph("C16(1,2)"))

    def test_permutation_that_fails_verification(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "verify_permutation", lambda a, b, perm: False)
        with pytest.raises(WitnessMismatch):
            isomorphic(graph("C8(1,2)"), graph("C8(2,3)"))


def relabeled(g: CirculantGraph, seed: int) -> list[tuple[int, int]]:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges]


class TestDihedralSeeds:
    """The rotation and reflection seeds prune the search but change no byte:
    certificate and labeling are the same with the seeds and without them."""

    @staticmethod
    def seeded_and_unseeded(monkeypatch, n, edges):
        used = []
        real = oracle_mod._dihedral_seeds

        def spy(n, search):
            seeds = real(n, search)
            used.extend(seeds)
            return seeds

        with monkeypatch.context() as patch:
            patch.setattr(oracle_mod, "_dihedral_seeds", spy)
            seeded = canonical_edges_of(n, edges)
        with monkeypatch.context() as patch:
            patch.setattr(oracle_mod, "_dihedral_seeds", lambda n, search: [])
            unseeded = canonical_edges_of(n, edges)
        return seeded, unseeded, len(used)

    def assert_same_with_both_seeds(self, monkeypatch, g: CirculantGraph):
        seeded, unseeded, used = self.seeded_and_unseeded(monkeypatch, g.n, sorted(g.edges))
        assert used == 2, g.cs
        assert seeded == unseeded, g.cs

    def test_sampled_family_rows(self, monkeypatch):
        # Type-1 rows cost seconds without the seeds: see test_catalogue_t1_rows.
        for record in random.Random(4).sample(type2_family_records(), 20):
            for member in record.members:
                self.assert_same_with_both_seeds(monkeypatch, CirculantGraph(member))

    def test_cycle(self, monkeypatch):
        self.assert_same_with_both_seeds(monkeypatch, graph("C54(1)"))

    def test_c27_construction_pair(self, monkeypatch):
        for i in (1, 2):
            self.assert_same_with_both_seeds(monkeypatch, CirculantGraph(generate_c1(1, 3, 1, 0, i)))

    def test_relabeled_input_gets_no_seed(self, monkeypatch):
        g = graph("C54(1,3,17,19)")
        seeded, unseeded, used = self.seeded_and_unseeded(monkeypatch, g.n, relabeled(g, 5))
        assert used == 0
        assert seeded == unseeded
        assert seeded[0] == canonical_edges_of(g.n, sorted(g.edges))[0]

    @pytest.mark.slow
    def test_catalogue_t1_rows(self, monkeypatch):
        for name, row in CATALOGUE_T1:
            record = family_records(name)[row - 1]
            for member in (record.members[0], record.theta_images[2]):
                self.assert_same_with_both_seeds(monkeypatch, CirculantGraph(member))


def sample_graphs(seed: int, count: int):
    """(n, adjacency lists) of circulants, relabeled circulants and random
    graphs that are mostly not regular, n <= 54."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, 54)
        if i % 3 == 2:
            p = rng.choice((0.1, 0.3, 0.6))
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        else:
            jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(4, n // 2)))
            edges = sorted(CirculantGraph(ConnectionSet(n, tuple(sorted(jumps)))).edges)
            if i % 3 == 1:
                perm = list(range(n))
                rng.shuffle(perm)
                edges = [(perm[a], perm[b]) for a, b in edges]
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        yield n, [sorted(row) for row in adj]


def slot_coloring(n: int, reference: list[int]) -> tuple[list[int], list]:
    """A 0, 1, ... coloring in the oracle's form: each vertex coloured by its
    cell's first slot, and the sorted cells at those slots."""
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(reference):
        by_color.setdefault(c, []).append(v)
    colors, cells = [0] * n, [None] * n
    start = 0
    for c in sorted(by_color):
        cells[start] = by_color[c]
        for v in by_color[c]:
            colors[v] = start
        start += len(by_color[c])
    return colors, cells


class TestRefinement:
    """Refining only the cells a split touches gives the ordered partition
    that re-sorting every vertex in every round gives."""

    def test_matches_reference(self):
        rng = random.Random(12)
        for n, adj in sample_graphs(seed=11, count=36):
            colors, cells = [0] * n, [list(range(n))] + [None] * (n - 1)
            oracle_mod._refine(adj, colors, cells, range(n))
            reference = reference_refine(n, adj, [0] * n)
            # Every individualization of each equitable coloring on a random
            # path from the root down to a discrete coloring.
            while True:
                assert (colors, cells) == slot_coloring(n, reference), n
                target = [v for v in range(n) if len(cells[colors[v]]) > 1]
                if not target:
                    break
                for v in target:
                    child = oracle_mod._individualize(colors, cells, v)
                    oracle_mod._refine(adj, *child, (v,))
                    expected = reference_refine(n, adj, reference_individualize(reference, v))
                    assert child == slot_coloring(n, expected), (n, v)
                # The children are copies: the parent coloring is unchanged.
                assert (colors, cells) == slot_coloring(n, reference), n
                v = rng.choice(target)
                colors, cells = oracle_mod._individualize(colors, cells, v)
                oracle_mod._refine(adj, colors, cells, (v,))
                reference = reference_refine(n, adj, reference_individualize(reference, v))


class TestNodeCounts:
    def test_cycle_needs_three_nodes(self):
        # Root, one child, one leaf: the rotation prunes the root's other
        # children and the reflection the child's.
        assert canonical_form(graph("C54(1)"), budget=3).nodes == 3
        with pytest.raises(BudgetExceeded):
            canonical_form(graph("C54(1)"), budget=2)

    def test_costliest_catalogue_graph_fits_in_1000(self):
        form = canonical_form(graph("C54(2,6,12,16,18,20,24)"), budget=1000)
        assert 0 < form.nodes <= 1000

    def test_catalogue_t1_pairs(self):
        # The same counts as the search that re-sorted every vertex in every
        # refinement round: the tree it walks is unchanged.
        expected = {("a", 3): 184, ("b", 30): 771, ("a", 206): 768, ("b", 206): 831}
        for (name, row), nodes in expected.items():
            record = family_records(name)[row - 1]
            for member in (record.members[0], record.theta_images[2]):
                assert canonical_form(CirculantGraph(member)).nodes == nodes, (name, row)

    def test_isomorphic_sums_both_sides(self):
        a, b = graph("C54(1,3,17,19)"), graph("C54(3,7,11,25)")
        v = isomorphic(a, b)
        assert v.nodes == canonical_form(a).nodes + canonical_form(b).nodes

    def test_timeout_says_how_far_it_got(self):
        # Each side needs 5 nodes; the first one gives up after the budget.
        a, b = graph("C54(1,3,17,19)"), graph("C54(3,7,11,25)")
        for budget in (3, 4):
            v = isomorphic(a, b, budget=budget)
            assert v.kind == "timeout"
            assert v.nodes == budget
        assert isomorphic(a, b, budget=5).nodes == 10

    def test_spectral_verdict_uses_no_nodes(self):
        v = isomorphic(graph("C16(1)"), graph("C16(1,2)"))
        assert v.nodes == 0

    def test_serialize_leaves_nodes_out(self):
        v = isomorphic(graph("C8(1,2)"), graph("C8(2,3)"))
        assert v.nodes > 0
        assert v.serialize() == "isomorphic " + " ".join(map(str, v.permutation))


def test_pinned_certificates_labelings_and_nodes():
    """One sha256 over (certificate, labeling, nodes) of C54(1), both sides of
    the 35 probe_open_problems pairs and 20 relabelings of C54(1,3,17,19),
    taken from the search that re-sorted every vertex in every round."""
    lines = []

    def add(n, edges):
        lines.append(repr(oracle_mod._canonical_search(n, edges, oracle_mod.DEFAULT_BUDGET)))

    cycle = graph("C54(1)")
    add(cycle.n, sorted(cycle.edges))
    for entry in probe_open_problems().entries:
        for side in (entry.left, entry.right):
            g = CirculantGraph(side)
            add(g.n, sorted(g.edges))
    g = graph("C54(1,3,17,19)")
    for seed in range(20):
        add(g.n, relabeled(g, seed))
    assert len(lines) == 91
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a5e92b834c55ec6a81e927bf5afac8e83ab3ada2e76088e218543500eaa7ecc0"
