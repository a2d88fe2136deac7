"""Canonical labeling and the isomorphism verdicts."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circio.oracle as oracle_mod
from circio import (
    TYPE1,
    BudgetExceeded,
    CirculantGraph,
    ConnectionSet,
    InvalidParams,
    OrderMismatch,
    ThetaParams,
    WitnessMismatch,
    canonical_edges_of,
    canonical_form,
    generate_c1,
    isomorphic,
    probe_open_problems,
    theta_image,
    theta_vertex_map,
    verify_permutation,
)
from circio.multipliers import multiply_set, units
from helpers import (
    CATALOGUE_T1,
    adjacency_lists,
    connection_sets,
    cs,
    edge_list,
    family_records,
    reference_individualize,
    reference_refine,
    reference_verify_permutation,
    theta_inputs,
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
            (min(lab[a], lab[b]), max(lab[a], lab[b])) for a, b in edge_list(g)
        )
        assert tuple(relabeled) == form.canonical_edges

    def test_relabeling_invariance(self):
        g = graph("C16(1,2,7)")
        base_cert, _ = canonical_edges_of(g.n, edge_list(g))
        rng = random.Random(7)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [
                (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edge_list(g)
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


@st.composite
def permutation_cases(draw) -> tuple[CirculantGraph, CirculantGraph, tuple]:
    """(a, b, perm) with n in 2..60: theta vertex maps, oracle permutations,
    rotations of a into a superset of its jumps and random shuffles, each
    possibly spoiled into a non-bijection."""
    kind = draw(st.sampled_from(("theta", "oracle", "superset", "shuffle")))
    if kind == "theta":
        a, m, t = draw(theta_inputs())
        image = theta_image(a, m, t)
        b = a if image is None else image
        perm = list(theta_vertex_map(ThetaParams(a.n, m, t)))
    else:
        a = draw(connection_sets())
        n = a.n
        if kind == "oracle":
            b = multiply_set(a, draw(st.sampled_from(units(n))))
            perm = list(isomorphic(CirculantGraph(a), CirculantGraph(b)).permutation)
        elif kind == "superset":
            # Every edge of a lands on an edge of b; onto only when b == a.
            extra = draw(st.sets(st.integers(1, n // 2), max_size=2))
            b = ConnectionSet(n, tuple(sorted(set(a.jumps) | extra)))
            shift = draw(st.integers(0, n - 1))
            perm = [(x + shift) % n for x in range(n)]
        else:
            b = draw(connection_sets(min_n=n, max_n=n))
            perm = draw(st.permutations(range(n)))
    n = a.n
    spoil = draw(st.sampled_from((None, "repeat", "n", "-1", "short")))
    if spoil == "repeat":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        perm[i] = perm[j]
    elif spoil == "n":
        perm[perm.index(0)] = n  # n and 0 agree mod n
    elif spoil == "-1":
        perm[perm.index(n - 1)] = -1
    elif spoil == "short":
        perm = perm[:-1]
    return CirculantGraph(a), CirculantGraph(b), tuple(perm)


class TestVerifyPermutation:
    @settings(max_examples=200, deadline=None)
    @given(permutation_cases())
    def test_agrees_with_edge_set_reference(self, case):
        a, b, perm = case
        assert verify_permutation(a, b, perm) == reference_verify_permutation(a, b, perm)

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

        def wrong_certificate(n, adj, budget):
            cert, lab, nodes = real(n, adj, budget)
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
    return [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edge_list(g)]


class TestDihedralSeeds:
    """The rotation, reflection and twin seeds prune the search but change no
    byte: certificate and labeling are the same with the seeds and without
    them. used counts the rotation and reflection seeds."""

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
            patch.setattr(oracle_mod, "_twin_seeds", lambda n, adj, search: [])
            unseeded = canonical_edges_of(n, edges)
        return seeded, unseeded, len(used)

    def assert_same_with_both_seeds(self, monkeypatch, g: CirculantGraph):
        seeded, unseeded, used = self.seeded_and_unseeded(monkeypatch, g.n, edge_list(g))
        assert used == 2, g.cs
        assert seeded == unseeded, g.cs

    def test_sampled_family_rows(self, monkeypatch):
        # Type-2 rows have no twins; the Type-1 rows, where the twin seeds
        # act, are in test_catalogue_t1_rows.
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
        assert seeded[0] == canonical_edges_of(g.n, edge_list(g))[0]

    @pytest.mark.slow
    def test_catalogue_t1_rows(self, monkeypatch):
        for name, row in CATALOGUE_T1:
            record = family_records(name)[row - 1]
            for member in (record.members[0], record.theta_images[2]):
                self.assert_same_with_both_seeds(monkeypatch, CirculantGraph(member))


def seeds_of(n: int, edges) -> tuple[list, list]:
    """The dihedral and the twin seeds of a graph as labeled."""
    adj = adjacency_lists(n, edges)
    search = oracle_mod._Search(n, adj, oracle_mod.DEFAULT_BUDGET)
    return oracle_mod._dihedral_seeds(n, search), oracle_mod._twin_seeds(n, adj, search)


def maps_edges_onto_edges(n: int, edges, gamma) -> bool:
    """Edge-set reference for an automorphism test."""
    pairs = {(min(a, b), max(a, b)) for a, b in edges}
    return {(min(gamma[a], gamma[b]), max(gamma[a], gamma[b])) for a, b in pairs} == pairs


def catalogue_t1_graphs() -> list[CirculantGraph]:
    """Both sides of the CATALOGUE_T1 rows' theta links."""
    graphs = []
    for name, row in CATALOGUE_T1:
        record = family_records(name)[row - 1]
        graphs += [CirculantGraph(record.members[0]), CirculantGraph(record.theta_images[2])]
    return graphs


class TestTwinSeeds:
    """Twin transpositions are found from the adjacency lists alone and are
    automorphisms."""

    def test_relabeled_input_gets_the_same_twin_seeds(self):
        # The difference set is invariant under +18, so x, x + 18 and x + 36
        # share their neighbourhood: 18 classes of three, two seeds each.
        g = graph("C54(2,9,16,20,27)")
        dihedral, twins = seeds_of(g.n, edge_list(g))
        assert (len(dihedral), len(twins)) == (2, 36)
        for seed in range(3):
            dihedral, twins = seeds_of(g.n, relabeled(g, seed))
            assert (len(dihedral), len(twins)) == (0, 36)

    def test_no_twins_in_a_type2_graph(self):
        g = graph("C54(1,3,17,19)")
        assert seeds_of(g.n, edge_list(g))[1] == []

    def test_every_seed_is_an_automorphism(self):
        graphs = list(small_graphs())
        for g in catalogue_t1_graphs():
            graphs += [(g.n, edge_list(g)), (g.n, relabeled(g, 1))]
        for n, adj in sample_graphs(seed=5, count=30):
            graphs.append((n, [(v, u) for v in range(n) for u in adj[v] if v < u]))
        total = 0
        for n, edges in graphs:
            adj = adjacency_lists(n, edges)
            search = oracle_mod._Search(n, adj, oracle_mod.DEFAULT_BUDGET)
            for gamma in sum(seeds_of(n, edges), []):
                assert search._is_automorphism(gamma), n
                assert maps_edges_onto_edges(n, edges, gamma), n
                total += 1
        assert total > 0

    def test_local_twin_check_matches_full_automorphism_check(self):
        # A transposition (u v) is an automorphism exactly when
        # N(u) - {v} = N(v) - {u}; _twin_seeds tests only that.
        rng = random.Random(11)
        graphs = [(n, edges) for n, edges in small_graphs() if n <= 8]
        g = graph("C54(2,9,16,20,27)")
        graphs.append((g.n, edge_list(g)))
        for _ in range(120):
            n = rng.randint(2, 14)
            p = rng.choice((0.1, 0.3, 0.5, 0.8))
            graphs.append((n, [pair for pair in combinations(range(n), 2) if rng.random() < p]))
        agree = automorphisms = 0
        for n, edges in graphs:
            adj = adjacency_lists(n, edges)
            search = oracle_mod._Search(n, adj, oracle_mod.DEFAULT_BUDGET)
            for u, v in combinations(range(n), 2):
                gamma = list(range(n))
                gamma[u], gamma[v] = v, u
                full = search._is_automorphism(gamma)
                assert (search.nbr[u] - {v} == search.nbr[v] - {u}) == full, (n, u, v)
                agree += 1
                automorphisms += full
        assert automorphisms > 0 and agree > automorphisms

    def test_consecutive_transpositions_of_each_class(self):
        # Two disjoint 4-cliques: each is a class of closed twins.
        n = 8
        edges = [(a, b) for a, b in combinations(range(n), 2) if (a < 4) == (b < 4)]
        _, twins = seeds_of(n, edges)
        swaps = sorted(tuple(v for v in range(n) if gamma[v] != v) for gamma in twins)
        assert swaps == [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]


class TestBackjump:
    """Jumping back from a leaf that an automorphism maps onto the best leaf
    prunes the search but changes no byte."""

    @staticmethod
    def without_backjump(monkeypatch, n, adj):
        real = oracle_mod._Search._leaf

        def leaf_without_jump(self, colors, path):
            real(self, colors, path)
            return len(path)

        with monkeypatch.context() as patch:
            patch.setattr(oracle_mod._Search, "_leaf", leaf_without_jump)
            return oracle_mod._canonical_search(n, adj, oracle_mod.DEFAULT_BUDGET)

    def assert_same_bytes(self, monkeypatch, n, adj):
        with_jump = oracle_mod._canonical_search(n, adj, oracle_mod.DEFAULT_BUDGET)
        without = self.without_backjump(monkeypatch, n, adj)
        assert with_jump[:2] == without[:2], n
        return with_jump[2], without[2]

    def test_sample_graphs(self, monkeypatch):
        for n, adj in sample_graphs(seed=13, count=150):
            self.assert_same_bytes(monkeypatch, n, adj)

    def test_copies_of_regular_graphs(self, monkeypatch):
        # Many leaves, some equivalent and some not: jumping back further
        # than the common prefix of the two paths changes certificates here.
        for n, adj in copies_of_regular_graphs(seed=2, count=30):
            self.assert_same_bytes(monkeypatch, n, adj)

    def test_catalogue_t1_rows(self, monkeypatch):
        saved = 0
        for g in catalogue_t1_graphs():
            with_jump, without = self.assert_same_bytes(monkeypatch, g.n, g.adjacency)
            saved += without - with_jump
        assert saved > 0


def small_graphs():
    """(n, edges) of the edgeless graph, the complete graph and, at even n,
    two disjoint cliques on n/2 vertices, for n in 0, 1, 2, 8, 24."""
    for n in (0, 1, 2, 8, 24):
        pairs = list(combinations(range(n), 2))
        yield n, []
        yield n, pairs
        if n % 2 == 0:
            yield n, [(a, b) for a, b in pairs if (a < n // 2) == (b < n // 2)]


class TestEdgelessAndComplete:
    """Graphs whose twin classes are everything: the seeds generate the whole
    automorphism group, so the search walks one path."""

    def test_certificates(self):
        for n, edges in small_graphs():
            cert, lab = canonical_edges_of(n, edges)
            assert sorted(lab) == list(range(n))
            relabeled_edges = sorted((min(lab[a], lab[b]), max(lab[a], lab[b])) for a, b in edges)
            assert list(cert) == relabeled_edges
            if len(edges) == n * (n - 1) // 2:
                assert cert == tuple(combinations(range(n), 2))
            elif not edges:
                assert cert == ()
            else:
                half = n // 2  # two cliques, the first at the labels 0..half-1
                assert cert == tuple(
                    (a, b) for a, b in combinations(range(n), 2) if (a < half) == (b < half)
                )
            perm = list(range(n))
            random.Random(n).shuffle(perm)
            shuffled = [(perm[a], perm[b]) for a, b in edges]
            assert canonical_edges_of(n, shuffled)[0] == cert

    def test_node_counts(self):
        # Edgeless, complete, two cliques (even n only). The search without
        # twin seeds and backjumps used 1,795 nodes on both n = 24 graphs.
        expected = {
            0: (1, 1, 1),
            1: (1, 1),
            2: (2, 2, 2),
            8: (8, 8, 13),
            24: (24, 24, 45),
        }
        counts: dict[int, tuple] = {}
        for n, edges in small_graphs():
            nodes = oracle_mod._canonical_search(
                n, adjacency_lists(n, edges), oracle_mod.DEFAULT_BUDGET
            )[2]
            counts[n] = counts.get(n, ()) + (nodes,)
        assert counts == expected


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
            edges = edge_list(CirculantGraph(ConnectionSet(n, tuple(sorted(jumps)))))
            if i % 3 == 1:
                perm = list(range(n))
                rng.shuffle(perm)
                edges = [(perm[a], perm[b]) for a, b in edges]
        yield n, adjacency_lists(n, edges)


def copies_of_regular_graphs(seed: int, count: int):
    """(n, adjacency lists) of two or three disjoint copies of a random 2- or
    3-regular graph on 6 to 12 vertices, relabeled at random."""
    rng = random.Random(seed)
    for _ in range(count):
        size, degree, copies = rng.choice((6, 8, 10, 12)), rng.choice((2, 3)), rng.choice((2, 3))
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < size * degree // 2:  # a union of perfect matchings
            pairs = set()
            for _ in range(degree):
                order = rng.sample(range(size), size)
                pairs |= {tuple(sorted(order[i : i + 2])) for i in range(0, size, 2)}
        n = size * copies
        perm = rng.sample(range(n), n)
        edges = [(perm[a + c * size], perm[b + c * size]) for c in range(copies) for a, b in pairs]
        yield n, adjacency_lists(n, edges)


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


class TestRootRefinement:
    """The search skips the root refinement of a regular graph (every
    circulant), whose one-cell root coloring is already equitable; other
    graphs still refine at the root."""

    @staticmethod
    def refined_root(n, adj) -> tuple[list[int], list]:
        colors, cells = [0] * n, [list(range(n))] + [None] * (n - 1)
        oracle_mod._refine(adj, colors, cells, range(n))
        return colors, cells

    @staticmethod
    def searched_root(n, adj) -> tuple[list[int], list]:
        """The root coloring a whole search leaves: the root refines in
        place, and every child works on copies."""
        colors, cells = [0] * n, [list(range(n))] + [None] * (n - 1)
        oracle_mod._Search(n, adj, oracle_mod.DEFAULT_BUDGET).run(colors, cells, ())
        return colors, cells

    def test_regular_root_does_not_split(self):
        graphs = [
            (n, adj)
            for n, adj in sample_graphs(seed=17, count=30)
            if len({len(row) for row in adj}) == 1
        ]
        graphs += copies_of_regular_graphs(seed=3, count=10)
        assert len(graphs) > 25
        for n, adj in graphs:
            one_cell = ([0] * n, [list(range(n))] + [None] * (n - 1))
            assert self.refined_root(n, adj) == one_cell == self.searched_root(n, adj), n

    def test_star_and_path_split_at_the_root(self):
        # The star has an isolated seventh vertex: rows of 0, 1 and 5 entries.
        star = adjacency_lists(7, [(0, v) for v in range(1, 6)])
        path = adjacency_lists(6, [(v, v + 1) for v in range(5)])
        assert self.refined_root(7, star)[0] == [6, 1, 1, 1, 1, 1, 0]
        assert self.refined_root(6, path)[0] == [0, 2, 4, 4, 2, 0]
        for n, adj in ((7, star), (6, path)):
            assert self.searched_root(n, adj) == self.refined_root(n, adj), n


class TestNodeCounts:
    def test_cycle_needs_three_nodes(self):
        # Root, one child, one leaf: the rotation prunes the root's other
        # children and the reflection the child's.
        assert canonical_form(graph("C54(1)"), budget=3).nodes == 3
        with pytest.raises(BudgetExceeded):
            canonical_form(graph("C54(1)"), budget=2)

    def test_catalogue_t1_pairs(self):
        # Twin seeds and backjumps took these from 184, 771, 768 and 831
        # nodes; certificates and labelings are unchanged
        # (test_pinned_catalogue_type1_members).
        expected = {("a", 3): 155, ("b", 30): 37, ("a", 206): 37, ("b", 206): 104}
        for (name, row), nodes in expected.items():
            record = family_records(name)[row - 1]
            for member in (record.members[0], record.theta_images[2]):
                assert canonical_form(CirculantGraph(member)).nodes == nodes, (name, row)

    def test_isomorphic_sums_both_sides(self):
        # a's full search, then b's up to its first leaf with a's certificate.
        a, b = graph("C54(1,3,17,19)"), graph("C54(3,7,11,25)")
        v = isomorphic(a, b)
        form = canonical_form(a)
        stopped = oracle_mod._canonical_search(
            b.n, b.adjacency, oracle_mod.DEFAULT_BUDGET, form.canonical_edges
        )[2]
        assert (form.nodes, stopped, canonical_form(b).nodes) == (5, 4, 5)
        assert v.nodes == form.nodes + stopped == 9

    def test_timeout_says_how_far_it_got(self):
        # a needs 5 nodes and b 4; the first one gives up after the budget.
        a, b = graph("C54(1,3,17,19)"), graph("C54(3,7,11,25)")
        for budget in (3, 4):
            v = isomorphic(a, b, budget=budget)
            assert v.kind == "timeout"
            assert v.nodes == budget
        assert isomorphic(a, b, budget=5).nodes == 9

    def test_spectral_verdict_uses_no_nodes(self):
        v = isomorphic(graph("C16(1)"), graph("C16(1,2)"))
        assert v.nodes == 0

    def test_serialize_leaves_nodes_out(self):
        v = isomorphic(graph("C8(1,2)"), graph("C8(2,3)"))
        assert v.nodes > 0
        assert v.serialize() == "isomorphic " + " ".join(map(str, v.permutation))


def full_searches(a: CirculantGraph, b: CirculantGraph) -> tuple[tuple, int]:
    """isomorphic's (kind, permutation, certificate) for a cospectral pair,
    rebuilt from two full canonical searches, and their summed nodes."""
    n = a.n
    cert_a, lab_a, nodes_a = oracle_mod._canonical_search(n, a.adjacency, oracle_mod.DEFAULT_BUDGET)
    cert_b, lab_b, nodes_b = oracle_mod._canonical_search(n, b.adjacency, oracle_mod.DEFAULT_BUDGET)
    if cert_a != cert_b:
        return ("non-isomorphic", None, "canonical-form"), nodes_a + nodes_b
    inv_b = [0] * n
    for v in range(n):
        inv_b[lab_b[v]] = v
    return ("isomorphic", tuple(inv_b[lab_a[v]] for v in range(n)), None), nodes_a + nodes_b


class TestStoppedSearch:
    """b's search stops at the first leaf with a's certificate: the leaf the
    full search keeps, since the best leaf changes only for a smaller
    certificate. Kind, permutation and certificate are those of two full
    searches; only the node count falls."""

    @staticmethod
    def assert_matches_full_searches(a: ConnectionSet, b: ConnectionSet) -> tuple[int, int]:
        ga, gb = CirculantGraph(a), CirculantGraph(b)
        v = isomorphic(ga, gb)
        expected, full_nodes = full_searches(ga, gb)
        assert (v.kind, v.permutation, v.certificate) == expected, (a, b)
        assert v.nodes <= full_nodes, (a, b)
        return v.nodes, full_nodes

    def test_unit_multiples(self):
        rng = random.Random(23)
        saved = 0
        for _ in range(40):
            n = rng.randint(16, 54)
            jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(5, n // 2)))
            a = ConnectionSet(n, tuple(sorted(jumps)))
            b = multiply_set(a, rng.choice(units(n)))
            nodes, full_nodes = self.assert_matches_full_searches(a, b)
            saved += full_nodes - nodes
        assert saved > 0

    def test_theta_images_of_catalogue_rows(self):
        for record in random.Random(6).sample(type2_family_records(), 10):
            first, *rest = record.members
            for member in rest:
                self.assert_matches_full_searches(first, member)
        for name, row in CATALOGUE_T1:
            record = family_records(name)[row - 1]
            self.assert_matches_full_searches(record.members[0], record.theta_images[2])

    @pytest.mark.parametrize(
        "a, b",
        [
            ("C54(1,2,3,16,17,19,20)", "C54(1,2,15,16,17,19,20)"),
            ("C25(1,4,5,6,9,11)", "C25(1,4,6,9,10,11)"),
            ("C32(1,4,15,16)", "C32(1,12,15,16)"),
        ],
    )
    def test_pairs_without_a_witness(self, a, b):
        # classify_pair calls these isomorphic with no Type-1/Type-2 witness.
        self.assert_matches_full_searches(cs(a), cs(b))

    @pytest.mark.parametrize("text", ["C48(1,9,17)", "C24(5,8,9,11,12)"])
    def test_canonical_leaf_after_the_first(self, text):
        # The first leaf of these graphs is not their canonical one, so a
        # search that stopped at any leaf would give a wrong verdict.
        self.assert_matches_full_searches(cs(text), cs(text))

    @pytest.mark.parametrize(
        "a, b", [("C20(1,3,4,6)", "C20(1,4,6,7)"), ("C20(1,2,4,9)", "C20(2,3,4,7)")]
    )
    def test_cospectral_non_isomorphic_pair_searches_both_in_full(self, a, b):
        # No leaf of b has a's certificate, so b's search runs to the end;
        # C20(2,3,4,7)'s has 7 nodes, 4 of them down to its first leaf.
        nodes, full_nodes = self.assert_matches_full_searches(cs(a), cs(b))
        assert isomorphic(graph(a), graph(b)).certificate == "canonical-form"
        assert nodes == full_nodes


def test_pinned_certificates_labelings_and_nodes():
    """One sha256 over (certificate, labeling) of C54(1), both sides of the 35
    probe_open_problems pairs and 20 relabelings of C54(1,3,17,19), taken
    from the search that re-sorted every vertex in every round and had no
    twin seeds and no backjumps; the node counts are pinned apart, since
    pruning moves them and must move nothing else."""
    lines = []
    nodes = []

    def add(n, edges):
        adj = adjacency_lists(n, edges)
        cert, lab, used = oracle_mod._canonical_search(n, adj, oracle_mod.DEFAULT_BUDGET)
        lines.append(repr((cert, lab)))
        nodes.append(used)

    cycle = graph("C54(1)")
    add(cycle.n, edge_list(cycle))
    for entry in probe_open_problems().entries:
        for side in (entry.left, entry.right):
            g = CirculantGraph(side)
            add(g.n, edge_list(g))
    g = graph("C54(1,3,17,19)")
    for seed in range(20):
        add(g.n, relabeled(g, seed))
    assert len(lines) == 91
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "74317d3ec8feb684cfbf43702cc852ed18a7a4727b108c9cb2c04b696cdfa178"
    # 923 without the twin seeds and backjumps.
    assert sum(nodes) == 555


def test_pinned_catalogue_type1_members():
    """One sha256 over (member, certificate, labeling) of every member of
    every Type-1 row of family a, then family b, in table order (186
    graphs): the graphs the twin seeds and backjumps act on. The digest is
    that of the search without them; with them no member needs more than
    160 nodes (853 without)."""
    lines = []
    costliest = 0
    for name in ("a", "b"):
        for record in family_records(name):
            if record.verdict.kind != TYPE1:
                continue
            for member in record.members:
                form = canonical_form(CirculantGraph(member))
                lines.append(repr((str(member), form.canonical_edges, form.labeling)))
                costliest = max(costliest, form.nodes)
    assert len(lines) == 186
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4fea32edc2d6e9c3b42dba621463aae534bfc302a1721164ce652d2b6b6a5e3e"
    assert costliest <= 160
