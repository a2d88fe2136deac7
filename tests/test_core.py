"""Connection sets, reduction, circulancy, and spectra."""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circio import (
    CirculantGraph,
    ConnectionSet,
    ZeroJump,
    adjacency_spectrum,
    first_spectral_gap,
    reflexive_reduce,
)
from circio.core import EdgeImage, full_difference_set, is_circulant
from helpers import connection_sets, cs, edge_list

# Imported here, not in the hypothesis body, so no example pays the import.
try:
    import numpy as np
except ImportError:
    np = None


class TestConnectionSet:
    def test_str(self):
        assert str(ConnectionSet(54, (1, 3, 17, 19))) == "C54(1,3,17,19)"

    def test_parse_round_trip(self):
        for text in ("C54(1,3,17,19)", "C16(8)", "C2(1)", "C48(5,9,19)"):
            assert str(cs(text)) == text

    def test_parse_tolerates_whitespace(self):
        assert cs(" C54 ( 1 , 3 , 17 , 19 ) ") == cs("C54(1,3,17,19)")

    def test_parse_reduces(self):
        # 35=54-19, 37=54-17, 51=54-3, 53=54-1
        assert cs("C54(1,3,17,19,35,37,51,53)") == cs("C54(1,3,17,19)")

    def test_parse_takes_every_printed_set(self):
        # str prints a set with no jumps as C<n>(); parse reads it back.
        for n in range(2, 11):
            for k in range(n // 2 + 1):
                for jumps in combinations(range(1, n // 2 + 1), k):
                    cs_ = ConnectionSet(n, jumps)
                    assert ConnectionSet.parse(str(cs_)) == cs_
        assert ConnectionSet.parse("C2()") == ConnectionSet(2, ())
        assert ConnectionSet.parse(" C54 ( ) ") == ConnectionSet(54, ())

    def test_parse_rejects_garbage(self):
        for text in (
            "", "C54", "54(1,2)", "C54(1,2", "C54(,)", "Cx(1)",
            "C54(1,,17)", "C54(1,)", "C54(,1)", "C54(1, 2 3)", "C٥٤(1,3)",
        ):
            with pytest.raises(ValueError):
                ConnectionSet.parse(text)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ConnectionSet(1, (1,))
        with pytest.raises(ValueError):
            ConnectionSet(16, (0,))
        with pytest.raises(ValueError):
            ConnectionSet(16, (9,))  # above n//2
        with pytest.raises(ValueError):
            ConnectionSet(16, (3, 2))  # not increasing
        with pytest.raises(ValueError):
            ConnectionSet(16, (2, 2))  # duplicate

    def test_hashable_and_ordered(self):
        a, b = cs("C16(1,2)"), cs("C16(1,3)")
        assert len({a, b, cs("C16(1,2)")}) == 2
        assert a < b


class TestReflexiveReduce:
    def test_folds_and_sorts(self):
        assert reflexive_reduce([19, 1, 53, 3, 17], 54) == cs("C54(1,3,17,19)")

    def test_zero_jump(self):
        with pytest.raises(ZeroJump):
            reflexive_reduce([54], 54)
        with pytest.raises(ZeroJump):
            reflexive_reduce([1, 108], 54)

    def test_negative_values_fold(self):
        assert reflexive_reduce([-1], 54) == cs("C54(1)")

    @given(connection_sets())
    def test_idempotent(self, a):
        assert reflexive_reduce(a.jumps, a.n) == a

    @given(connection_sets())
    def test_complement_residues_fold_back(self, a):
        assert reflexive_reduce([a.n - j for j in a.jumps], a.n) == a


class TestFullDifferenceSet:
    def test_expands(self):
        assert full_difference_set(cs("C54(1,3,17,19)")) == (1, 3, 17, 19, 35, 37, 51, 53)

    def test_half_jump_once(self):
        assert full_difference_set(cs("C16(8)")) == (8,)

    @given(connection_sets())
    def test_reduces_back(self, a):
        assert reflexive_reduce(full_difference_set(a), a.n) == a


class TestCirculantGraph:
    def test_degree_plain(self):
        assert CirculantGraph(cs("C54(1,3,17,19)")).degree == 8

    def test_degree_half_jump(self):
        assert CirculantGraph(cs("C16(1,8)")).degree == 3

    def test_edge_count_matches_degree(self):
        # verify_permutation counts edges by degree: every adjacency row
        # has degree entries, so there are n * degree / 2 edges.
        g = CirculantGraph(cs("C16(1,2,8)"))
        assert all(len(row) == g.degree for row in g.adjacency)
        assert 2 * len(edge_list(g)) == g.n * g.degree

    @given(connection_sets(max_n=40))
    def test_adjacency_is_regular_and_symmetric(self, a):
        g = CirculantGraph(a)
        adj = g.adjacency
        assert all(len(row) == g.degree for row in adj)
        for v, row in enumerate(adj):
            for u in row:
                assert v in adj[u]


class TestIsCirculant:
    @given(connection_sets(max_n=48))
    def test_round_trip(self, a):
        g = CirculantGraph(a)
        img = EdgeImage(a.n, frozenset(edge_list(g)))
        assert is_circulant(img) == a

    def test_rejects_non_invariant(self):
        # a path is not rotation invariant
        img = EdgeImage(4, frozenset({(0, 1), (1, 2)}))
        assert is_circulant(img) is None

    def test_edge_image_validation(self):
        with pytest.raises(ValueError):
            EdgeImage(4, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            EdgeImage(4, frozenset({(0, 4)}))
        with pytest.raises(ValueError):
            EdgeImage(4, frozenset({(2, 1)}))


class TestSpectrum:
    def test_complete_graph(self):
        # C4(1,2) is K4
        lam = adjacency_spectrum(cs("C4(1,2)"))
        assert lam == pytest.approx([-1.0, -1.0, -1.0, 3.0])

    @pytest.mark.skipif(np is None, reason="numpy is not installed")
    @given(connection_sets(max_n=30))
    def test_matches_dense_eigensolver(self, a):
        n = a.n
        mat = np.zeros((n, n))
        for x, row in enumerate(CirculantGraph(a).adjacency):
            for y in row:
                mat[x, y] = 1.0
        dense = sorted(np.linalg.eigvalsh(mat).tolist())
        ours = adjacency_spectrum(a)
        assert len(ours) == len(dense)
        assert max(abs(x - y) for x, y in zip(ours, dense)) <= 1e-8

    def test_spectra_equal_tolerance(self):
        assert first_spectral_gap([1.0, 2.0], [1.0, 2.0 + 5e-10]) is None
        assert first_spectral_gap([1.0, 2.0], [1.0, 2.0 + 5e-9]) is not None
        assert first_spectral_gap([1.0], [1.0, 2.0]) is not None

    def test_first_spectral_gap(self):
        assert first_spectral_gap([1.0, 2.0], [1.0, 2.5]) == 1
        assert first_spectral_gap([1.0, 2.0], [1.0, 2.0]) is None
        assert first_spectral_gap([1.0], [1.0, 2.0]) == 0

    def test_isomorphic_family_pair_cospectral(self):
        a = adjacency_spectrum(cs("C54(1,3,17,19)"))
        b = adjacency_spectrum(cs("C54(3,7,11,25)"))
        assert first_spectral_gap(a, b) is None
