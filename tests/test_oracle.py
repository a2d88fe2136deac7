"""Canonical labeling and the isomorphism verdicts."""

from __future__ import annotations

import random

import pytest

import circio.oracle as oracle_mod
from circio import (
    BudgetExceeded,
    CirculantGraph,
    ConnectionSet,
    OrderMismatch,
    WitnessMismatch,
    canonical_edges_of,
    canonical_form,
    isomorphic,
    multiply_set,
    units,
    verify_permutation,
)
from helpers import cs


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
        monkeypatch.setattr(oracle_mod._Search, "run", lambda self, colors, path: None)
        with pytest.raises(WitnessMismatch):
            canonical_edges_of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_labeling_that_misses_its_certificate(self, monkeypatch):
        real = oracle_mod.canonical_edges_of

        def wrong_certificate(n, edges, budget):
            cert, lab = real(n, edges, budget)
            return cert[1:], lab

        monkeypatch.setattr(oracle_mod, "canonical_edges_of", wrong_certificate)
        with pytest.raises(WitnessMismatch):
            canonical_form(graph("C16(1,2)"))

    def test_permutation_that_fails_verification(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "verify_permutation", lambda a, b, perm: False)
        with pytest.raises(WitnessMismatch):
            isomorphic(graph("C8(1,2)"), graph("C8(2,3)"))
