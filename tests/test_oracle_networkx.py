"""The oracle's verdicts against a third-party isomorphism test.

networkx is in the dev extra only, not a runtime dependency of circio;
these checks run only where it is installed. vf2pp shares no code with the oracle's individualization-refinement
search or with the multiplier and theta algebra.
"""

from __future__ import annotations

import random

import pytest

from circio import (
    CirculantGraph,
    ConnectionSet,
    generate_c1,
    isomorphic,
    probe_open_problems,
    verify_permutation,
)
from helpers import CATALOGUE_T1, edge_list, family_records, type2_family_records

nx = pytest.importorskip("networkx")


def nx_graph(g: CirculantGraph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(edge_list(g))
    return out


def assert_agrees(a: ConnectionSet, b: ConnectionSet) -> str:
    ga, gb = CirculantGraph(a), CirculantGraph(b)
    verdict = isomorphic(ga, gb)
    expected = nx.vf2pp_is_isomorphic(nx_graph(ga), nx_graph(gb))
    assert verdict.kind == ("isomorphic" if expected else "non-isomorphic"), (a, b)
    if expected:
        assert verify_permutation(ga, gb, verdict.permutation)
    return verdict.kind


def assert_links_agree(rows) -> None:
    for record in rows:
        for t in (2, 4):
            assert assert_agrees(record.members[0], record.theta_images[t]) == "isomorphic"


def test_sampled_family_links():
    # vf2pp takes seconds on the densest rows; those run under -m slow.
    sparse = [r for r in type2_family_records() if len(r.members[0].jumps) <= 8]
    assert_links_agree(random.Random(9).sample(sparse, 10))


@pytest.mark.slow
def test_sampled_family_links_of_any_density():
    assert_links_agree(random.Random(10).sample(type2_family_records(), 15))


def test_catalogue_t1_links():
    for name, row in CATALOGUE_T1:
        record = family_records(name)[row - 1]
        assert assert_agrees(record.members[0], record.theta_images[2]) == "isomorphic"


def test_c27_construction_pairs():
    for x in (1, 2):
        for y in range(3):
            for i, j in ((1, 2), (1, 3), (2, 3)):
                a, b = generate_c1(1, 3, x, y, i), generate_c1(1, 3, x, y, j)
                assert a.n == 27
                assert assert_agrees(a, b) == "isomorphic"


def test_probe_open_problems():
    entries = probe_open_problems().entries
    assert len(entries) == 35
    for entry in entries:
        assert assert_agrees(entry.left, entry.right) == entry.verdict.kind
