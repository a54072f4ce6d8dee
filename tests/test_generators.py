"""Generator contracts: named isomorphisms, maximality, determinism,
synthetic disjointly-witnessed hosts."""

from __future__ import annotations

import hashlib
import time
from itertools import combinations
from math import comb

import pytest

from oracles import bfs_girth, is_isomorphic_small
from mtfsubdiv import (
    BadParameter,
    Graph,
    OutOfRange,
    SyntheticDswSpec,
    chromatic_number,
    find_dsw_structure,
    gen_cycle,
    gen_kneser,
    gen_mycielski,
    gen_petersen,
    gen_random_mtf,
    gen_synthetic_dsw,
    is_maximal_triangle_free,
    is_triangle_free,
    neighborhood_hypergraph,
)
from mtfsubdiv.formats import MAX_VERTICES, to_graph6
from mtfsubdiv.generators import MAX_KNESER_EDGES, MAX_RANDOM_MTF_VERTICES


def test_cycle():
    g = gen_cycle(5)
    assert g.n == 5 and g.m == 5
    assert g.degrees() == [2] * 5
    with pytest.raises(BadParameter):
        gen_cycle(2)


def test_oversized_generators_are_rejected_before_building():
    # each count is computed arithmetically; building most of these graphs
    # would take far more memory than the test machine has, and the
    # Mycielski graph of an edgeless graph on just over half the limit
    # would be one that the package's own parsers reject
    for build in (
        lambda: gen_cycle(MAX_VERTICES + 1),
        lambda: gen_cycle(10**11),
        lambda: gen_kneser(40, 20),
        lambda: gen_random_mtf(MAX_RANDOM_MTF_VERTICES + 1, 0),
        lambda: gen_synthetic_dsw(SyntheticDswSpec(d=1000)),
        lambda: gen_synthetic_dsw(SyntheticDswSpec(d=10**9, pattern_edges=frozenset({(0, 1)}))),
        lambda: gen_mycielski(Graph(MAX_VERTICES // 2 + 1)),
    ):
        with pytest.raises(BadParameter, match="above the limit"):
            build()


def test_petersen_shape():
    g = gen_petersen()
    assert g.n == 10 and g.m == 15
    assert g.degrees() == [3] * 10
    assert bfs_girth(g) == 5


def test_kneser_is_petersen():
    g = gen_kneser(5, 2)
    assert is_isomorphic_small(g, gen_petersen())
    assert g.labels is not None and g.labels[0] == "{0,1}"


def test_kneser_matching():
    # K(4,2): three disjoint pairs, a perfect matching on 6 vertices
    g = gen_kneser(4, 2)
    assert g.n == 6 and g.m == 3
    assert g.degrees() == [1] * 6
    with pytest.raises(BadParameter):
        gen_kneser(3, 2)  # needs n >= 2k
    with pytest.raises(BadParameter):
        gen_kneser(4, True)


def test_kneser_edge_list_is_unchanged_on_small_cases():
    # the edges come in the order of the former set-based pair test
    for n, k in ((5, 2), (6, 2), (7, 3), (8, 3), (9, 4), (6, 1)):
        subsets = list(combinations(range(n), k))
        expected = [
            (i, j)
            for i, j in combinations(range(len(subsets)), 2)
            if not set(subsets[i]) & set(subsets[j])
        ]
        g = gen_kneser(n, k)
        assert g.edges() == expected
        assert g.m == comb(n, k) * comb(n - k, k) // 2


def test_random_mtf_graphs_are_unchanged():
    # the bench's random hosts, the CI checks and the pinned node counts
    # all depend on these graphs, so a change to the process must keep them
    cases = [(n, s) for n in range(1, 41) for s in range(10)] + [(40, 1403), (45, 2)]
    digest = hashlib.sha256()
    for n, s in cases:
        digest.update(to_graph6(gen_random_mtf(n, s)).encode() + b"\n")
    assert digest.hexdigest() == "d332a7a161ae5dd832dfbf69f3a6afd46955e2751d04b0daddeba2a710edf231"


def test_kneser_edge_limit_is_checked_before_building():
    assert gen_kneser(24, 3).m == 1_345_960 <= MAX_KNESER_EDGES
    start = time.perf_counter()
    with pytest.raises(BadParameter, match="edges, above the limit"):
        gen_kneser(60, 3)  # 34,220 vertices, within the vertex limit
    assert time.perf_counter() - start < 0.1


def test_mycielski_of_k2_is_c5():
    assert is_isomorphic_small(gen_mycielski(Graph(2, [(0, 1)])), gen_cycle(5))


def test_mycielski_raises_chromatic_and_keeps_triangle_free():
    g = Graph(2, [(0, 1)])
    for expected_chi in (3, 4):
        g = gen_mycielski(g)
        assert is_triangle_free(g)
        assert chromatic_number(g) == expected_chi
    assert g.n == 11  # the 4-chromatic Mycielski graph


def test_random_mtf_is_maximal_and_deterministic():
    for seed in (0, 1, 7):
        g = gen_random_mtf(18, seed)
        assert is_maximal_triangle_free(g)
        assert g == gen_random_mtf(18, seed)
    assert gen_random_mtf(18, 0) != gen_random_mtf(18, 1)


def test_random_mtf_tiny():
    assert gen_random_mtf(1, 0).n == 1
    g = gen_random_mtf(2, 0)
    assert g.m == 1  # the only maximal triangle-free graph on two vertices
    for n in (0, True):
        with pytest.raises(BadParameter):
            gen_random_mtf(n, 1)


@pytest.mark.parametrize("seed", [None, True, 1.5, "1", [1]])
def test_random_mtf_rejects_a_seed_that_is_no_int(seed):
    # None would seed from the clock, True would act as seed 1, and a list
    # raised a builtins TypeError
    with pytest.raises(BadParameter, match="integer seed"):
        gen_random_mtf(12, seed)


def test_synthetic_dsw_bare_structure():
    spec = SyntheticDswSpec(d=3)
    g, x, wit = gen_synthetic_dsw(spec)
    assert x == frozenset({0, 1, 2})
    assert set(wit.keys()) == {(0, 1), (0, 2), (1, 2)}
    assert g.n == 6
    for (i, j), y in wit.items():
        assert g.has_edge(i, y) and g.has_edge(j, y)
        # y sees exactly its own pair among x-origins plus witnesses
        inside = x | set(wit.values())
        assert set(g.neighbors(y)) & inside == {i, j}
    for u in x:
        for v in x:
            if u < v:
                assert not g.has_edge(u, v)


def test_synthetic_dsw_partial_pattern():
    spec = SyntheticDswSpec(d=4, pattern_edges=frozenset({(0, 1), (2, 3)}))
    g, x, wit = gen_synthetic_dsw(spec)
    assert set(wit.keys()) == {(0, 1), (2, 3)}
    assert g.n == 6


def test_synthetic_dsw_validation():
    with pytest.raises(BadParameter):
        SyntheticDswSpec(d=1).normalized_pairs()
    with pytest.raises(BadParameter):
        SyntheticDswSpec(d=3, pattern_edges=frozenset({(0, 0)})).normalized_pairs()
    # a pattern pair with an item outside [0, d) is out of range, like an edge's
    with pytest.raises(OutOfRange):
        SyntheticDswSpec(d=3, pattern_edges=frozenset({(0, 5)})).normalized_pairs()
    with pytest.raises(BadParameter):
        gen_synthetic_dsw(
            SyntheticDswSpec(d=3, pattern_edges=frozenset({(0, 1)}), padding=True)
        )


def test_synthetic_dsw_padded_is_maximal():
    for d in range(2, 8):
        g, x, wit = gen_synthetic_dsw(SyntheticDswSpec(d=d, padding=True))
        assert is_maximal_triangle_free(g), f"d={d}"
        # the planted structure is still recoverable at size d
        h = neighborhood_hypergraph(g)
        s = find_dsw_structure(h, d)
        assert s is not None and s.d == d


def test_synthetic_dsw_labels():
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=3))
    assert g.labels is not None
    assert g.labels[0] == "x0"
    assert "y0-1" in g.labels
