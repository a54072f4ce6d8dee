"""Graph container and basic predicates against brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from families import complete_bipartite, complete_graph, random_graph
from oracles import brute_is_mtf, triangle_exists
from mtfsubdiv import (
    BadParameter,
    EmptyGraph,
    Graph,
    OutOfRange,
    average_degree,
    find_triangle,
    gen_cycle,
    gen_petersen,
    induced_subgraph,
    is_maximal_triangle_free,
    is_triangle_free,
)


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(1, 0) and g.has_edge(1, 2)
    assert not g.has_edge(0, 3)
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degrees() == [1, 2, 2, 1]
    assert list(g) == [0, 1, 2, 3]


def test_graph_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_graph_rejects_bad_input():
    for n in (-1, True):
        with pytest.raises(BadParameter):
            Graph(n, [])
    with pytest.raises(BadParameter):
        Graph(3, [(0, 0)])
    for labels in (["a"], 5, ["a", 1]):
        with pytest.raises(BadParameter):
            Graph(2, labels=labels)
    # an edge is a pair of integers, and bool is not one
    for edge in [(0, 1, 2), 5, (0,), (True, 2), (True, 1), (0, False)]:
        with pytest.raises(BadParameter):
            Graph(3, [edge])
    with pytest.raises(OutOfRange):
        Graph(3, [(0, 3)])
    with pytest.raises(OutOfRange):
        Graph(3, [(-1, 2)])
    with pytest.raises(OutOfRange):
        Graph(3).neighbors(True)


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_find_triangle_matches_oracle():
    for seed in range(40):
        g = random_graph(8, 0.35, seed)
        tri = find_triangle(g)
        assert (tri is not None) == triangle_exists(g)
        if tri is not None:
            a, b, c = tri
            assert a < b < c
            assert g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)


def test_find_triangle_is_the_first_triangle_by_its_rule():
    # the least vertex u on a triangle, u's least neighbour v on one, and
    # the least common neighbour of u and v, read from neighbour sets
    rng = random.Random(61)
    for trial in range(300):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.random() * 0.4, seed=trial)
        nbrs = [set(g.neighbors(v)) for v in range(n)]
        expect = next(
            (
                tuple(sorted((u, v, min(nbrs[u] & nbrs[v]))))
                for u in range(n)
                for v in sorted(nbrs[u])
                if v > u and nbrs[u] & nbrs[v]
            ),
            None,
        )
        assert find_triangle(g) == expect


def test_triangle_free_families():
    assert is_triangle_free(gen_cycle(5))
    assert is_triangle_free(complete_bipartite(3, 4))
    assert not is_triangle_free(complete_graph(3))
    assert is_triangle_free(Graph(0, []))


def test_maximality_matches_oracle():
    for seed in range(60):
        g = random_graph(7, 0.3, seed)
        assert is_maximal_triangle_free(g) == brute_is_mtf(g)


def test_maximality_named():
    assert is_maximal_triangle_free(gen_cycle(5))
    assert is_maximal_triangle_free(gen_petersen())
    assert is_maximal_triangle_free(complete_bipartite(3, 5))
    # C_6 is triangle-free but not maximal: 0 and 3 share no neighbor
    assert not is_maximal_triangle_free(gen_cycle(6))
    assert not is_maximal_triangle_free(complete_graph(3))


def test_induced_subgraph():
    g = gen_cycle(5)
    sub, mapping = induced_subgraph(g, [0, 1, 3])
    assert mapping == (0, 1, 3)
    assert sub.n == 3
    assert sub.edges() == [(0, 1)]
    empty, empty_map = induced_subgraph(g, [])
    assert empty.n == 0 and empty_map == ()
    # mixed and unhashable items are rejected before any sorting
    for bad in ([0, 5], [True, 2], ["a", 1], [[1], 1]):
        with pytest.raises(OutOfRange):
            induced_subgraph(g, bad)


def test_induced_subgraph_carries_labels():
    g = Graph(3, [(0, 1)], labels=("a", "b", "c"))
    sub, _ = induced_subgraph(g, [0, 2])
    assert sub.labels == ("a", "c")


def test_average_degree():
    assert average_degree(gen_cycle(5)) == Fraction(2)
    assert average_degree(Graph(3, [(0, 1)])) == Fraction(2, 3)
    with pytest.raises(EmptyGraph):
        average_degree(Graph(0, []))
