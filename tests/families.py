"""Small graph constructors, the small graphs up to isomorphism, and derived
witnesses shared by the tests."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from mtfsubdiv import Graph, SubdivisionWitness


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    # one center, n-1 leaves
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def clebsch_graph() -> Graph:
    # the folded 5-cube: strongly regular (16, 5, 0, 2), triangle-free
    return Graph(
        16,
        [(u, v) for u in range(16) for v in range(u) if bin(u ^ v).count("1") in (1, 4)],
    )


def frucht_graph() -> Graph:
    # 3-regular on 12 vertices with no automorphism but the identity
    # (LCF notation [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
    edges |= {tuple(sorted((i, (i + j) % 12))) for i, j in enumerate(lcf)}
    return Graph(12, sorted(edges))


def shrikhande_graph() -> Graph:
    # the Cayley graph of Z4 x Z4 on ±(1, 0), ±(0, 1), ±(1, 1): strongly
    # regular (16, 6, 2, 2) like the 4 x 4 rook's graph, but with an
    # automorphism group of order 192 against the rook's graph's 1,152
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph(
        16,
        [
            (u, v)
            for u in range(16)
            for v in range(u)
            if ((u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4) in steps
        ],
    )


def paw_graph() -> Graph:
    # triangle with a pendant vertex
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (i, a + j) for i in range(a) for j in range(b) if rng.random() < p
    ]
    return Graph(a + b, edges)


def derived_witness(pattern: Graph, mapping: dict[int, int], n: int) -> SubdivisionWitness:
    """``pattern`` drawn with one-edge paths in the graph on the n x positions
    that has exactly its edges: pattern vertex a sits at ``mapping[a]``."""
    paths = {(a, b): (mapping[a], mapping[b]) for a, b in pattern.edges()}
    return SubdivisionWitness(pattern, Graph(n, paths.values()), dict(mapping), paths)


def _canonical(size: int, edges: set[tuple[int, int]]) -> tuple:
    # the least sorted edge list over the relabellings that list the
    # vertices by descending degree: a complete invariant, found by brute
    # force within each degree class
    degree = [0] * size
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    degrees = sorted(set(degree), reverse=True)
    classes = [[v for v in range(size) if degree[v] == d] for d in degrees]
    best = None
    for orders in product(*(permutations(c) for c in classes)):
        new = {v: i for i, v in enumerate(v for order in orders for v in order)}
        key = tuple(sorted(tuple(sorted((new[u], new[v]))) for u, v in edges))
        if best is None or key < best:
            best = key
    return best


def graphs_up_to_isomorphism(n: int) -> list[frozenset[tuple[int, int]]]:
    """One edge set per isomorphism class of graphs on n vertices.

    Classes on n vertices are grown from those on n - 1 by a new vertex
    with every possible neighbourhood, and deduplicated by a brute-force
    canonical form.
    """
    classes = [frozenset()]
    for size in range(2, n + 1):
        seen = {}
        for edges in classes:
            for r in range(size):
                for nbrs in combinations(range(size - 1), r):
                    grown = set(edges) | {(v, size - 1) for v in nbrs}
                    seen.setdefault(_canonical(size, grown), frozenset(grown))
        classes = list(seen.values())
    return classes
