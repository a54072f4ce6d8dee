"""Independent brute-force reference implementations used to freeze
expected values and cross-check the exact solvers.

Everything here enumerates from first principles (itertools over vertex
tuples, no bitmasks, no shared helpers with the package) so that an
agreement between solver and oracle is meaningful.  Sizes are kept small
by the callers; nothing in this file is clever.
"""

from __future__ import annotations

from itertools import combinations, permutations

from mtfsubdiv import Graph, Hypergraph, SubdivisionWitness


def triangle_exists(g: Graph) -> bool:
    return any(
        g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        for a, b, c in combinations(range(g.n), 3)
    )


def brute_is_mtf(g: Graph) -> bool:
    if triangle_exists(g):
        return False
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v):
            continue
        if not any(g.has_edge(u, w) and g.has_edge(v, w) for w in range(g.n)):
            return False
    return True


def brute_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper k-coloring, by direct backtracking
    over vertices in id order (no saturation heuristic)."""
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in g.neighbors(v) if u < v):
                    colors[v] = c
                    if place(v + 1):
                        return True
            colors[v] = -1
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def check_mycielski_certificate(g: Graph, cert, bound: int) -> bool:
    """Whether cert shows that g contains the k-fold Mycielskian of K2 as
    a subgraph, k = bound - 2, so that χ(g) ≥ bound by Mycielski's theorem.

    cert is (levels, base): levels from the outside in, each an apex and
    its (vertex, shadow) pairs, and base an edge of the innermost level
    (None when g has no edge, which proves a bound of min(n, 1)).  The
    Mycielskian is rebuilt from the base edge outward: each level adds the
    shadow of every vertex built so far, joined to that vertex's built
    neighbours, and its apex, joined to those shadows.  Every vertex must
    be new and every built edge an edge of g.
    """
    levels, base = cert
    if base is None:
        return not levels and bound <= min(g.n, 1)
    vertices = list(base)
    edges = [tuple(base)]
    for apex, pairs in reversed(levels):
        shadow = dict(pairs)
        if not all(v in shadow for v in vertices):
            return False
        new = [shadow[v] for v in vertices] + [apex]
        edges = (
            edges
            + [(shadow[u], v) for u, v in edges]
            + [(u, shadow[v]) for u, v in edges]
            + [(apex, shadow[v]) for v in vertices]
        )
        vertices = vertices + new
    in_range = all(isinstance(v, int) and 0 <= v < g.n for v in vertices)
    return (
        bound == len(levels) + 2
        and in_range
        and len(set(vertices)) == len(vertices) == 3 * 2 ** len(levels) - 1
        and all(g.has_edge(u, v) for u, v in edges)
    )


def pair_loop_has_chord(w: SubdivisionWitness) -> bool:
    """Whether some host edge joins two used vertices of the witness w
    without lying on one of its paths, by testing every pair of used
    vertices."""
    used = set(w.branch_map.values())
    path_edges = set()
    for path in w.paths.values():
        used.update(path)
        for a, b in zip(path, path[1:]):
            path_edges.add((min(a, b), max(a, b)))
    return any(
        w.host.has_edge(u, v) and (u, v) not in path_edges
        for u, v in combinations(sorted(used), 2)
    )


def brute_clique(g: Graph) -> int:
    for r in range(g.n, 0, -1):
        for c in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(c, 2)):
                return r
    return 0


def brute_independence_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximum independent sets, in lexicographic order."""
    for r in range(g.n, -1, -1):
        found = [
            c
            for c in combinations(range(g.n), r)
            if not any(g.has_edge(u, v) for u, v in combinations(c, 2))
        ]
        if found:
            return found
    return [()]


def brute_domination(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(domination number, lexicographically least witness)."""
    closed = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    for k in range(0, g.n + 1):
        for c in combinations(range(g.n), k):
            cs = set(c)
            if all(nb & cs for nb in closed):
                return k, c
    raise AssertionError("unreachable: the whole vertex set dominates")


def brute_packing(h: Hypergraph) -> int:
    edges = h.edges
    m = len(edges)
    for r in range(m, 0, -1):
        for c in combinations(range(m), r):
            if all(
                not (edges[i] & edges[j]) for i, j in combinations(c, 2)
            ):
                return r
    return 0


def brute_transversal(h: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """(minimum hitting-set size, lexicographically least minimum hitting
    set) of a hypergraph with at least one edge."""
    edges = h.edges
    for k in range(0, h.n + 1):
        for c in combinations(range(h.n), k):
            cs = set(c)
            if all(e & cs for e in edges):
                return k, c
    raise AssertionError("unreachable: the whole ground set hits every edge")


def dsw_feasible(h: Hypergraph, chosen: tuple[int, ...]) -> bool:
    """A chosen edge family admits private pair witnesses iff every pair's
    candidate set (intersection minus all other chosen edges) is nonempty;
    candidate sets of different pairs are automatically disjoint."""
    edges = h.edges
    for a, b in combinations(range(len(chosen)), 2):
        cand = edges[chosen[a]] & edges[chosen[b]]
        for k, e in enumerate(chosen):
            if k not in (a, b):
                cand = cand - edges[e]
        if not cand:
            return False
    return True


def brute_first_dsw(
    h: Hypergraph, d: int
) -> tuple[tuple[int, ...], dict[tuple[int, int], int]] | None:
    """First feasible d-combination of edge indices in lexicographic order,
    with the smallest private vertex of each position pair, or None."""
    edges = h.edges
    for chosen in combinations(range(len(edges)), d):
        witnesses = {}
        for a, b in combinations(range(d), 2):
            cand = edges[chosen[a]] & edges[chosen[b]]
            for k, e in enumerate(chosen):
                if k not in (a, b):
                    cand = cand - edges[e]
            if not cand:
                break
            witnesses[(a, b)] = min(cand)
        else:
            return chosen, witnesses
    return None


def brute_max_dsw(h: Hypergraph) -> int:
    m = len(h.masks)
    if m == 0:
        return 0
    for r in range(m, 1, -1):
        for c in combinations(range(m), r):
            if dsw_feasible(h, c):
                return r
    return 1


def group_order(group, base=()) -> int:
    """The order of a permutation group, read from its generators as if they
    were a strong generating set along ``base`` and then the remaining
    points in ascending order: the product, over that sequence, of each
    point's orbit size under the generators that fix every point before it.
    It equals the true order exactly when the generators that fix each
    prefix of the sequence generate that prefix's whole stabiliser."""
    order = 1
    fixing = list(group.generators)
    for x in [*base, *(x for x in range(group.n) if x not in base)]:
        orbit = {x}
        frontier = [x]
        for y in frontier:
            for g in fixing:
                if g[y] not in orbit:
                    orbit.add(g[y])
                    frontier.append(g[y])
        order *= len(orbit)
        fixing = [g for g in fixing if g[x] == x]
    return order


def bfs_girth(g: Graph) -> int | None:
    """Length of a shortest cycle, None for forests."""
    best: int | None = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for x in queue:
                for y in g.neighbors(x):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        cyc = dist[x] + dist[y] + 1
                        if best is None or cyc < best:
                            best = cyc
            queue = nxt
    return best


def is_isomorphic_small(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test with degree pruning; fine to ~12
    vertices."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    n = g1.n
    d1, d2 = g1.degrees(), g2.degrees()
    image = [-1] * n
    taken = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if taken[w] or d1[v] != d2[w]:
                continue
            if all(
                g1.has_edge(v, u) == g2.has_edge(w, image[u])
                for u in range(v)
            ):
                image[v] = w
                taken[w] = True
                if place(v + 1):
                    return True
                taken[w] = False
                image[v] = -1
        return False

    return place(0)


# -- subdivision containment oracle -------------------------------------


def brute_subdivision(pattern: Graph, host: Graph, require_induced: bool = False) -> bool:
    """Existence of a (possibly induced) subdivision of pattern in host by
    exhaustive enumeration: every injective branch map, every system of
    internally disjoint paths.  Separate code path from the package's
    search (no degree feasibility, no distance pruning, different
    enumeration order).

    Induced mode rejects a partial system as soon as its used vertices
    span a host edge that no placed path uses and no later one can: a
    later path adds new interior vertices only, so among the used
    vertices it can add just the edge between its two ends.  Hence two
    adjacent branch images must be the ends of a pattern edge, routed by
    that edge alone, and each path's interior vertices may be adjacent
    only to their neighbours on the path.
    """
    n, big = pattern.n, host.n
    if n > big:
        return False
    pedges = pattern.edges()
    pedge_set = set(pedges)

    for images in permutations(range(big), n):
        branch_set = set(images)
        if require_induced and any(
            host.has_edge(images[a], images[b]) and (a, b) not in pedge_set
            for a, b in combinations(range(n), 2)
        ):
            continue

        def paths_between(s: int, t: int, blocked: set[int]):
            acc = [s]
            acc_set = {s}

            def dfs(x: int):
                if x == t:
                    yield tuple(acc)
                    return
                for y in range(big):
                    if not host.has_edge(x, y) or y in acc_set:
                        continue
                    if y != t and (y in branch_set or y in blocked):
                        continue
                    acc.append(y)
                    acc_set.add(y)
                    yield from dfs(y)
                    acc_set.remove(y)
                    acc.pop()

            if s == t:
                return
            yield from dfs(s)

        def chordless(path: tuple[int, ...], interiors: set[int]) -> bool:
            # the interior vertices of a newly placed path, against every
            # used vertex and each other
            if len(path) > 2 and host.has_edge(path[0], path[-1]):
                return False
            used = branch_set | interiors | set(path)
            for i in range(1, len(path) - 1):
                x = path[i]
                for y in used:
                    if y not in (path[i - 1], path[i + 1]) and y != x and host.has_edge(x, y):
                        return False
            return True

        def route(k: int, interiors: set[int]) -> bool:
            if k == len(pedges):
                return True
            a, b = pedges[k]
            for path in paths_between(images[a], images[b], interiors):
                if require_induced and not chordless(path, interiors):
                    continue
                if route(k + 1, interiors | set(path[1:-1])):
                    return True
            return False

        if route(0, set()):
            return True
    return False
