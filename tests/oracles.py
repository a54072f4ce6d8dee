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
    m = len(h.edges)
    for r in range(m, 0, -1):
        for c in combinations(range(m), r):
            if all(
                not (h.edges[i] & h.edges[j]) for i, j in combinations(c, 2)
            ):
                return r
    return 0


def brute_transversal(h: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """(minimum hitting-set size, lexicographically least minimum hitting
    set) of a hypergraph with at least one edge."""
    for k in range(0, h.n + 1):
        for c in combinations(range(h.n), k):
            cs = set(c)
            if all(e & cs for e in h.edges):
                return k, c
    raise AssertionError("unreachable: the whole ground set hits every edge")


def dsw_feasible(h: Hypergraph, chosen: tuple[int, ...]) -> bool:
    """A chosen edge family admits private pair witnesses iff every pair's
    candidate set (intersection minus all other chosen edges) is nonempty;
    candidate sets of different pairs are automatically disjoint."""
    for a, b in combinations(range(len(chosen)), 2):
        cand = h.edges[chosen[a]] & h.edges[chosen[b]]
        for k, e in enumerate(chosen):
            if k not in (a, b):
                cand = cand - h.edges[e]
        if not cand:
            return False
    return True


def brute_first_dsw(
    h: Hypergraph, d: int
) -> tuple[tuple[int, ...], dict[tuple[int, int], int]] | None:
    """First feasible d-combination of edge indices in lexicographic order,
    with the smallest private vertex of each position pair, or None."""
    for chosen in combinations(range(len(h.edges)), d):
        witnesses = {}
        for a, b in combinations(range(d), 2):
            cand = h.edges[chosen[a]] & h.edges[chosen[b]]
            for k, e in enumerate(chosen):
                if k not in (a, b):
                    cand = cand - h.edges[e]
            if not cand:
                break
            witnesses[(a, b)] = min(cand)
        else:
            return chosen, witnesses
    return None


def brute_max_dsw(h: Hypergraph) -> int:
    m = len(h.edges)
    if m == 0:
        return 0
    for r in range(m, 1, -1):
        for c in combinations(range(m), r):
            if dsw_feasible(h, c):
                return r
    return 1


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
    enumeration order)."""
    n, big = pattern.n, host.n
    if n > big:
        return False
    pedges = pattern.edges()

    for images in permutations(range(big), n):
        branch_set = set(images)

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

        def route(k: int, interiors: set[int], edge_sets: list[set[tuple[int, int]]]) -> bool:
            if k == len(pedges):
                if not require_induced:
                    return True
                used = branch_set | interiors
                allowed = set()
                for es in edge_sets:
                    allowed |= es
                for u, v in combinations(sorted(used), 2):
                    if host.has_edge(u, v) and (u, v) not in allowed:
                        return False
                return True
            a, b = pedges[k]
            for path in paths_between(images[a], images[b], interiors):
                inner = set(path[1:-1])
                es = {(min(x, y), max(x, y)) for x, y in zip(path, path[1:])}
                if route(k + 1, interiors | inner, edge_sets + [es]):
                    return True
            return False

        if route(0, set(), []):
            return True
    return False
