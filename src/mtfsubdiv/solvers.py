"""Budgeted exact solvers: chromatic number, clique number, independent sets.

Chromatic number is a DSATUR branch-and-bound; clique number and maximum
independent set share one independent-set search, the clique number
running it on the complement.  Both searches are complete, with
deterministic branching orders, so repeated runs on the same input produce
identical answers (and identical witness sets where a witness is returned).
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from .budget import SearchBudget, _Meter, meter_for
from .errors import NotTriangleFree
from .graphs import Graph, find_triangle

__all__ = [
    "chromatic_number",
    "clique_number",
    "max_independent_set",
    "sqrt_stable_set_triangle_free",
]


# -- chromatic number ---------------------------------------------------


def _greedy_clique_size(g: Graph) -> int:
    """Size of a greedily grown clique; a quick lower bound for χ."""
    best = 0
    order = sorted(range(g.n), key=lambda v: (-len(g._adj[v]), v))
    for start in order[: min(g.n, 16)]:
        size = 1
        cand = g._bits[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            size += 1
            cand &= g._bits[v]
        best = max(best, size)
    return best


class _Saturation:
    """DSATUR state, updated in O(deg v) when a vertex v is colored or uncolored.

    Vertices are relabelled by their position in a branching order sorted by
    (-degree, id).  ``forbidden[i]`` has bit c set while some colored
    neighbour of i has color c, and ``rank[i]`` is i's saturation (the
    number of those bits) minus n while i itself is colored, so uncolored
    ranks are the only non-negative ones.  Colorings are undone in reverse
    order, so ``unassign`` only has to clear the bits that ``assign`` set.
    """

    __slots__ = ("adj", "n", "forbidden", "rank")

    def __init__(self, g: Graph, order: list[int]):
        pos = [0] * g.n
        for i, v in enumerate(order):
            pos[v] = i
        self.adj = [tuple(pos[w] for w in g._adj[v]) for v in order]
        self.n = g.n
        self.forbidden = [0] * g.n
        self.rank = [0] * g.n

    def pick(self) -> int:
        """The uncolored vertex of largest saturation, first in the order.

        That is the vertex with the least key (-saturation, -degree, id).
        """
        rank = self.rank
        return rank.index(max(rank))

    def assign(self, v: int, c: int) -> list[int]:
        """Color v with c; returns the neighbours that c newly became
        forbidden for, which ``unassign`` needs."""
        forbidden, rank = self.forbidden, self.rank
        bit = 1 << c
        rank[v] -= self.n
        changed = [w for w in self.adj[v] if not forbidden[w] & bit]
        for w in changed:
            forbidden[w] |= bit
            rank[w] += 1
        return changed

    def unassign(self, v: int, c: int, changed: list[int]) -> None:
        """Undo the latest ``assign(v, c)``, which returned ``changed``."""
        forbidden, rank = self.forbidden, self.rank
        bit = 1 << c
        rank[v] += self.n
        for w in changed:
            forbidden[w] ^= bit
            rank[w] -= 1


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> int:
    """Exact chromatic number by DSATUR-style branch-and-bound.

    Branching always picks the uncolored vertex with the largest saturation
    (distinct neighbor colors), breaking ties by descending degree then by
    id; at each vertex only colors 0..used are tried, so color classes are
    symmetry-broken.  Saturations and forbidden colors are updated
    incrementally (``_Saturation``) instead of being recomputed at every
    node, and the depth-first search runs on an explicit stack, so its
    depth is not bounded by Python's recursion limit.  Each stack frame
    fixes its color limit min(used + 1, best - 1) when it is entered;
    together with the branching order this fixes the search tree, and so
    the node count.  No coloring bounds the first descent, so its leaf is
    the greedy DSATUR coloring, and the search stops there when that
    matches the greedy clique bound.  Raises BudgetExceeded when the search
    budget runs out.
    """
    n = g.n
    if n == 0:
        return 0
    meter = meter_for(budget)
    order = sorted(range(n), key=lambda v: (-len(g._adj[v]), v))
    lower = max(1, _greedy_clique_size(g))
    best = n + 1
    sat = _Saturation(g, order)
    forbidden = sat.forbidden
    # frame: [vertex, next color to try, colors used on entry, color limit,
    # neighbours changed by the vertex's current color or None if uncolored];
    # the vertices of all frames on the stack are colored while a child runs
    stack: list[list] = []
    used = 0  # colors used by the partial coloring of the node being entered
    while True:
        meter.tick("chromatic_number")
        if used < best:
            if len(stack) == n:
                best = used
                if best <= lower:
                    return best
            else:
                stack.append([sat.pick(), 0, used, min(used + 1, best - 1), None])
        # move to the next child of the deepest frame that has one left
        while stack:
            frame = stack[-1]
            v, c, used, limit, changed = frame
            if changed is not None:
                sat.unassign(v, c - 1, changed)
            # trying one fresh color (c == used) breaks color-class symmetry
            free = ~forbidden[v] & ((1 << limit) - (1 << c))
            if free:
                c = (free & -free).bit_length() - 1
                frame[1] = c + 1
                frame[4] = sat.assign(v, c)
                used = max(used, c + 1)
                break
            stack.pop()
        else:
            return best


# -- clique number ------------------------------------------------------


def clique_number(g: Graph, budget: SearchBudget | None = None) -> int:
    """Exact maximum clique size: a maximum independent set of the complement.

    Runs :func:`_mis_search` on the complement's adjacency masks, so the
    greedy clique cover that bounds α there is a greedy coloring bound
    here, and the search runs on its explicit stack.
    """
    full = (1 << g.n) - 1
    complement = [full & ~(bits | 1 << v) for v, bits in enumerate(g._bits)]
    return len(_mis_search(complement, meter_for(budget), label="clique_number"))


# -- maximum independent set -------------------------------------------


def _covered_by_cliques(bits: list[int], cand: int, k: int) -> bool:
    """Whether a greedy clique cover of the vertex mask cand needs at most
    k cliques.

    Each clique starts at the lowest uncovered vertex and grows through
    the lowest common neighbour still uncovered.  An independent set meets
    every clique at most once, so a cover by k cliques bounds α by k.
    """
    while cand:
        if k <= 0:
            return False
        k -= 1
        v = (cand & -cand).bit_length() - 1
        cand &= ~(1 << v)
        grow = cand & bits[v]
        while grow:
            u = (grow & -grow).bit_length() - 1
            cand &= ~(1 << u)
            grow &= bits[u]
    return True


def _mis_search(
    bits: Sequence[int], meter: _Meter, label: str = "max_independent_set"
) -> list[int]:
    """Depth-first maximum independent set search over adjacency bitmasks.

    Branches on the lowest-id candidate, include before exclude, and only
    replaces the incumbent on strictly larger size.  Under that discipline
    the first maximum-size set reached is the lexicographically least one.
    A node is pruned when the chosen vertices plus a greedy clique cover of
    the candidates cannot exceed the incumbent; such a subtree holds no
    strictly larger set, so the prune keeps the answer unchanged.  The
    search runs on an explicit stack of pending nodes, each the number of
    chosen vertices it keeps and its candidate mask; the exclude child is
    pushed below the include child, so nodes are visited in the recursive
    preorder and the stack holds at most one exclude node per level.  Its
    depth is therefore not bounded by Python's recursion limit.
    """
    best: list[int] = []
    chosen: list[int] = []
    stack = [(0, (1 << len(bits)) - 1)]
    while stack:
        k, cand = stack.pop()
        del chosen[k:]
        meter.tick(label)
        if k + cand.bit_count() <= len(best):
            continue
        if not cand:
            best = chosen[:]
            continue
        if _covered_by_cliques(bits, cand, len(best) - k):
            continue
        v = (cand & -cand).bit_length() - 1
        stack.append((k, cand & (cand - 1)))
        chosen.append(v)
        stack.append((k + 1, cand & ~((1 << v) | bits[v])))
    return best


def max_independent_set(g: Graph, budget: SearchBudget | None = None) -> frozenset[int]:
    """Exact maximum independent set.

    Among all maximum-cardinality independent sets, returns the
    lexicographically least (comparing sorted member lists), which pins the
    pipeline's stable-set stages to a unique deterministic answer.
    """
    if g.n == 0:
        return frozenset()
    meter = meter_for(budget)
    return frozenset(_mis_search(g._bits, meter))


# -- polynomial stable set for triangle-free graphs ---------------------


def sqrt_stable_set_triangle_free(g: Graph) -> frozenset[int]:
    """Independent set of size ≥ ⌊√n⌋ in a triangle-free graph, in poly time.

    Either some vertex has degree ≥ ⌊√n⌋ and its neighborhood (independent,
    since g has no triangle) truncated to that size is returned, or the
    maximum degree is below ⌊√n⌋ and minimum-degree greedy yields at least
    n/(Δ+1) ≥ ⌊√n⌋ vertices.
    """
    tri = find_triangle(g)
    if tri is not None:
        raise NotTriangleFree(f"graph contains triangle {tri}")
    n = g.n
    if n == 0:
        return frozenset()
    k = isqrt(n)
    v_max = min(range(n), key=lambda v: (-len(g._adj[v]), v))
    if len(g._adj[v_max]) >= k:
        return frozenset(sorted(g._adj[v_max])[:k])
    # max degree < ⌊√n⌋: each greedy pick deletes at most Δ+1 ≤ ⌊√n⌋ vertices
    chosen: list[int] = []
    alive = set(range(n))
    deg = {v: len(g._adj[v] & alive) for v in alive}
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        chosen.append(v)
        removed = ({v} | g._adj[v]) & alive
        alive -= removed
        for u in removed:
            for w in g._adj[u]:
                if w in alive:
                    deg[w] -= 1
    assert len(chosen) >= k
    return frozenset(chosen)
