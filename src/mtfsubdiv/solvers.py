"""Budgeted exact solvers: chromatic number, clique number, independent sets.

Chromatic number and an optimal coloring come from one DSATUR
branch-and-bound on bitmask state; clique number and maximum
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
    "chromatic_coloring",
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


def _dsatur(g: Graph, meter: _Meter) -> list[int]:
    """Optimal coloring by DSATUR branch-and-bound; color of each vertex.

    Vertices are relabelled by their position in a branching order sorted
    by (-degree, id), and the state is bitmasks over those positions.
    ``forbid[c]`` is the mask of vertices with a neighbour colored c.  The
    saturations of the uncolored vertices are bit-sliced counters:
    ``slices[k]`` holds bit k of every count, and coloring v with c adds
    one to each vertex of ``nb[v] & ~forbid[c] & uncolored`` by a ripple
    carry over the slices.  A saturation is at most ``used``, so the pick
    narrows the uncolored mask through the slices from bit
    ``used.bit_length() - 1`` down to the vertices of largest saturation,
    and takes the first of them in the order.  Each frame saves the
    ``forbid[c]`` and the slice list its color replaced, and undo puts
    them back.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-len(g._adj[v]), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    nb = [sum(1 << pos[w] for w in g._adj[v]) for v in order]
    lower = max(1, _greedy_clique_size(g))
    best = n + 1
    coloring: list[int] = []
    forbid = [0] * n
    slices = [0] * n.bit_length()
    uncolored = (1 << n) - 1
    downs = [range(u.bit_length() - 1, -1, -1) for u in range(n + 1)]
    # frame: [vertex, next color to try, colors used on entry, color limit,
    # forbid[c] and slices before the vertex's current color c, or None
    # while it is uncolored]; the vertices of all frames on the stack are
    # colored while a child runs
    stack: list[list] = []
    used = 0  # colors used by the partial coloring of the node being entered
    while True:
        meter.tick("chromatic_number")
        if used < best:
            if not uncolored:
                best = used
                coloring = [0] * n
                for frame in stack:
                    coloring[order[frame[0]]] = frame[1] - 1
                if best <= lower:
                    return coloring
            else:
                top = uncolored
                for k in downs[used]:
                    tied = top & slices[k]
                    if tied:
                        top = tied
                v = (top & -top).bit_length() - 1
                stack.append([v, 0, used, min(used + 1, best - 1), None, None])
        # move to the next child of the deepest frame that has one left
        while stack:
            frame = stack[-1]
            v, c, used, limit, saved, saved_slices = frame
            bit = 1 << v
            if saved is not None:
                forbid[c - 1] = saved
                slices = saved_slices
                uncolored |= bit
            # trying one fresh color (c == used) breaks color-class symmetry
            while c < limit and forbid[c] & bit:
                c += 1
            if c < limit:
                frame[1] = c + 1
                frame[5] = slices
                saved = frame[4] = forbid[c]
                uncolored ^= bit
                add = nb[v] & ~saved & uncolored
                forbid[c] = saved | nb[v]
                if add:
                    slices = slices[:]
                    k = 0
                    while add:
                        carry = slices[k] & add
                        slices[k] ^= add
                        add = carry
                        k += 1
                if c == used:
                    used += 1
                break
            stack.pop()
        else:
            return coloring


def chromatic_coloring(g: Graph, budget: SearchBudget | None = None) -> list[int]:
    """An optimal proper coloring: the color of each vertex, colors 0..χ-1.

    The coloring is the last improving leaf of the DSATUR search of
    :func:`chromatic_number` (branching on the uncolored vertex of largest
    saturation, ties by descending degree then id; colors 0..used tried in
    order), re-verified here to be proper and to use exactly χ colors.
    Raises BudgetExceeded when the search budget runs out.
    """
    if g.n == 0:
        return []
    coloring = _dsatur(g, meter_for(budget))
    classes = [0] * (max(coloring) + 1)
    for v, c in enumerate(coloring):
        classes[c] |= 1 << v
    assert all(classes), "a color between 0 and the largest is unused"
    assert not any(g._bits[v] & classes[c] for v, c in enumerate(coloring)), "not proper"
    return coloring


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> int:
    """Exact chromatic number by DSATUR-style branch-and-bound.

    Branching always picks the uncolored vertex with the largest saturation
    (distinct neighbor colors), breaking ties by descending degree then by
    id; at each vertex only colors 0..used are tried, so color classes are
    symmetry-broken.  The search state is bitmasks (``_dsatur``):
    per-color masks of the vertices that color is forbidden for, and
    bit-sliced saturation counters, so a node costs a few big-integer
    operations rather than a loop over the branching vertex's neighbours.
    The depth-first search runs on an explicit stack, so its depth is not
    bounded by Python's recursion limit.  Each stack frame fixes its color
    limit min(used + 1, best - 1) when it is entered; together with the
    branching order this fixes the search tree, and so the node count.  No
    coloring bounds the first descent, so its leaf is the greedy DSATUR
    coloring, and the search stops there when that matches the greedy
    clique bound.  Returns the number of colors of
    :func:`chromatic_coloring`'s verified coloring.  Raises BudgetExceeded
    when the search budget runs out.
    """
    coloring = chromatic_coloring(g, budget)
    return max(coloring) + 1 if coloring else 0


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
