"""Budgeted exact solvers: chromatic number, clique number, independent sets.

Chromatic number and an optimal coloring come from one DSATUR
branch-and-bound on bitmask state, stopped early by a certified lower
bound from nested Mycielski subgraphs; clique number and maximum
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
from .graphs import Graph, _members, find_triangle

__all__ = [
    "chromatic_coloring",
    "chromatic_number",
    "clique_number",
    "max_independent_set",
    "sqrt_stable_set_triangle_free",
]


# -- chromatic number ---------------------------------------------------


def _greedy_clique_size(g: Graph, order: list[int]) -> int:
    """Largest clique grown greedily from one of the first 16 of ``order``; a lower bound for χ."""
    best = 0
    for start in order[:16]:
        size = 1
        cand = g._bits[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            size += 1
            cand &= g._bits[v]
        best = max(best, size)
    return best


def _shadow_map(
    bits: Sequence[int], h: list[int], mask: int, targets: int, meter: _Meter
) -> dict[int, int] | None:
    """An injective map s from the vertices h (bitmask ``mask``) into the
    mask ``targets`` with N_H(u) ⊆ N(s(u)), or None when there is none.

    This is a bipartite matching, grown one vertex of h at a time by an
    augmenting-path search on an explicit stack of frames [vertex, targets
    it may still try, target it is trying]; each target tried ticks the
    meter.
    """
    allowed = {}
    for u in h:
        ok = targets
        nbrs = bits[u] & mask
        while nbrs and ok:
            v = (nbrs & -nbrs).bit_length() - 1
            nbrs ^= 1 << v
            ok &= bits[v]
        if not ok:
            return None
        allowed[u] = ok
    owner: dict[int, int] = {}
    for u in h:
        seen = 0
        stack = [[u, allowed[u], -1]]
        while stack:
            frame = stack[-1]
            cand = frame[1] & ~seen
            if not cand:
                stack.pop()
                continue
            meter.tick()
            t = (cand & -cand).bit_length() - 1
            seen |= 1 << t
            frame[1] = cand ^ 1 << t
            frame[2] = t
            if t not in owner:
                for v, _, target in stack:
                    owner[target] = v
                break
            v = owner[t]
            stack.append([v, allowed[v], -1])
        else:
            return None
    return {v: t for t, v in owner.items()}


def _mycielski_lower_bound(g: Graph, meter: _Meter) -> tuple[int, tuple]:
    """A lower bound on χ from nested Mycielski subgraphs, with its certificate.

    The Mycielskian M(H) of a graph H adds a shadow u' of each vertex u,
    adjacent to the neighbours of u, and an apex adjacent to every shadow;
    χ(M(H)) = χ(H) + 1 (Mycielski 1955), and a graph containing M(H) as a
    subgraph inherits the bound.  Top-down on the vertices ``alive``, none
    of them isolated in G[alive]: for an apex w (by descending degree in
    ``alive``, then id, at most 16 of them), H is the vertices of ``alive``
    outside N[w], less those isolated in G[H], and the shadows must be an
    injective map s from V(H) into N(w) with N_H(u) ⊆ N(s(u))
    (:func:`_shadow_map`).  The first w with such a map is recorded, and
    the search continues on H; a level with no such w ends it, and the
    bound is 2 plus the number of levels.  A vertex of ``alive`` outside
    N[w] with no neighbour in N(w) has a neighbour in H that no shadow can
    reach, so such a w is skipped before any matching.  Each apex tried
    ticks the meter.

    The certificate is (levels, base): the levels from the outside in,
    each (w, ((u, s(u)), ...)), then an edge of the innermost H, or None
    when g has no edge (the bound is then min(n, 1)).
    """
    bits = g._bits
    members = [v for v in range(g.n) if bits[v]]
    alive = sum(1 << v for v in members)
    levels = []
    while members:
        order = sorted(members, key=lambda v: (-(bits[v] & alive).bit_count(), v))
        for w in order[:16]:
            meter.tick()
            nw = bits[w] & alive
            second = 0
            for x in _members(nw):
                second |= bits[x]
            outside = alive & ~nw & ~(1 << w)
            if outside & ~second:
                continue
            h = [u for u in members if outside >> u & 1 and bits[u] & outside]
            if not h or len(h) > nw.bit_count():
                continue
            mask = sum(1 << u for u in h)
            shadows = _shadow_map(bits, h, mask, nw, meter)
            if shadows is not None:
                levels.append((w, tuple(sorted(shadows.items()))))
                members, alive = h, mask
                break
        else:
            break
    if not members:
        return min(g.n, 1), ((), None)
    u = members[0]
    nbrs = bits[u] & alive
    return len(levels) + 2, (tuple(levels), (u, (nbrs & -nbrs).bit_length() - 1))


def _mycielski_certifies(g: Graph, cert: tuple, bound: int) -> bool:
    """Whether cert proves χ(g) ≥ bound, by one mask pass per level.

    Each level's apex, shadows and H lie, disjoint, inside the previous
    level's H; the apex is adjacent to every shadow, and each shadow to
    the neighbours of its vertex in G[H]; the base is an edge of the
    innermost H.
    """
    levels, base = cert
    if base is None:
        return not levels and bound <= min(g.n, 1)
    bits = g._bits
    inside = (1 << g.n) - 1
    for w, shadows in levels:
        h = sum(1 << u for u, _ in shadows)
        s = sum(1 << t for _, t in shadows)
        if (
            h.bit_count() != len(shadows)
            or s.bit_count() != len(shadows)
            or h & s
            or (h | s) >> w & 1
            or (h | s | 1 << w) & ~inside
            or s & ~bits[w]
            or any(bits[u] & h & ~bits[t] for u, t in shadows)
        ):
            return False
        inside = h
    a, b = base
    in_h = not (1 << a | 1 << b) & ~inside
    return bound == len(levels) + 2 and in_h and bits[a] >> b & 1 == 1


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
    order = sorted(range(n), key=lambda v: (-g._bits[v].bit_count(), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    nb = [sum(1 << pos[w] for w in _members(g._bits[v])) for v in order]
    lower = max(1, _greedy_clique_size(g, order))
    bound, cert = _mycielski_lower_bound(g, meter)
    if bound > lower:
        if not _mycielski_certifies(g, cert, bound):
            raise AssertionError("Mycielski certificate fails")
        lower = bound
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
        meter.tick()
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
    meter = meter_for(budget)
    if g.n == 0:
        return []
    coloring = _dsatur(g, meter)
    classes = [0] * (max(coloring) + 1)
    for v, c in enumerate(coloring):
        classes[c] |= 1 << v
    if not all(classes):
        raise AssertionError("a color between 0 and the largest is unused")
    if any(g._bits[v] & classes[c] for v, c in enumerate(coloring)):
        raise AssertionError("not proper")
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
    coloring.  The search stops at the first coloring that meets its lower
    bound, the larger of a greedy clique and a Mycielski-subgraph bound
    (``_mycielski_lower_bound``, whose certificate is re-checked before it
    is used; its ticks count against the budget).  On triangle-free hosts
    the clique bound is 2, and the Mycielski bound proves χ of the
    Mycielski chain at the first descent.  Returns the number of colors of
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
    here, and the search runs on its explicit stack.  The clique it finds
    is re-verified in ``g`` before its size is returned.
    """
    full = (1 << g.n) - 1
    complement = [full & ~(bits | 1 << v) for v, bits in enumerate(g._bits)]
    clique = _mis_search(complement, meter_for(budget))
    mask = sum(1 << v for v in clique)
    if not all((mask & ~g._bits[v]) == 1 << v for v in clique):
        raise AssertionError("not a clique")
    return len(clique)


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


def _mis_search(bits: Sequence[int], meter: _Meter) -> list[int]:
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
        meter.tick()
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
    pipeline's stable-set stages to a unique deterministic answer.  The set
    is re-verified to be independent before it is returned.
    """
    meter = meter_for(budget)
    if g.n == 0:
        return frozenset()
    stable = _mis_search(g._bits, meter)
    mask = sum(1 << v for v in stable)
    if any(g._bits[v] & mask for v in stable):
        raise AssertionError("not independent")
    return frozenset(stable)


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
    bits, deg = g._bits, g.degrees()
    v_max = max(range(n), key=deg.__getitem__)  # the least of largest degree
    if deg[v_max] >= k:
        return frozenset(_members(bits[v_max])[:k])
    # max degree < ⌊√n⌋: each greedy pick deletes at most Δ+1 ≤ ⌊√n⌋ vertices
    chosen: list[int] = []
    alive = set(range(n))
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        chosen.append(v)
        removed = alive & {v, *_members(bits[v])}
        alive -= removed
        for u in removed:
            for w in alive.intersection(_members(bits[u])):
                deg[w] -= 1
    if len(chosen) < k:
        raise AssertionError(f"greedy found {len(chosen)} < {k} stable vertices")
    return frozenset(chosen)
