"""Neighborhood hypergraphs, packing, transversality, and private-witness
structures.

A private-witness structure over a hypergraph is a choice of d hyperedges
e_1..e_d together with, for every pair (i, j), a witness vertex lying in
e_i ∩ e_j and in no other chosen edge.  ``find_dsw_structure`` searches for
one exhaustively; ``max_dsw_structure`` finds one of the largest d, and
``max_dsw_size`` reports that d.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .budget import SearchBudget, _Meter, meter_for
from .errors import BadParameter, EmptyGraph, OutOfRange
from .graphs import Graph, _is_int, _listed, _members, _vertex_ids
from .solvers import _mis_search

# symmetry is imported where it is used: without a bytecode cache, its
# compilation would lengthen the start-up of every command, and a command
# that runs no search never needs it
if TYPE_CHECKING:
    from . import symmetry

__all__ = [
    "Hypergraph",
    "DswStructure",
    "neighborhood_hypergraph",
    "packing_number",
    "transversality",
    "dsw_threshold",
    "find_dsw_structure",
    "max_dsw_structure",
    "max_dsw_size",
    "dsw_structure_violations",
]


class Hypergraph:
    """Hypergraph over ground set {0..n-1} with an ordered edge list.

    Edge order is significant (it defines the e_i indexing) and duplicate
    edges are allowed.  The edges are held once, as three bitmask tables
    that every search reads: ``masks[i]`` holds the vertices of edge i,
    ``incidence[v]`` the edges containing vertex v, and ``conflict[i]``
    the edges meeting edge i (itself included).  ``edges`` builds the
    edges as frozensets from ``masks`` on each read.
    """

    __slots__ = ("n", "masks", "incidence", "conflict")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if not _is_int(n) or n < 0:
            raise BadParameter(f"ground-set size must be a non-negative integer, got {n!r}")
        masks = []
        for e in _listed(edges, "hyperedges"):
            mask = sum(1 << v for v in _vertex_ids(e, n, "hyperedge vertex"))
            if not mask:
                raise BadParameter("empty hyperedges are not allowed")
            masks.append(mask)
        self._tabulate(n, masks)

    def _tabulate(self, n: int, masks: list[int]) -> None:
        """Set n and the tables from the edges' vertex masks, nonzero and below 1 << n."""
        self.n = n
        self.masks: tuple[int, ...] = tuple(masks)
        members = [_members(mask) for mask in masks]
        incidence = [0] * n
        for i, vs in enumerate(members):
            bit = 1 << i
            for v in vs:
                incidence[v] |= bit
        self.incidence: tuple[int, ...] = tuple(incidence)
        conflict = []
        for vs in members:
            met = 0
            for v in vs:
                met |= incidence[v]
            conflict.append(met)
        self.conflict: tuple[int, ...] = tuple(conflict)

    @property
    def edges(self) -> tuple[frozenset[int], ...]:
        """The edges as vertex sets, in order, duplicates kept."""
        return tuple(frozenset(_members(mask)) for mask in self.masks)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={len(self.masks)})"


def neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hypergraph whose edge i is the closed neighborhood N[v_i] of vertex i."""
    if g.n == 0:
        raise EmptyGraph("neighborhood hypergraph needs at least one vertex")
    h = Hypergraph.__new__(Hypergraph)
    h._tabulate(g.n, [b | 1 << v for v, b in enumerate(g._bits)])
    return h


def packing_number(h: Hypergraph, budget: SearchBudget | None = None) -> int:
    """Maximum number of pairwise-disjoint hyperedges (exact).

    Computed as a maximum independent set in the edge-intersection graph,
    whose adjacency masks are the per-edge conflict masks less the edge
    itself.  The packing it finds is re-verified on the edges' vertex
    masks to be pairwise disjoint before its size is returned.
    """
    m = len(h.masks)
    if m == 0:
        raise BadParameter("packing number needs at least one hyperedge")
    adjacency = [mask & ~(1 << i) for i, mask in enumerate(h.conflict)]
    packing = _mis_search(adjacency, meter_for(budget))
    union = 0
    for i in packing:
        if union & h.masks[i]:
            raise AssertionError("edges not pairwise disjoint")
        union |= h.masks[i]
    return len(packing)


# -- transversality -----------------------------------------------------


def _cover_lb(conflict: Sequence[int], uncovered: int) -> int:
    # pairwise disjoint uncovered edges need one vertex each: take edges in
    # index order, each one disjoint from all taken before it
    count = 0
    rest = uncovered
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= ~conflict[i]
        count += 1
    return count


def _covers(
    h: Hypergraph,
    sorted_edges: list[list[int]],
    uncovered: int,
    lo: int,
    k: int,
    meter: _Meter,
    lex: symmetry.LexLeader | None = None,
) -> bool:
    """Whether at most k vertices ≥ lo cover the edges of ``uncovered``.

    Depth-first search over ``(uncovered, used)`` nodes on an explicit
    stack, one tick per node, returning at the first cover found.  A node
    branches on one uncovered edge, trying each of its allowed vertices;
    children are pushed in reverse so they are entered in that order.
    With room for two or more vertices, a node is pruned when ``used`` plus
    the disjoint-edge bound of :func:`_cover_lb` exceeds k.  With room for
    one, the node makes no children: a single vertex v closes the cover
    iff it hits every uncovered edge, so it lies in the branching edge and
    ``uncovered & ~incidence[v]`` is 0.  On a maximal triangle-free host
    any two closed neighborhoods meet (the diameter is at most 2), so
    ``_cover_lb`` is always 1 there and that test is the whole last level.

    Orbital branching (Ostrowski, Linderoth, Rossi & Smriglio 2011), given
    the host graph's group by ``lex.group()`` (for a test of every edge,
    ``lo`` = 0): a node whose chosen vertices are C expands one choice per
    orbit of the subgroup generated by the generators that fix every vertex
    of C, the first in branching order.  Each such σ fixes C, so it
    permutes the edges C leaves uncovered and maps every cover through u
    to one through σ(u) of the same size: a failed child proves its whole
    orbit failed.  A node carries the bits of those generators, and a child
    keeps those that also fix its vertex.  Until the group is found, each
    branching node asks for it, in this frame, as a search must run with
    the interpreter's stack nearly full, and records its choices per depth;
    when it comes, the nodes already expanded have pushed every child, and
    :func:`_orbital_stack` prunes those still pending against their finished
    siblings.  Nothing is searched twice, and a trivial group changes nothing.
    """
    incidence, conflict = h.incidence, h.conflict
    opts = [e[bisect_left(e, lo):] for e in sorted_edges]
    # The branching edge is the first uncovered edge (by index) with at most
    # one allowed vertex, else the first with the fewest.  Group the edges
    # into masks by that count, ascending, so a node finds it with one AND
    # per distinct count.
    by_count: dict[int, int] = {}
    for i, o in enumerate(opts):
        c = max(len(o), 1)
        by_count[c] = by_count.get(c, 0) | (1 << i)
    levels = [by_count[c] for c in sorted(by_count)]
    group = None if lex is None else lex.group()
    waiting = lex is not None and group is None
    tried: list[list[int]] = [[]] * k  # per depth, the choices last expanded there
    stack = [(uncovered, 0, 0 if group is None else group.all)]
    while stack:
        uncovered, used, which = stack.pop()
        meter.tick()
        if not uncovered:
            return True
        # an uncovered edge needs one more vertex, and disjoint ones one each
        room = k - used
        if room < 1 or (room > 1 and used + _cover_lb(conflict, uncovered) > k):
            continue
        for level in levels:
            hit = uncovered & level
            if hit:
                break
        choices = opts[(hit & -hit).bit_length() - 1]
        if room == 1:
            for v in choices:
                if not uncovered & ~incidence[v]:
                    return True
            continue
        if waiting:
            group = lex.group()
            if group is None:
                tried[used] = choices
            else:
                waiting = False
                if group.all:
                    stack, which = _orbital_stack(group, stack, tried[:used])
        if which:
            least, fixers = group.least(which), group.fixers
            seen = 0
            kept = []
            for v in choices:
                bit = 1 << least[v]
                if not seen & bit:
                    seen |= bit
                    kept.append(v)
            choices = kept
        for v in reversed(choices):
            stack.append((uncovered & ~incidence[v], used + 1, which and which & fixers[v]))
    return False


def _orbital_stack(
    group: symmetry.Group, stack: list[tuple[int, int, int]], tried: list[list[int]]
) -> tuple[list[tuple[int, int, int]], int]:
    """The pending nodes of a cover test pruned by orbital branching, for a
    group found at a node of depth len(tried), with that node's generator bits.

    The stack holds, per depth j + 1, the untried tail of ``tried[j]``, the
    choices of the path's node at depth j; the path's vertex there is the
    choice just before that tail.  A pending choice is dropped when an
    earlier choice of its node, finished or not, lies in its orbit: the
    nodes left are those the search would have kept with the group from
    its root, each carrying the same generator bits.
    """
    depths: list[list[tuple[int, int, int]]] = [[] for _ in tried]
    for node in stack:
        depths[node[1] - 1].append(node)
    pruned: list[tuple[int, int, int]] = []
    which = group.all
    for used, (choices, pending) in enumerate(zip(tried, depths), 1):
        least = group.least(which)
        t = len(choices) - len(pending)
        seen = {least[v] for v in choices[:t]}
        kept = []
        for v, node in zip(choices[t:], reversed(pending)):
            if least[v] not in seen:
                seen.add(least[v])
                kept.append((node[0], used, which & group.fixers[v]))
        pruned += reversed(kept)
        which &= group.fixers[choices[t - 1]]
    return pruned, which


def transversality(
    h: Hypergraph, budget: SearchBudget | None = None
) -> tuple[int, frozenset[int]]:
    """Exact minimum transversal size with one witness set.

    Both the optimum and the witness come from one cover test
    (:func:`_covers`: an explicit stack, so no recursion as deep as τ, and
    a last cover level closed by one mask test per allowed vertex of the
    branching edge).  τ is the least k, from the disjoint-edge bound
    upward, for which k vertices cover every edge.  The witness is the
    lexicographically least among all minimum transversals, grown vertex
    by vertex: v is kept exactly when the edges that the kept vertices and
    v leave uncovered can be covered by τ - |kept| - 1 vertices above v.

    Symmetry, when edge i of h is the closed neighbourhood N[i] of a graph:
    a search that runs past ``symmetry.START_AFTER`` nodes finds that
    graph's automorphism group (each search its own) and uses it in both
    phases.  The cover tests for τ branch by orbits (:func:`_covers`).  The
    witness phase skips v when some element of the subgroup generated by
    the generators that fix the kept vertices maps v below v (lex-leader
    pruning: Margot 2002, by ``LexLeader.least``); the cover tests it runs
    keep their branching, as σ need not keep vertices ≥ lo.  Such a skipped test fails: were the
    kept P, then v, then R above v a minimum cover, so would be
    C' = P ∪ σ({v} ∪ R), whose least vertex w outside P is at most
    σ(v) < v.  C' extends P ∩ [0, w) and w by vertices above w, so the
    test of w passed, unless w hit nothing new (then C' - w is a smaller
    cover) or was skipped itself (a contradiction by induction on v).
    Neither τ nor the witness changes.
    """
    m = len(h.masks)
    if m == 0:
        raise BadParameter("transversality needs at least one hyperedge")
    meter = meter_for(budget)
    all_edges = (1 << m) - 1
    incidence = h.incidence
    sorted_edges = [_members(mask) for mask in h.masks]
    lex = _lex_leader(h, meter)
    tau = _cover_lb(h.conflict, all_edges)
    while not _covers(h, sorted_edges, all_edges, 0, tau, meter, lex):
        tau += 1
    chosen: list[int] = []
    uncovered = all_edges
    for v in range(h.n):
        if not uncovered:
            break
        if not (incidence[v] & uncovered):
            # v hits nothing new; no minimum transversal keeps it
            continue
        least = None if lex is None else lex.least(chosen)
        if least is not None and least[v] < v:
            continue
        rest = uncovered & ~incidence[v]
        if _covers(h, sorted_edges, rest, v + 1, tau - len(chosen) - 1, meter):
            chosen.append(v)
            uncovered = rest
    if len(chosen) != tau or uncovered:
        raise AssertionError("the reconstructed transversal is not minimum")
    return tau, frozenset(chosen)


# -- the threshold formula ----------------------------------------------


def dsw_threshold(d: int) -> int:
    """The packing-one transversality threshold 11·d²·(d+4)·(d+1)²."""
    if not _is_int(d) or d < 1:
        raise OutOfRange(f"threshold needs d >= 1, got {d!r}")
    return 11 * d * d * (d + 4) * (d + 1) * (d + 1)


# -- private-witness structures -----------------------------------------


@dataclass(frozen=True)
class DswStructure:
    """d chosen hyperedge indices plus a private witness per position pair.

    ``witnesses`` is keyed by position pairs (i, j) with i < j referring to
    positions within ``edge_indices``; the witness lies in both chosen
    edges and in no other chosen edge.  So distinct pairs have distinct
    witnesses: a witness of (i, j) lies in no third chosen edge k, so it
    cannot witness (i, k).
    """

    edge_indices: tuple[int, ...]
    witnesses: dict[tuple[int, int], int]

    @property
    def d(self) -> int:
        try:
            return len(self.edge_indices)
        except TypeError:
            raise BadParameter(f"edge indices {self.edge_indices!r} are not a sequence") from None


def dsw_structure_violations(h: Hypergraph, s: DswStructure) -> list[str]:
    """Independent re-check of the three structure invariants.

    Returns a list of violation descriptions; empty means valid.  Kept
    free of any search-state reuse so it can audit search output.
    """
    try:
        indices = tuple(s.edge_indices)
    except TypeError:
        return [f"edge indices {s.edge_indices!r} are not a sequence"]
    d, m = len(indices), len(h.masks)
    for idx in indices:
        if not (_is_int(idx) and 0 <= idx < m):
            return [f"edge index {idx!r} outside [0, {m})"]
    problems: list[str] = []
    if len(set(indices)) != d:
        problems.append("edge indices are not distinct")
    pairs = {(i, j) for i in range(d) for j in range(i + 1, d)}
    if not isinstance(s.witnesses, Mapping) or set(s.witnesses) != pairs:
        problems.append("witness map does not cover exactly the position pairs")
        return problems
    chosen = [h.masks[idx] for idx in indices]
    for (i, j), y in sorted(s.witnesses.items()):
        if not (_is_int(y) and 0 <= y < h.n and (chosen[i] & chosen[j]) >> y & 1):
            problems.append(f"witness {y!r} for pair ({i},{j}) not in both edges")
            continue
        for k in range(d):
            if k not in (i, j) and chosen[k] >> y & 1:
                problems.append(f"witness {y} for pair ({i},{j}) lies in chosen edge position {k}")
    return problems


def _meeting(incidence: Sequence[int], vertices: int, edges: int) -> int:
    """The edges of ``edges`` that contain some vertex of ``vertices``."""
    met = 0
    while vertices and met != edges:
        low = vertices & -vertices
        met |= incidence[low.bit_length() - 1] & edges
        vertices ^= low
    return met


def _not_containing(incidence: Sequence[int], vertices: int, edges: int) -> int:
    """The edges of ``edges`` that miss some vertex of ``vertices``."""
    inside = edges
    while vertices and inside:
        low = vertices & -vertices
        inside &= incidence[low.bit_length() - 1]
        vertices ^= low
    return edges & ~inside


def _still_open(
    masks: Sequence[int], edges: int, union: int, shrunk: list[int], solos: list[int], room: int
) -> int:
    """The edges of ``edges`` that meet every mask of ``shrunk`` and have
    room for ``room`` more private witnesses; 0 as soon as at most ``room``
    of them can be left, which is too few to complete the choice.

    A completing edge j pairs with each of the ``room`` other edges still to
    come, and those pairs need distinct witnesses outside every chosen edge
    and, for each chosen edge i, distinct witnesses in ``solos[i]`` but not
    in e_j.  So j needs |e_j \\ union| >= room and |s \\ e_j| >= room for
    every solo s.
    """
    tight = solos if room else ()
    outside = ~union
    kept = edges
    spare = edges.bit_count() - room
    while edges:
        low = edges & -edges
        edges ^= low
        mj = masks[low.bit_length() - 1]
        if (mj & outside).bit_count() >= room:
            for s in shrunk:
                if not mj & s:
                    break
            else:
                for s in tight:
                    if (s & ~mj).bit_count() < room:
                        break
                else:
                    continue
        # j failed a test
        kept ^= low
        spare -= 1
        if spare <= 0:
            return 0
    return kept


def _find_dsw(
    h: Hypergraph, d: int, meter: _Meter, lex: symmetry.LexLeader | None
) -> DswStructure | None:
    """First d-edge structure of h in lexicographic order of edge indices, or
    None; a structure is re-checked by :func:`dsw_structure_violations`.

    Forward checking: a node holds the mask ``cands`` of the later edges c
    for which chosen + [c] is still a structure.  The property is
    hereditary, so a child keeps only survivors of its parent's mask; each
    child counts one tick per survivor it tests.  The chosen edges' state
    is kept as vertex masks: ``solo[i]`` holds the vertices in chosen edge
    i and in no other, ``pools`` the eligible witnesses of the position
    pairs (0, 1), (0, 2), (1, 2), (0, 3), ... in that order.  Adding edge c
    turns pool p into p & ~mask[c] and gives the pair (i, c) the pool
    solo[i] & mask[c].  A later edge keeps a choice a structure iff it
    meets every solo mask and contains no pool, so a child filters its
    parent's survivors only by the masks that c created or changed.

    Witness capacity: the witnesses of distinct pairs are distinct, so
    with k edges still needed after c, a survivor j can complete the
    choice only if |e_j \\ U| >= k - 1 (U the union of the chosen edges)
    and |s \\ e_j| >= k - 1 for every solo mask s (:func:`_still_open`);
    at the root, where nothing is chosen, every edge needs |e_j| >= d - 1.
    Survivors that fail are dropped without further ticks.

    Symmetry (unless ``lex`` is None): with two or more edges still needed,
    a candidate c is tried only if it is the least edge of its orbit under
    the subgroup generated by the generators of the host graph's group that
    fix the chosen edges: ``lex.least(chosen)`` gives per edge the least
    edge of its orbit, or None to try every candidate.  Say σ fixes the chosen
    edges and σ(c) < c.  Then σ maps every structure that extends chosen + [c] to a
    structure whose sorted index tuple is lexicographically smaller, so the
    first structure in lexicographic order, which is the least of its
    orbit, is never cut.  The last edge needs no test: the first survivor
    completes that first structure.

    The search runs on an explicit stack of frames ``[cands, solo, pools,
    union]``, the frame at depth k extending the first k chosen edges; a
    frame saves its remaining candidates before it pushes a child.  The top
    frame reads its table each time the loop reaches it: on entry and after
    each child (once the group is found, a cache hit).
    """
    masks, incidence = h.masks, h.incidence
    m = len(masks)
    if d > m:
        return None
    roomy = 0
    for j, mask in enumerate(masks):
        if mask.bit_count() >= d - 1:
            roomy |= 1 << j
    chosen: list[int] = []
    stack = [[roomy, [], [], 0]]
    while stack:
        depth = len(stack) - 1
        del chosen[depth:]
        need = d - depth
        frame = stack[-1]
        cands, solo, pools, union = frame
        least = lex.least(chosen) if lex is not None and need > 1 else None
        while cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            c = low.bit_length() - 1
            if least is not None and least[c] != c:
                continue
            mc = masks[c]
            keep = ~mc
            if need == 1:
                new_pools = [p & keep for p in pools] + [s & mc for s in solo]
                pairs = [(i, j) for j in range(d) for i in range(j)]
                witnesses = {
                    pair: (p & -p).bit_length() - 1 for pair, p in zip(pairs, new_pools)
                }
                found = DswStructure(tuple(chosen) + (c,), witnesses)
                problems = dsw_structure_violations(h, found)
                if problems:
                    raise AssertionError(problems)
                return found
            meter.advance(cands.bit_count())
            fresh = mc & ~union
            survivors = _meeting(incidence, fresh, cands)
            for p in pools:
                if p & mc:
                    survivors = _not_containing(incidence, p & keep, survivors)
            # every survivor met each solo s; it must now meet s & ~mask[c],
            # which needs a test only where c took two or more vertices of s
            shrunk = []
            for s in solo:
                q = s & mc
                if not q & (q - 1):
                    # the pool is one vertex, and no survivor may contain it
                    survivors &= ~incidence[q.bit_length() - 1]
                else:
                    survivors = _not_containing(incidence, q, survivors)
                    shrunk.append(s & keep)
            if survivors.bit_count() < need - 1:
                continue
            new_solo = [s & keep for s in solo] + [fresh]
            if shrunk or need > 2:
                survivors = _still_open(
                    masks, survivors, union | mc, shrunk, new_solo, need - 2
                )
                if survivors.bit_count() < need - 1:
                    continue
            frame[0] = cands
            chosen.append(c)
            new_pools = [p & keep for p in pools] + [s & mc for s in solo]
            stack.append([survivors, new_solo, new_pools, union | mc])
            break
        else:
            # too few candidates left: back to the parent frame
            stack.pop()
    return None


def _lex_leader(h: Hypergraph, meter: _Meter) -> symmetry.LexLeader | None:
    """The lex-leader policy of one call, or None to search without symmetry.

    When edge i of h is the closed neighbourhood N[i] of a graph (membership
    is symmetric and every i lies in edge i), the policy's group is that
    graph's automorphism group, which acts on edge i as on vertex i, since
    σ maps N[i] to N[σ(i)].  Any other hypergraph gets None."""
    masks = h.masks
    if h.incidence != masks or not all(mask >> i & 1 for i, mask in enumerate(masks)):
        return None
    from . import symmetry

    def find(base: Sequence[int]) -> symmetry.Group:
        adjacency = [_members(mask ^ 1 << i) for i, mask in enumerate(masks)]
        return symmetry.graph_automorphisms(adjacency, meter, base)

    return symmetry.LexLeader(find, meter)


def find_dsw_structure(
    h: Hypergraph, d: int, budget: SearchBudget | None = None
) -> DswStructure | None:
    """Exhaustive search for a d-edge private-witness structure.

    Enumerates d-subsets of hyperedge indices in lexicographic tuple order
    with forward checking: a partial choice carries the later edges that
    would keep every pair's eligible pool (e_i ∩ e_j) \\ ∪_{k≠i,j} e_k
    nonempty, a child keeps only those of its parent's that still do, and a
    choice is pruned when too few remain to reach d.  One node is counted
    per such test.  Survivors are then cut by witness capacity: with k
    edges still needed, an edge can complete the choice only if it has
    k - 1 vertices outside every chosen edge and every chosen edge keeps
    k - 1 private vertices outside it (the pair witnesses are distinct).
    The per-pair witness is the smallest eligible vertex id.

    Symmetry, when edge i of h is the closed neighbourhood N[i] of a graph
    (:func:`_lex_leader`; any other hypergraph is searched without it): a
    search that runs past ``symmetry.START_AFTER`` nodes finds that graph's
    automorphism group, and from then on tries an edge only if it is the
    least of its orbit under the group's generators that fix the edges
    chosen before it (lex-leader pruning, by :class:`symmetry.LexLeader`).
    This is exact and changes no answer: an automorphism maps structures to
    structures, so the first structure in lexicographic order, being the
    least of its orbit, passes every test, and the same structure, with the
    same witnesses, is returned.

    Returns the first structure in that order, or None; the result is
    re-checked by :func:`dsw_structure_violations` before being returned.
    """
    if not _is_int(d) or d < 2:
        raise OutOfRange(f"structure search needs d >= 2, got {d!r}")
    meter = meter_for(budget)
    return _find_dsw(h, d, meter, _lex_leader(h, meter))


def max_dsw_structure(
    h: Hypergraph, budget: SearchBudget | None = None
) -> DswStructure | None:
    """A private-witness structure of the largest size d*, or None without edges.

    The structure property is hereditary (dropping an edge only loosens the
    privacy constraints), so d is searched upward from 2 under one meter
    and the first d without a structure ends the search.  The result is
    the structure :func:`find_dsw_structure` returns at d*: the first in
    lexicographic order, with the same witness-capacity and lex-leader
    pruning, which is exact for the same reason.  The group is found at
    most once per call, and the searches for later d reuse it and the
    orbit tables already computed.  A single-edge choice is vacuously
    valid, so when no two edges form a structure the result is edge 0
    alone.
    """
    meter = meter_for(budget)
    m = len(h.masks)
    if m == 0:
        return None
    best = DswStructure(edge_indices=(0,), witnesses={})
    lex = _lex_leader(h, meter)
    for d in range(2, m + 1):
        found = _find_dsw(h, d, meter, lex)
        if found is None:
            break
        best = found
    return best


def max_dsw_size(h: Hypergraph, budget: SearchBudget | None = None) -> int:
    """Largest d admitting a private-witness structure: the size of
    :func:`max_dsw_structure`'s result (upward search with witness-capacity
    pruning), 0 for a hypergraph without edges and at least 1 otherwise.
    """
    best = max_dsw_structure(h, budget)
    return 0 if best is None else best.d
