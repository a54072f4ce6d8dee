"""Automorphism groups of graphs, for symmetry pruning.

The exact searches build tuples one entry at a time in lexicographic order.
A tuple that is not the least of its orbit under the symmetries of the
input can be skipped (lex-leader pruning: Margot 2002, "Pruning by
isomorphism in branch-and-cut"): at position k a candidate c is tried only
if c is the least point of its orbit under a subgroup of the pointwise
stabiliser of the tuple's first k entries.  The cover test behind τ tries
one choice per orbit of such a subgroup (orbital branching).  Both read
the subgroup generated by the group's generators that fix those entries,
whose orbits :class:`Group` gives.  This module supplies:

- colour refinement of an ordered partition to an equitable one;
- an individualisation–refinement search (McKay & Piperno 2014, "Practical
  graph isomorphism, II") for automorphism generators.  Its first path
  individualises, at every level, the least vertex of a non-singleton
  cell (or the next given base point), and the automorphisms it finds
  form a strong generating set along that path: those fixing the path's
  first k vertices generate their whole pointwise stabiliser.

Everything is pure Python and deterministic, and all work ticks the
caller's meter: one tick per refined search-tree node.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Sequence

from .budget import _Meter

__all__ = [
    "START_AFTER",
    "Group",
    "LexLeader",
    "graph_automorphisms",
]


# Finding a group costs about as much as a search of this many nodes.  So
# a LexLeader prunes nothing until its search has counted this many nodes,
# and a shorter search never pays for it.
START_AFTER = 2_000


# -- colour refinement --------------------------------------------------

# the level of a position that begins no cell
_NO_CELL = 1 << 62

class _Partition:
    """An ordered partition of range(n), refined in place, as in nauty.

    ``lab`` lists the vertices cell by cell, ``start[v]`` is the position
    where v's cell begins and ``size[p]`` the length of the cell beginning
    at p.  ``level[p]`` is the search-tree level at which a cell first began
    at position p (``_NO_CELL`` where none does).  A deeper level only
    splits cells and reorders vertices inside them, so the partition of
    every level above is kept too: ``restore(k)`` returns to it.  One
    partition thus holds a whole path of the search tree in O(n) memory.
    """

    __slots__ = ("lab", "start", "size", "level")

    def __init__(self, n: int):
        # the unit partition: one cell, at level 0
        self.lab = list(range(n))
        self.start = [0] * n
        self.size = [0] * n
        self.level = [_NO_CELL] * n
        if n:
            self.size[0] = n
            self.level[0] = 0

    def copy(self) -> _Partition:
        other = _Partition.__new__(_Partition)
        other.lab, other.start = self.lab[:], self.start[:]
        other.size, other.level = self.size[:], self.level[:]
        return other

    def cell(self, p: int) -> list[int]:
        """The vertices of the cell beginning at p."""
        return self.lab[p : p + self.size[p]]

    def restore(self, k: int) -> None:
        """Return to the partition of level k."""
        lab, start, size, level = self.lab, self.start, self.size, self.level
        cell = 0
        for pos, v in enumerate(lab):
            if level[pos] > k:
                level[pos] = _NO_CELL
            elif pos:
                size[cell] = pos - cell
                cell = pos
            start[v] = cell
        size[cell] = len(lab) - cell

    def refine(
        self,
        adj: Sequence[Sequence[int]],
        queue: list[int],
        k: int,
        expect: list[tuple] | None = None,
    ) -> list[tuple] | None:
        """Refine until equitable; new cells begin at level k.

        ``queue`` holds the start positions of the cells to split by.  A
        cell is split by the number of neighbours its vertices have in the
        splitting cell, fragments in ascending order of that number; a
        fragment is queued unless it is the first largest of a cell that was
        not queued itself (Hopcroft's rule).  Positions only, never vertex
        labels, decide what happens, so an automorphism of the input
        partition is one of the output.

        Returns the trace (each split as splitter, cell and fragment sizes),
        which is equal at equivalent search-tree nodes.  Given the trace
        ``expect`` of another node, it stops at the first split that
        differs from it and returns None: the two nodes are not equivalent.
        """
        lab, start, size, level = self.lab, self.start, self.size, self.level
        trace: list[tuple] = []
        queued = set(queue)
        qi = 0
        while qi < len(queue):
            s = queue[qi]
            qi += 1
            queued.discard(s)
            single = size[s] == 1
            if single:
                # one neighbour count: a hit cell splits into missed and hit
                count: dict[int, int] = {}
                hit: dict[int, list[int]] = {}
                for v in adj[lab[s]]:
                    p = start[v]
                    if size[p] > 1:
                        hit.setdefault(p, []).append(v)
            else:
                count = Counter()
                for u in lab[s : s + size[s]]:
                    count.update(adj[u])
                hit = {}
                for v in count:
                    p = start[v]
                    if size[p] > 1:
                        hit.setdefault(p, []).append(v)
            for p in sorted(hit):
                members = hit[p]
                sz = size[p]
                if single:
                    if len(members) == sz:
                        continue
                    touched = set(members)
                    groups = {0: [v for v in lab[p : p + sz] if v not in touched], 1: members}
                else:
                    groups = {}
                    for v in members:
                        groups.setdefault(count[v], []).append(v)
                    if len(members) < sz:
                        touched = set(members)
                        groups[0] = [v for v in lab[p : p + sz] if v not in touched]
                    if len(groups) == 1:
                        continue
                keys = sorted(groups)
                step = (s, p, tuple((key, len(groups[key])) for key in keys))
                if expect is not None and (len(trace) == len(expect) or expect[len(trace)] != step):
                    return None
                trace.append(step)
                frags = []
                pos = p
                for key in keys:
                    frag = groups[key]
                    lab[pos : pos + len(frag)] = frag
                    for v in frag:
                        start[v] = pos
                    size[pos] = len(frag)
                    if pos != p:
                        level[pos] = k
                    frags.append(pos)
                    pos += len(frag)
                if p in queued:
                    new = frags[1:]
                else:
                    big = max(frags, key=size.__getitem__)
                    new = [f for f in frags if f != big]
                queue.extend(new)
                queued.update(new)
        return trace

    def individualise(
        self, adj: Sequence[Sequence[int]], v: int, k: int, expect: list[tuple] | None = None
    ) -> list[tuple] | None:
        """Split v off the end of its cell as a singleton, at level k, and
        refine: the trace, or None once it left ``expect``.  The rest of
        the cell keeps its start, so this costs no pass over it."""
        lab, start, size = self.lab, self.start, self.size
        p = start[v]
        last = p + size[p] - 1
        i = lab.index(v, p, last + 1)
        lab[last], lab[i] = v, lab[last]
        size[p] -= 1
        size[last] = 1
        start[v] = last
        self.level[last] = k
        trace = self.refine(adj, [last], k, expect)
        if trace is not None:
            trace.append(p)
        return trace


# -- groups ---------------------------------------------------------------


class Group:
    """A permutation group on range(n), held by its generators.

    ``generators`` lists them, none the identity (none for the trivial
    group).  ``fixers[x]`` holds the bits of the generators that fix x and
    ``all`` those of every generator (0 for the trivial group);
    ``least(which)`` gives per point the least point of its orbit under the
    generators whose bits are in ``which``, kept per ``which``.  The
    generators that fix every point of a set generate a subgroup of its
    pointwise stabiliser: all of it when the set begins the first path of
    the search that found them.
    """

    __slots__ = ("n", "generators", "all", "fixers", "_tables")

    def __init__(self, n: int, generators: list[list[int]]):
        self.n = n
        self.generators = generators
        self.all = (1 << len(generators)) - 1
        self.fixers = [sum(1 << i for i, g in enumerate(generators) if g[x] == x) for x in range(n)]
        self._tables: dict[int, list[int]] = {}

    def least(self, which: int) -> list[int]:
        table = self._tables.get(which)
        if table is None:
            gens = [g for i, g in enumerate(self.generators) if which >> i & 1]
            table = self._tables[which] = [-1] * self.n
            for x in range(self.n):
                if table[x] < 0:
                    table[x] = x
                    orbit = [x]
                    for y in orbit:
                        for g in gens:
                            z = g[y]
                            if table[z] < 0:
                                table[z] = x
                                orbit.append(z)
        return table


# -- individualisation–refinement ----------------------------------------


def _is_automorphism(
    adj: Sequence[Sequence[int]], adjsets: Sequence[Iterable[int]], g: list[int]
) -> bool:
    for u, nbrs in enumerate(adj):
        image = adjsets[g[u]]
        for x in nbrs:
            if g[x] not in image:
                return False
    return True


# The most permutation entries the generator search keeps.  A group that
# needs more, such as the symmetric group on 500 or more twins, is given
# up for the trivial group: sound, and memory stays in the megabytes.
_MAX_GENERATOR_ENTRIES = 250_000


def graph_automorphisms(
    adjacency: Sequence[Iterable[int]], meter: _Meter, base: Sequence[int] = ()
) -> Group:
    """The automorphism group of the graph with neighbour lists ``adjacency``,
    acting on its vertices, found along a first path that begins with ``base``.

    First path: at each level individualise the first vertex of ``base``
    that is in a non-singleton cell, else the least such vertex, and
    refine, down to a discrete leaf ζ.  (The first path thus begins with
    the vertices of ``base`` the group moves, whose stabilisers are then
    free.)  Then, level by level from the deepest up, every other vertex w
    of that level's cell whose orbit under the automorphisms found so far
    (all of which fix the path above) differs from the path vertex's is
    tried: the subtree below w is searched for a leaf ξ whose labelling
    differs from ζ's by an automorphism, pruned wherever a refinement
    trace differs from the path's at the same level.  A subtree without
    one proves that w is in no such orbit.  At every level the
    automorphisms found then generate the stabiliser of the path above it,
    so they are a strong generating set along the path's vertices.  The
    path and each subtree search live in one partition each, so memory
    stays linear in the graph however deep the path is.
    """
    adj = [list(a) for a in adjacency]
    n = len(adj)
    adjsets = [frozenset(a) for a in adj]
    path = _Partition(n)
    meter.tick()
    traces = [path.refine(adj, [0] if n else [], 0)]
    choice: list[int] = []  # the vertex individualised at each level
    target: list[int] = []  # the position of its cell
    low = 0  # no vertex below it is in a non-singleton cell
    start, size = path.start, path.size
    while True:
        v = next((v for v in base if size[start[v]] > 1), None)
        if v is None:
            while low < n and size[start[low]] == 1:
                low += 1
            if low == n:
                break
            v = low
        choice.append(v)
        target.append(start[v])
        meter.tick()
        traces.append(path.individualise(adj, v, len(choice)))
    leaf = path.lab
    depth = len(choice)

    def equivalent_leaf(level: int, w: int) -> list[int] | None:
        # depth-first below the path's level-``level`` node and w for a leaf
        # that maps ζ by an automorphism, in one partition restored on the
        # way back up
        work = path.copy()
        at = depth  # the level ``work`` holds, or the one it was left at
        stack = [(level, iter((w,)))]
        while stack:
            j, candidates = stack[-1]
            x = next(candidates, None)
            if x is None:
                stack.pop()
                continue
            meter.tick()
            if at != j:
                work.restore(j)
            at = j + 1
            if work.individualise(adj, x, j + 1, traces[j + 1]) != traces[j + 1]:
                continue
            if j + 1 == depth:
                g = [0] * n
                for a, b in zip(leaf, work.lab):
                    g[a] = b
                if _is_automorphism(adj, adjsets, g):
                    return g
                continue
            stack.append((j + 1, iter(work.cell(target[j + 1]))))
        return None

    # orbits of the automorphisms found so far, as a union-find forest;
    # every one of them fixes the path above the level being explored
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(g: list[int]) -> None:
        for x, y in enumerate(g):
            if x != y:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)

    gens: list[list[int]] = []
    top = path.copy()
    for level in reversed(range(depth)):
        v = choice[level]
        top.restore(level)
        failed: list[int] = []
        for w in sorted(top.cell(target[level])):
            rw = find(w)
            if rw == find(v) or any(find(f) == rw for f in failed):
                continue
            g = equivalent_leaf(level, w)
            if g is None:
                failed.append(w)
                continue
            if (len(gens) + 1) * n > _MAX_GENERATOR_ENTRIES:
                # storing more of a group this large would cost more
                # memory than its pruning can repay; the trivial group
                # is always a sound answer
                return Group(n, [])
            gens.append(g)
            join(g)

    return Group(n, gens)


class LexLeader:
    """The lex-leader policy of a search that extends tuples in lexicographic order.

    ``group(base)`` is the group, found once by ``find(base)`` at the first
    call once ``meter`` has reached ``START_AFTER``, or None before; every
    later call returns it, whatever its ``base``.  ``least(prefix)`` gives,
    per point, the least point of its orbit under the subgroup generated
    by the group's generators that fix every point of ``prefix``, or None
    to let every candidate pass: before the group is found, or when no
    generator fixes the prefix.  A group found at ``least(prefix)`` has
    that prefix opening its first path, so the prefix gets its whole
    pointwise stabiliser.  Each search that prunes by these tables is exact
    under any subgroup of the stabiliser, as its proof only uses elements
    that fix the prefix, so a smaller subgroup prunes less and changes no
    answer.  The test may be applied at any set of nodes, so starting late
    is exact: the subtree the search is in when the group is found is
    finished with its tables.  The cover test of
    ``hypergraphs.transversality`` reads ``group()`` itself (``all`` is 0
    for a trivial group).
    """

    __slots__ = ("_find", "_meter", "_group")

    def __init__(self, find: Callable[[Sequence[int]], Group], meter: _Meter):
        self._find = find
        self._meter = meter
        self._group: Group | None = None  # once found

    def group(self, base: Sequence[int] = ()) -> Group | None:
        if self._group is None:
            if self._meter.nodes < START_AFTER:
                return None
            self._group = self._find(base)
        return self._group

    def least(self, prefix: Sequence[int]) -> list[int] | None:
        group = self.group(prefix)
        if group is None:
            return None
        which, fixers = group.all, group.fixers
        for x in prefix:
            which &= fixers[x]
        return group.least(which) if which else None
