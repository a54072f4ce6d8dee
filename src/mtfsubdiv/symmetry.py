"""Automorphism groups of vertex-coloured graphs, for symmetry pruning.

The exact searches build tuples one entry at a time in lexicographic order.
A tuple that is not the least of its orbit under the symmetries of the
input can be skipped (lex-leader pruning: Margot 2002, "Pruning by
isomorphism in branch-and-cut"): at position k a candidate c is tried only
if c is the least point of its orbit under the pointwise stabiliser of the
tuple's first k entries.  This module supplies those stabilisers:

- colour refinement of an ordered partition to an equitable one;
- an individualisation–refinement search (McKay & Piperno 2014, "Practical
  graph isomorphism, II") for automorphism generators.  Its first path
  individualises, at every level, the least vertex of a non-singleton
  cell, and the automorphisms it finds form a strong generating set along
  that path;
- a stabiliser chain (Schreier–Sims; Seress 2003, *Permutation Group
  Algorithms*).  Orbits are read from the chain's generators.  The
  stabiliser of a point off the chain's base comes from a new chain with
  that point first, built by sifting elements of the group until the known
  group order is reached, so the group is never listed.

Everything is pure Python and deterministic, and all work ticks the
caller's meter: one tick per refined search-tree node and one per element
sifted into a new chain.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Iterable, Sequence

from .budget import _Meter

__all__ = [
    "START_AFTER",
    "Group",
    "LexLeader",
    "graph_automorphisms",
    "hypergraph_automorphisms",
]


# Finding a group costs about as much as a search of this many nodes.  So
# a LexLeader prunes nothing until its search has counted this many nodes,
# and a shorter search never pays for it.
START_AFTER = 2_000


def _compose(a: list[int], b: list[int]) -> list[int]:
    """The permutation a∘b: x ↦ a[b[x]]."""
    return list(map(a.__getitem__, b))


def _inverse(a: list[int]) -> list[int]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return inv


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

    def __init__(self, cells: list[list[int]], n: int):
        self.lab: list[int] = []
        self.start = [0] * n
        self.size = [0] * n
        self.level = [_NO_CELL] * n
        for cell in cells:
            p = len(self.lab)
            self.size[p] = len(cell)
            self.level[p] = 0
            for v in cell:
                self.start[v] = p
            self.lab.extend(cell)

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


# -- stabiliser chains --------------------------------------------------


class _Level:
    """One level of a stabiliser chain.

    ``gens`` holds (g, g⁻¹) pairs of group elements that fix every earlier
    base point and ``orbit`` the orbit of ``base`` under them.  The
    transversal, with ``transversal()[x]`` = u⁻¹ for a group element u with
    u(base) = x, is built when first asked for: orbit tests never need it.
    """

    __slots__ = ("base", "n", "gens", "orbit", "_inv")

    def __init__(
        self,
        base: int,
        n: int,
        gens: Iterable[tuple[list[int], list[int]]] = (),
        orbit: list[int] | None = None,
    ):
        self.base = base
        self.n = n
        self.gens = list(gens)
        self.orbit = _orbit(base, [g for g, _ in self.gens]) if orbit is None else orbit
        self._inv: dict[int, list[int]] | None = None

    def transversal(self) -> dict[int, list[int]]:
        if self._inv is None:
            self._inv = {self.base: list(range(self.n))}
            self.orbit = [self.base]
            self._close()
        return self._inv

    def add(self, g: list[int], ginv: list[int]) -> None:
        self.transversal()
        self.gens.append((g, ginv))
        self._close()

    def _close(self) -> None:
        orbit, inv, gens = self.orbit, self._inv, self.gens
        i = 0
        while i < len(orbit):
            x = orbit[i]
            i += 1
            for s, sinv in gens:
                y = s[x]
                if y not in inv:
                    inv[y] = _compose(inv[x], sinv)
                    orbit.append(y)


def _orbit(point: int, gens: list[list[int]]) -> list[int]:
    orbit = [point]
    seen = {point}
    for x in orbit:
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def _sift(levels: list[_Level], g: list[int]) -> tuple[list[int], int]:
    """Strip g through the chain: the residue and the level it stopped at."""
    for i, level in enumerate(levels):
        u = level.transversal().get(g[level.base])
        if u is None:
            return g, i
        g = _compose(u, g)
    return g, len(levels)


class Group:
    """A permutation group on range(n), held as a stabiliser chain.

    ``levels[i]`` carries the stabiliser of the first i base points; its
    generators are a strong generating set, so the group's order is the
    product of the basic orbit lengths.  An empty chain is the trivial
    group.
    """

    __slots__ = ("n", "levels", "order", "_least")

    def __init__(self, n: int, levels: list[_Level]):
        self.n = n
        self.levels = levels
        order = 1
        for level in levels:
            order *= len(level.orbit)
        self.order = order
        self._least: list[int] | None = None

    @property
    def generators(self) -> list[list[int]]:
        return [g for g, _ in self.levels[0].gens] if self.levels else []

    def orbit(self, point: int) -> list[int]:
        """The orbit of ``point``, in discovery order."""
        return _orbit(point, self.generators)

    def least(self) -> list[int]:
        """Per point, the least point of its orbit."""
        if self._least is None:
            least = [-1] * self.n
            gens = self.generators
            for x in range(self.n):
                if least[x] < 0:
                    for y in _orbit(x, gens):
                        least[y] = x
            self._least = least
        return self._least

    def stabiliser(self, point: int, meter: _Meter) -> Group:
        """The subgroup fixing ``point``.

        Free when ``point`` is the first base point or is fixed by the whole
        group.  Next, the strong generators that fix ``point`` are kept on
        the same base; the basic orbits they give multiply to at most the
        order of the group they generate, which is at most |G| / |orbit|,
        so when the product reaches that target they are a strong
        generating set of the stabiliser.  Otherwise a new chain with
        ``point`` as its first base point is built from seeded random
        elements of this one (products of one transversal element per
        level, which are uniform on the group), each stripped through the
        new chain, its residue added, until the new chain reaches this
        group's order.  The order certifies the result, and the seed makes
        it deterministic.
        """
        levels = self.levels
        if not levels:
            return self
        if point == levels[0].base:
            return Group(self.n, levels[1:])
        size = len(self.orbit(point))
        if size == 1:
            return self
        target = self.order // size
        if target == 1:
            return Group(self.n, [])
        n = self.n
        kept = []
        order = 1
        for level in levels:
            gens = [pair for pair in level.gens if pair[0][point] == point]
            orbit = _orbit(level.base, [g for g, _ in gens])
            if len(orbit) > 1:
                kept.append(_Level(level.base, n, gens, orbit))
                order *= len(orbit)
        if order == target:
            return Group(n, kept)
        rng = random.Random(point)
        new = [_Level(point, n)]
        order = 1
        while order < self.order:
            meter.tick()
            g = list(range(n))
            for level in levels:
                inv = level.transversal()
                g = _compose(inv[level.orbit[rng.randrange(len(level.orbit))]], g)
            g, stop = _sift(new, g)
            if stop == len(new):
                moved = next((x for x in range(n) if g[x] != x), None)
                if moved is None:
                    continue
                new.append(_Level(moved, n))
            ginv = _inverse(g)
            for level in new[: stop + 1]:
                level.add(g, ginv)
            order = 1
            for level in new:
                order *= len(level.orbit)
        return Group(n, new[1:])


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


def _automorphisms(
    adj: Sequence[Sequence[int]],
    cells: list[list[int]],
    points: int,
    meter: _Meter,
    base: Sequence[int] = (),
) -> Group:
    """The automorphism group of a vertex-coloured graph, acting on range(points).

    ``adj[v]`` lists v's neighbours and ``cells`` the colour classes in
    order; automorphisms preserve every colour class.  ``points`` must be
    a union of leading colour classes; the group is returned acting on it
    (for a hypergraph's incidence graph: on the edges).

    First path: at each level individualise the first vertex of ``base``
    that is in a non-singleton cell, else the least such vertex, and
    refine, down to a discrete leaf ζ.  (The chain's base thus begins with
    the points of ``base`` the group moves, whose stabilisers are then
    free.)  Then, level by level from the deepest up, every other vertex w
    of that level's cell whose orbit under the automorphisms found so far
    (all of which fix the path above) differs from the path vertex's is
    tried: the subtree below w is searched for a leaf ξ whose labelling
    differs from ζ's by an automorphism, pruned wherever a refinement
    trace differs from the path's at the same level.  A subtree without
    one proves that w is in no such orbit.  At every level the
    automorphisms found then generate the stabiliser of the path above it,
    so they are a strong generating set along the path's vertices.  Levels
    whose vertex is not a point are not explored: their automorphisms fix
    every point.  The path and each subtree search live in one partition
    each, so memory stays linear in the graph however deep the path is.
    """
    n = len(adj)
    identity = list(range(points))
    adjsets = [frozenset(a) for a in adj]
    path = _Partition(cells, n)
    meter.tick()
    traces = [path.refine(adj, [p for p in range(n) if path.level[p] == 0], 0)]
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
    found_below: list[int] = [0] * depth  # gens[:found_below[l]] were found at levels >= l
    orbits: dict[int, list[int]] = {}  # the basic orbit of each explored level
    top = path.copy()
    for level in reversed(range(depth)):
        v = choice[level]
        if v < points:
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
                    return Group(points, [])
                gens.append(g)
                join(g)
            root = find(v)
            orbits[level] = [x for x in range(points) if find(x) == root]
        found_below[level] = len(gens)

    # the automorphisms on the points, each with its inverse
    pairs = []
    for g in gens:
        gp = g[:points]
        pairs.append((gp, _inverse(gp)) if gp != identity else None)
    levels = []
    for level in range(depth):
        v = choice[level]
        if v >= points:
            break
        if len(orbits[level]) > 1:
            gens_below = [pair for pair in pairs[: found_below[level]] if pair]
            levels.append(_Level(v, points, gens_below, orbits[level]))
    return Group(points, levels)


def graph_automorphisms(
    adjacency: Sequence[Iterable[int]], meter: _Meter, base: Sequence[int] = ()
) -> Group:
    """Aut of the graph with neighbour lists ``adjacency``, on its vertices,
    its chain's base beginning with ``base``."""
    adj = [list(a) for a in adjacency]
    n = len(adj)
    return _automorphisms(adj, [list(range(n))] if n else [], n, meter, base)


def hypergraph_automorphisms(
    n: int, edges: Sequence[Iterable[int]], meter: _Meter, base: Sequence[int] = ()
) -> Group:
    """Aut of the hypergraph on {0..n-1} with ``edges``, acting on edge indices,
    its chain's base beginning with the edges ``base``.

    The group is that of the two-coloured incidence graph: edge i is node
    i, vertex v is node m + v, and each edge is joined to its vertices.
    """
    m = len(edges)
    adj: list[list[int]] = [[m + v for v in e] for e in edges] + [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            adj[m + v].append(i)
    cells = [c for c in (list(range(m)), list(range(m, m + n))) if c]
    return _automorphisms(adj, cells, m, meter, base)


class LexLeader:
    """The lex-leader policy of a search that extends tuples in lexicographic order.

    ``least(prefix)`` gives, per point, the least point of its orbit under
    the pointwise stabiliser of ``prefix`` in the group, or None to let
    every candidate pass: before ``meter`` reaches ``START_AFTER``, or once
    the stabiliser is trivial.  The first call past that finds the group
    once, by ``find(prefix)``, the prefix beginning the chain's base; every
    later call only reads tables.  The test may be applied at any set of
    nodes, so starting late is exact: the subtree the search is in when
    the group is found is finished with its tables.  Stabilisers are kept
    per prefix for the life of this object.
    """

    __slots__ = ("_find", "_meter", "_groups", "_found")

    def __init__(self, find: Callable[[Sequence[int]], Group], meter: _Meter):
        self._find = find
        self._meter = meter
        # per prefix asked for, its stabiliser; empty until a nontrivial
        # group is found
        self._groups: dict[tuple[int, ...], Group] = {}
        self._found = False  # whether find has been called

    def least(self, prefix: Sequence[int]) -> list[int] | None:
        groups = self._groups
        if not groups:
            if self._found or self._meter.nodes < START_AFTER:
                return None
            self._found = True
            group = self._find(prefix)
            if group.order == 1:
                return None
            groups[()] = group
        prefix = tuple(prefix)
        if prefix not in groups:
            known = len(prefix) - 1
            while prefix[:known] not in groups:
                known -= 1
            group = groups[prefix[:known]]
            for k in range(known, len(prefix)):
                group = group.stabiliser(prefix[k], self._meter)
                groups[prefix[: k + 1]] = group
        group = groups[prefix]
        return group.least() if group.order > 1 else None
