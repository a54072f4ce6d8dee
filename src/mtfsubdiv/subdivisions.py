"""Subdivision witnesses: verification, exact search, and the lifting step
from a derived graph back into its maximal triangle-free host.

A subdivision witness maps pattern vertices to branch vertices of the host
and realizes every pattern edge as a host path (length ≥ 1, so unsubdivided
edges are allowed); the paths are internally disjoint.  In the induced
variant the host subgraph induced on all used vertices must equal the
subdivided pattern exactly, with no chords.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

from .budget import SearchBudget, _Meter, meter_for
from .errors import BadParameter, InconsistentWitnesses, OutOfRange, PreconditionViolated
from .graphs import Graph, _is_int, _members, _vertex_ids, _vertex_pair

__all__ = [
    "SubdivisionWitness",
    "WitnessCheck",
    "verify_witness",
    "find_subdivision",
    "derived_graph",
    "lift_to_induced_subdivision",
]


@dataclass(frozen=True)
class SubdivisionWitness:
    """A (possibly induced) subdivision of ``pattern`` inside ``host``.

    ``branch_map`` sends each pattern vertex to its branch vertex;
    ``paths`` sends each pattern edge (u, v) with u < v to the host path
    realizing it, listed from branch_map[u] to branch_map[v].  ``induced``
    records the mode the witness was found or built under; verification is
    always re-run independently of this flag.
    """

    pattern: Graph
    host: Graph
    branch_map: dict[int, int]
    paths: dict[tuple[int, int], tuple[int, ...]]
    induced: bool = False

    def used_vertices(self) -> set[int]:
        used = set(self.branch_map.values())
        for path in self.paths.values():
            used.update(path)
        return used

    def path_edges(self) -> set[tuple[int, int]]:
        edges: set[tuple[int, int]] = set()
        for path in self.paths.values():
            for a, b in zip(path, path[1:]):
                edges.add((min(a, b), max(a, b)))
        return edges


@dataclass(frozen=True)
class WitnessCheck:
    """Boolean verification outcome plus a reason code when it fails."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_witness(w: SubdivisionWitness, require_induced: bool) -> WitnessCheck:
    """Re-check every witness invariant from scratch.

    Works purely from the witness fields, independent of how the witness
    was produced.  Returns a falsy check with a machine-readable
    ``reason`` on the first violated invariant.
    """
    p, h, branch_map, paths = w.pattern, w.host, w.branch_map, w.paths
    # each type test spares the usual container its slower ABC check
    if not (type(branch_map) is dict or isinstance(branch_map, Mapping)):
        return WitnessCheck(False, "branch-map-domain")
    if set(branch_map) != set(range(p.n)):
        return WitnessCheck(False, "branch-map-domain")
    images = list(branch_map.values())
    for v in images:
        if not (_is_int(v) and 0 <= v < h.n):
            return WitnessCheck(False, "branch-out-of-range")
    if len(set(images)) != len(images):
        return WitnessCheck(False, "branch-not-injective")
    if not (type(paths) is dict or isinstance(paths, Mapping)) or set(paths) != set(p.edges()):
        return WitnessCheck(False, "paths-domain")
    branch_set = set(images)
    interiors_seen: set[int] = set()
    # per used vertex, the mask of its neighbours along the paths
    path_nb: dict[int, int] = {}
    for (a, b) in sorted(paths):
        path = paths[(a, b)]
        if not (type(path) is tuple or isinstance(path, Sequence)):
            return WitnessCheck(False, "path-not-a-sequence")
        if len(path) < 2:
            return WitnessCheck(False, "path-too-short")
        for v in path:
            if not (_is_int(v) and 0 <= v < h.n):
                return WitnessCheck(False, "path-out-of-range")
        if path[0] != branch_map[a] or path[-1] != branch_map[b]:
            return WitnessCheck(False, "path-endpoints")
        if len(set(path)) != len(path):
            return WitnessCheck(False, "path-repeats-vertex")
        for u, v in zip(path, path[1:]):
            if not h._bits[u] >> v & 1:
                return WitnessCheck(False, "path-not-adjacent")
            path_nb[u] = path_nb.get(u, 0) | 1 << v
            path_nb[v] = path_nb.get(v, 0) | 1 << u
        interior = set(path[1:-1])
        if interior & branch_set:
            return WitnessCheck(False, "interior-hits-branch-vertex")
        if interior & interiors_seen:
            return WitnessCheck(False, "paths-share-interior")
        interiors_seen |= interior
    if require_induced:
        # a chord is a host edge between used vertices that no path uses
        used = branch_set | interiors_seen
        used_mask = 0
        for u in used:
            used_mask |= 1 << u
        for u in used:
            if h._bits[u] & used_mask & ~path_nb.get(u, 0):
                return WitnessCheck(False, "chord")
    return WitnessCheck(True, None)


# -- exact search -------------------------------------------------------


def _bfs_dist(bits: tuple[int, ...], n: int, target: int, allowed: int) -> list[int]:
    """BFS distances to target inside the vertex mask ``allowed``.

    ``bits`` are the host's adjacency masks.  The search runs layer by
    layer on masks; a vertex it does not reach gets distance n, which
    exceeds every distance in the graph.
    """
    dist = [n] * n
    dist[target] = 0
    seen = frontier = 1 << target
    d = 0
    while frontier:
        d += 1
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= bits[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & allowed & ~seen
        seen |= frontier
        layer = frontier
        while layer:
            low = layer & -layer
            dist[low.bit_length() - 1] = d
            layer ^= low
    return dist


def _pattern_conditions(pattern: Graph, porder: list[int], meter: _Meter) -> list[tuple[int, ...]]:
    """Grochow–Kellis symmetry-breaking conditions on branch images.

    For the k-th vertex v of ``porder`` and every other vertex w in the
    orbit of v under the automorphisms fixing ``porder[:k]`` pointwise, a
    branch map phi must satisfy phi(v) < phi(w).  Such a w comes later in
    ``porder``.  The pattern is relabelled so that ``porder`` is its vertex
    order, and its group is found by the individualisation–refinement
    search, whose first path takes the least non-singleton vertex at every
    level: so the generators that fix vertices 0..k-1 generate their whole
    pointwise stabiliser, and the orbit of k under them is read from the
    group's tables, as :class:`symmetry.LexLeader` reads the host's.
    Returns ``below`` with ``below[w]`` the vertices whose images must be
    smaller than w's image.  Of each orbit of injective maps under
    Aut(pattern), exactly one map meets every condition.
    """
    # imported on first use, so that start-up does not compile it
    from . import symmetry

    rank = {v: i for i, v in enumerate(porder)}
    adj = [[rank[u] for u in _members(pattern._bits[v])] for v in porder]
    group = symmetry.graph_automorphisms(adj, meter)
    below: list[list[int]] = [[] for _ in range(pattern.n)]
    which = group.all
    k = 0
    while which:
        least = group.least(which)
        for w in range(k + 1, pattern.n):
            if least[w] == least[k]:
                below[porder[w]].append(porder[k])
        which &= group.fixers[k]
        k += 1
    return [tuple(b) for b in below]


def _chains(pattern: Graph, suppress: bool) -> tuple[set[int], list[tuple[int, ...]]]:
    """The branch vertices of ``pattern`` and its chains, as walks of its vertices.

    With ``suppress`` the branch vertices are those of degree ≠ 2 and the
    least vertex of each cycle component, its anchor, and a chain is a
    maximal walk between them through vertices of degree 2; it is a loop
    when it ends where it starts.  Without it every vertex is a branch
    vertex and every edge a chain.  A chain starts at its lower end, towards
    that end's lower neighbour.
    """
    bits = pattern._bits
    inner = [suppress and d == 2 for d in pattern.degrees()]
    seen = [False] * pattern.n
    branch: set[int] = set()
    chains = []
    for anchors in (False, True):
        for b in range(pattern.n):
            if inner[b] != anchors or seen[b]:
                continue
            inner[b] = False
            branch.add(b)
            for c in _members(bits[b]):
                if inner[c] and not seen[c]:
                    walk = [b, c]
                    while inner[walk[-1]]:
                        seen[walk[-1]] = True
                        walk.append((bits[walk[-1]] & ~(1 << walk[-2])).bit_length() - 1)
                    chains.append(tuple(walk))
                elif b < c and not inner[c]:
                    chains.append((b, c))
    return branch, chains


class _SubdivSearch:
    """Backtracking state for one find_subdivision call.

    In induced mode the pattern's vertices of degree 2 are suppressed
    (:func:`_chains`): only the branch vertices are placed, and a chain of
    k edges is routed as one chordless host path of at least k edges.  A
    loop, or the cycle of an anchor, at image a is two host neighbours
    x < y of a joined by such a path of at least k − 2 edges, or by their
    edge when k is 3; a cycle's other vertices lie above a.  The k-th inner
    vertex of a chain takes the k-th interior vertex of its path.  Plain
    mode places every vertex, since there a chord may not shortcut a path
    of a minimum length.

    Branch maps are tuples of host vertices, the images of the branch
    vertices in ``porder``, tried in lexicographic order.  Two filters cut
    them, one per symmetry group:

    - pattern side: the images must meet the symmetry-breaking conditions
      of :func:`_pattern_conditions`, so one map per orbit of Aut(pattern)
      is tried;
    - host side: the image c at position k must be the least vertex of its
      orbit under the subgroup generated by the generators of Aut(host)
      that fix the first k images (lex-leader pruning by
      :class:`symmetry.LexLeader`), once the call has counted
      ``symmetry.START_AFTER`` nodes.

    Say a witness exists.  The least branch map of a witness passes both
    filters: a failed pattern condition names a π in Aut(pattern) that
    makes it smaller, and a failed host test a σ in Aut(host) fixing the
    first k images and lowering the k-th, which moves the witness to one
    whose map, once each anchor is again its cycle's least vertex, is
    smaller.  So the search returns the same branch map as without the
    host filter.  The branch vertices open the base of the pattern
    conditions, which thus see Aut(pattern) act on them.

    Chains are routed along chordless host paths only, in both modes: any
    witness can be shortened to one whose paths are chordless, because a
    chord cuts a path to a sub-path with fewer interior vertices.

    Host state is kept as vertex bitmasks over the host's adjacency masks
    ``host._bits``: ``branch_used`` holds the branch images, the routing
    passes the interiors of the paths routed so far down as a mask, and
    ``owner[hv]`` is the pattern vertex placed on the host vertex hv (read
    only while hv is in ``branch_used``).  Every vertex the loops handle
    comes from the host itself, so no per-call vertex check is made.
    Assignment and routing both run on explicit stacks, so a pattern of
    any size needs no deep recursion.
    """

    def __init__(self, pattern: Graph, host: Graph, induced: bool, meter: _Meter):
        self.p = pattern
        self.h = host
        self.induced = induced
        self.meter = meter
        self.bits = host._bits
        self.pbits = pattern._bits
        self.full = (1 << host.n) - 1
        self.branch: dict[int, int] = {}
        self.owner = [0] * host.n
        self.branch_used = 0
        self.pdeg = pdeg = pattern.degrees()
        branch, self.chains = _chains(pattern, induced)
        self.routes: list[tuple[int, ...]] = [()] * len(self.chains)
        # branch vertices by descending degree, ties by id, then the rest; a
        # lone branch vertex has no condition to meet
        order = sorted(range(pattern.n), key=lambda v: (v not in branch, -pdeg[v], v))
        self.porder = order[: len(branch)]
        self.below = [()] * pattern.n
        if len(branch) > 1:
            self.below = _pattern_conditions(pattern, order, meter)
        self.hdeg = host.degrees()
        self.adj = [_members(b) for b in host._bits]

    def run(self) -> SubdivisionWitness | None:
        for _ in self._branch_maps():
            if self._route():
                witness = SubdivisionWitness(self.p, self.h, *self._expand(), self.induced)
                check = verify_witness(witness, self.induced)
                if not check.ok:
                    raise AssertionError(check.reason)
                return witness
        return None

    def _expand(self) -> tuple[dict[int, int], dict[tuple[int, int], tuple[int, ...]]]:
        """The pattern's branch map and paths: the k-th vertex of a chain
        takes the k-th vertex of its route, and its last edge the rest."""
        branch = dict(self.branch)
        paths = {}
        for walk, path in zip(self.chains, self.routes):
            last = len(walk) - 2
            for i, (u, v) in enumerate(zip(walk, walk[1:])):
                step = path[i : i + 2] if i < last else path[i:]
                branch[v] = step[-1]
                paths[(u, v) if u < v else (v, u)] = step if u < v else step[::-1]
        return branch, paths

    # branch-vertex assignment ------------------------------------------

    def _branch_maps(self):
        """Set ``self.branch`` to each branch map in search order, yielding after each.

        An explicit stack of levels: ``image`` holds the host vertices placed
        so far.  Every step at level i reads the level's table from the
        call's :class:`symmetry.LexLeader` (per host vertex, the least of
        its orbit under the generators of Aut(host) that fix the images
        above level i; once the group is found, a cache hit).
        """
        from . import symmetry

        porder, n = self.porder, self.h.n
        size = len(porder)
        if size == 0:
            yield
            return
        meter = self.meter
        lex = symmetry.LexLeader(partial(symmetry.graph_automorphisms, self.adj, meter), meter)
        image: list[int] = []
        nxt = [0] * size
        nxt[0] = self._first_image(porder[0])
        i = 0
        while i >= 0:
            pv = porder[i]
            if len(image) > i:
                # back at this level: lift its image
                hv = image.pop()
                del self.branch[pv]
                self.branch_used ^= 1 << hv
            hv = self._next_image(pv, nxt[i], lex.least(image), n)
            if hv < 0:
                i -= 1
                continue
            nxt[i] = hv + 1
            image.append(hv)
            self.branch[pv] = hv
            self.owner[hv] = pv
            self.branch_used |= 1 << hv
            if i + 1 == size:
                yield
                continue
            i += 1
            nxt[i] = self._first_image(porder[i])

    def _first_image(self, pv: int) -> int:
        # the pattern conditions: every vertex in below[pv] is already
        # placed, and pv's image must exceed each of theirs
        return max((self.branch[u] + 1 for u in self.below[pv]), default=0)

    def _next_image(self, pv: int, lo: int, least: list[int] | None, n: int) -> int:
        """The first host vertex from ``lo`` up that pv may take, or -1."""
        for hv in range(lo, n):
            if self.branch_used >> hv & 1 or self.hdeg[hv] < self.pdeg[pv]:
                continue
            if least is not None and least[hv] != hv:
                continue
            self.meter.tick()
            if self.induced and not self._branch_compatible(pv, hv):
                continue
            return hv
        return -1

    def _branch_compatible(self, pv: int, hv: int) -> bool:
        # two branch images may be host-adjacent only along a pattern edge,
        # which is then forced to route as exactly that host edge
        pbits, owner = self.pbits[pv], self.owner
        placed = self.bits[hv] & self.branch_used
        while placed:
            low = placed & -placed
            if not pbits >> owner[low.bit_length() - 1] & 1:
                return False
            placed ^= low
        return True

    # path routing ------------------------------------------------------

    def _route(self) -> bool:
        """Route every chain into ``self.routes``, in the order of ``self.chains``.

        A chain of length 1 between host-adjacent images routes as that edge
        alone, so it is set once.  The rest go depth-first over an explicit
        stack with one candidate-path iterator per routed chain;
        ``interiors[-1]`` masks the interiors of the paths routed so far.
        Every route is rewritten before the routes are read, so a failed try
        needs no undo.  The order changes which routes are found, not whether:
        a region loses only what the paths of any witness avoid.
        """
        branch, bits, routes = self.branch, self.bits, self.routes
        order = []
        for i, walk in enumerate(self.chains):
            s, t = branch[walk[0]], branch[walk[-1]]
            if len(walk) == 2 and bits[s] >> t & 1:
                routes[i] = (s, t)
            else:
                order.append(i)
        if not order:
            return True
        iters = [self._chain_paths(order[0], 0)]
        interiors = [0]
        while iters:
            path = next(iters[-1], None)
            if path is None:
                iters.pop()
                interiors.pop()
                continue
            k = len(iters) - 1
            routes[order[k]] = path
            if k + 1 == len(order):
                return True
            inner = interiors[-1]
            for v in path[1:-1]:
                inner |= 1 << v
            iters.append(self._chain_paths(order[k + 1], inner))
            interiors.append(inner)
        return False

    def _chain_paths(self, i: int, interiors: int):
        """The candidate paths of chain i: :meth:`_candidate_paths` between its
        ends' images, or :meth:`_loop_paths` at the image of a loop's end,
        above that image when the loop is a cycle's."""
        walk = self.chains[i]
        s, t = self.branch[walk[0]], self.branch[walk[-1]]
        if s != t:
            return self._candidate_paths(s, t, interiors, len(walk) - 1)
        above = ~((2 << s) - 1) if self.pdeg[walk[0]] == 2 else -1
        return self._loop_paths(s, interiors, len(walk) - 1, above)

    def _loop_paths(self, a: int, interiors: int, length: int, region: int):
        """Yield the chordless closed paths (a, x, ..., y, a) of at least
        ``length`` ≥ 3 edges with x < y, inside the vertex mask ``region``:
        two neighbours of a joined by a candidate path of at least
        length − 2 edges, or by their edge alone when length is 3.  One
        tick per pair x, y tried."""
        bits, tick = self.bits, self.meter.tick
        ends = self._region(1 << a, interiors) & region & bits[a]
        for x in _members(ends):
            for y in _members(ends >> x + 1 << x + 1):
                tick()
                if not bits[x] >> y & 1:
                    for path in self._candidate_paths(x, y, interiors, length - 2, region):
                        yield (a, *path, a)
                elif length == 3:
                    yield (a, x, y, a)

    def _region(self, ends: int, interiors: int) -> int:
        """The vertices a path between the ``ends`` may use.

        Interiors avoid all branch images and the routed ``interiors``.  In
        induced mode they are also adjacent to no placed vertex (branch
        image or routed interior) other than the ends, so such neighbours
        leave the region.
        """
        allowed = self.full & ~((self.branch_used & ~ends) | interiors)
        if self.induced:
            bits = self.bits
            placed = (self.branch_used | interiors) & ~ends
            while placed:
                low = placed & -placed
                allowed &= ~bits[low.bit_length() - 1]
                placed ^= low
            allowed |= ends
        return allowed

    def _candidate_paths(self, s: int, t: int, interiors: int, min_len: int = 1, region: int = -1):
        """Yield the chordless host paths from s to t of at least ``min_len``
        edges inside :meth:`_region` and ``region``, shortest first, then lex.

        s and t are host-adjacent only when their edge is routed on its own
        and ``min_len`` exceeds 1 (a chain parallel to it).  The region is
        cut before the BFS, so its distances are exact bounds for the paths
        searched, and an unreachable s ends the chain at once.

        Lengths are tried from ``max(dist[s], min_len)`` up, and the loop
        stops after the first length that :meth:`_paths_of_length` did not
        cut short.  A longer length then accepts, at every prefix, no vertex
        this one turned away: the distance test turned none away, and a
        neighbour of t may close the path only at the last step.  So each
        prefix of a longer length is one of this length's, all shorter than
        the longer length, and none reaches t.
        """
        n = self.h.n
        allowed = self._region((1 << s) | (1 << t), interiors) & region
        dist = _bfs_dist(self.bits, n, t, allowed)
        if dist[s] == n:
            return
        for length in range(dist[s] if dist[s] > min_len else min_len, allowed.bit_count()):
            cut = yield from self._paths_of_length(s, t, length, allowed, dist)
            if not cut:
                return

    def _paths_of_length(self, s: int, t: int, length: int, allowed: int, dist: list[int]):
        """Yield the chordless paths s → t of exactly ``length`` edges inside
        ``allowed``, in lex order; return whether the length was cut short.

        Depth-first over an explicit stack of frames (vertex, remaining
        length, candidate iterator, blocker mask), so a long path needs no
        Python recursion.  One tick per vertex entered, s included.

        A prospective interior y must have ``dist[y]`` below ``remaining``,
        so only t closes a frame with one edge left.  y may be adjacent,
        among the current partial path, only to its predecessor x;
        adjacency to the target t is tolerated because the step below then
        forces immediate closure at t.  The frame of x holds that blocker
        mask.  The length was cut short if some free, unblocked y that
        reaches t at all (``dist[y]`` below n) was turned away only because
        ``dist[y]`` was not below ``remaining``.
        """
        bits = self.bits
        adj = self.adj
        tick = self.meter.tick
        n = len(dist)
        cut = False
        path = [s]
        on_path = 1 << s
        free = allowed & ~on_path  # allowed vertices not on the path
        tick()
        first = adj[s]
        if length > 1 and bits[s] >> t & 1:
            # a longer path parallel to the edge s-t must not close at once
            first = [y for y in first if y != t]
        stack = [(s, length, iter(first), 0)]
        while stack:
            x, remaining, candidates, blockers = stack[-1]
            for y in candidates:
                if y == t:
                    break
                if free >> y & 1:
                    if dist[y] < remaining:
                        if not bits[y] & blockers:
                            break
                    elif not cut and dist[y] < n and not bits[y] & blockers:
                        cut = True
            else:
                stack.pop()
                if x != s:
                    on_path ^= 1 << x
                    free ^= 1 << x
                    path.pop()
                continue
            tick()
            if y == t:
                path.append(t)
                yield tuple(path)
                path.pop()
                continue
            path.append(y)
            on_path |= 1 << y
            free ^= 1 << y
            if bits[y] >> t & 1:
                # an interior adjacent to the target must close the path
                # now, else the edge y-t would survive as a chord
                nxt = [t] if remaining == 2 else []
            else:
                nxt = adj[y]
            stack.append((y, remaining - 1, iter(nxt), on_path & ~(1 << y)))
        return cut


def find_subdivision(
    pattern: Graph,
    host: Graph,
    require_induced: bool = False,
    budget: SearchBudget | None = None,
) -> SubdivisionWitness | None:
    """Exact search for a (possibly induced) subdivision of pattern in host.

    Branch maps, the tuples of images of the branch vertices in a fixed
    order, are tried in lexicographic order, subject to degree feasibility
    and two symmetry filters: one map per orbit of the pattern's
    automorphism group (symmetry-breaking conditions on the images,
    Grochow & Kellis 2007), and, on searches that run past
    ``symmetry.START_AFTER`` nodes, lex-leader pruning under the host's
    automorphism group (an image must be the least vertex of its orbit
    under the generators that fix the images before it).  In plain mode
    every pattern vertex is a branch vertex.  In induced mode the vertices
    of degree 2 are suppressed: the branch vertices are those of degree ≠ 2,
    each maximal chain between them is one routed edge of at least its
    number of pattern edges, and a cycle component is one chordless cycle
    at least as long, anchored at its least host vertex.  The chains are
    then routed as internally disjoint chordless paths, tried shortest
    first, with full backtracking.  The lengths of one chain's paths stop
    at the first length that no distance bound cut short, since no longer
    path then exists.  In induced mode a path searches only the host
    vertices adjacent to no other used vertex, as any other interior would
    leave a chord.  A chain's inner pattern vertices take the first
    interior vertices of its path.

    Exactness: automorphisms of host and pattern map witnesses to
    witnesses, and the least branch map of such an orbit passes both
    filters, so found/not-found is that of the unfiltered search.  That
    least map is also the first map meeting the pattern conditions, so
    the host filter does not change which witness is returned.  The
    witness is still only "the first in search order": any change to that
    order or to the pattern conditions may return a different one, and
    callers should rely on its verification, not on which witness it is.
    Returns the first witness (always verified before returning), or None
    once the search space is exhausted.
    """
    meter = meter_for(budget)
    if pattern.n > host.n:
        return None
    search = _SubdivSearch(pattern, host, require_induced, meter)
    return search.run()


# -- derived graph and lifting ------------------------------------------


def _normalized_witnesses(
    witnesses: Mapping[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """Check every witness vertex and pair key, sort pair keys, and reject
    a pair recorded twice with different values."""
    if not isinstance(witnesses, Mapping):
        raise BadParameter(f"witnesses must map vertex pairs to vertices, got {witnesses!r}")
    _vertex_ids(witnesses.values(), what="witness vertex")
    norm: dict[tuple[int, int], int] = {}
    for pair, y in witnesses.items():
        key = _vertex_pair(pair, what="witness pair")
        if key in norm and norm[key] != y:
            raise InconsistentWitnesses(
                f"pair {key} recorded with witnesses {norm[key]} and {y}"
            )
        norm[key] = y
    return norm


def derived_graph(
    x: Iterable[int],
    witnesses: Mapping[tuple[int, int], int],
    y_prime: Iterable[int],
) -> tuple[Graph, tuple[int, ...]]:
    """Graph on X (re-indexed 0..|X|-1) with an edge {i, j} exactly when
    the witness recorded for the pair lies in y_prime.

    Returns the graph plus the ascending mapping position → original
    vertex.  Witness vertices must be unique per pair at this stage; a
    vertex witnessing two different pairs raises InconsistentWitnesses.
    """
    xs = _vertex_ids(x, what="x vertex")
    index = {v: i for i, v in enumerate(xs)}
    norm = _normalized_witnesses(witnesses)
    claimed: dict[int, tuple[int, int]] = {}
    for (u, v), y in sorted(norm.items()):
        if u not in index or v not in index:
            raise OutOfRange(f"witness pair {(u, v)!r} not within X")
        if y in claimed:
            raise InconsistentWitnesses(
                f"witness vertex {y} claimed by pairs {claimed[y]} and {(u, v)}"
            )
        claimed[y] = (u, v)
    yset = set(_vertex_ids(y_prime, what="witness vertex"))
    if not yset <= set(norm.values()):
        raise BadParameter("y_prime contains vertices that are not witnesses")
    edges = [
        (index[u], index[v]) for (u, v), y in sorted(norm.items()) if y in yset
    ]
    return Graph(len(xs), edges), tuple(xs)


def lift_to_induced_subdivision(
    g: Graph,
    x_sub: Iterable[int],
    witnesses: Mapping[tuple[int, int], int],
    derived: SubdivisionWitness,
) -> SubdivisionWitness:
    """Lift a subdivision found in the derived graph to an induced
    subdivision of the same pattern in g.

    ``derived`` is a witness whose host vertices are positions in
    sorted(x_sub), as :func:`derived_graph` numbers them.  Each pattern
    vertex a goes to ``xs[derived.branch_map[a]]``, and each step p–q of
    a derived path becomes ``xs[p], y, xs[q]`` through the pair's recorded
    witness y.  Three structural preconditions are checked explicitly
    before assembly:

    (a) x_sub is a stable set in g;
    (b) the used witnesses form a stable set in g;
    (c) inside x_sub plus the used witnesses, each used witness is
        adjacent to exactly its own two x-vertices.

    The finished witness is re-verified in induced mode before being
    returned, so a successful return is a machine-checked certificate.
    """
    xs = _vertex_ids(x_sub, g.n, "x vertex")
    if derived.host.n > len(xs) or not verify_witness(derived, require_induced=False):
        raise BadParameter("derived witness must be a subdivision in a graph on the x positions")
    norm = _normalized_witnesses(witnesses)

    # (a) stability of the x set; per vertex its least later neighbour in
    # it, so the first pair reported is the lex-first adjacent pair
    bits = g._bits
    x_mask = sum(1 << u for u in xs)
    for u in xs:
        if later := bits[u] & x_mask >> u + 1 << u + 1:
            v = (later & -later).bit_length() - 1
            raise PreconditionViolated("a", f"x vertices {u} and {v} are adjacent")

    used: dict[tuple[int, int], int] = {}
    paths = {}
    for e, path in derived.paths.items():
        lifted = [xs[path[0]]]
        for q in path[1:]:
            key = _vertex_pair((lifted[-1], xs[q]))
            if key not in norm:
                raise BadParameter(f"no witness recorded for pair {key!r}")
            used[key] = norm[key]
            lifted += (norm[key], xs[q])
        paths[e] = tuple(lifted)

    # (b) stability of the used witness vertices
    y_used = _vertex_ids(used.values(), g.n, "witness vertex")
    y_mask = sum(1 << u for u in y_used)
    for u in y_used:
        if later := bits[u] & y_mask >> u + 1 << u + 1:
            v = (later & -later).bit_length() - 1
            raise PreconditionViolated("b", f"witnesses {u} and {v} are adjacent")

    # (c) exact adjacency inside x_sub ∪ Y''; a vertex witnessing two
    # derived edges necessarily fails this check for at least one of them
    inside = x_mask | y_mask
    for (u, v), y in sorted(used.items()):
        actual = bits[y] & inside
        if actual != 1 << u | 1 << v:
            raise PreconditionViolated(
                "c",
                f"witness {y} for pair {(u, v)} sees {_members(actual)} "
                f"instead of exactly {[u, v]}",
            )

    branch = {a: xs[p] for a, p in derived.branch_map.items()}
    witness = SubdivisionWitness(derived.pattern, g, branch, paths, induced=True)
    check = verify_witness(witness, require_induced=True)
    if not check.ok:
        raise AssertionError(f"lifting produced an invalid witness: {check.reason}")
    return witness
