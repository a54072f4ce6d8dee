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
from typing import TYPE_CHECKING, Iterable, Mapping

from .budget import SearchBudget, _Meter, meter_for
from .errors import BadParameter, InconsistentWitnesses, OutOfRange, PreconditionViolated
from .graphs import Graph

# symmetry is imported where it is used: without a bytecode cache, its
# compilation would lengthen the start-up of every command, and a command
# that runs no search never needs it
if TYPE_CHECKING:
    from . import symmetry

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
    p, h = w.pattern, w.host
    if set(w.branch_map.keys()) != set(range(p.n)):
        return WitnessCheck(False, "branch-map-domain")
    images = list(w.branch_map.values())
    for v in images:
        if not (isinstance(v, int) and 0 <= v < h.n):
            return WitnessCheck(False, "branch-out-of-range")
    if len(set(images)) != len(images):
        return WitnessCheck(False, "branch-not-injective")
    if set(w.paths.keys()) != set(p.edges()):
        return WitnessCheck(False, "paths-domain")
    branch_set = set(images)
    interiors_seen: set[int] = set()
    # per used vertex, the mask of its neighbours along the paths
    path_nb: dict[int, int] = {}
    for (a, b) in sorted(w.paths.keys()):
        path = w.paths[(a, b)]
        if len(path) < 2:
            return WitnessCheck(False, "path-too-short")
        for v in path:
            if not (isinstance(v, int) and 0 <= v < h.n):
                return WitnessCheck(False, "path-out-of-range")
        if path[0] != w.branch_map[a] or path[-1] != w.branch_map[b]:
            return WitnessCheck(False, "path-endpoints")
        if len(set(path)) != len(path):
            return WitnessCheck(False, "path-repeats-vertex")
        for u, v in zip(path, path[1:]):
            if not h.has_edge(u, v):
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
    ``porder``.  These orbits are the basic orbits of Aut(pattern) along the
    base ``porder``: the pattern is relabelled so that ``porder`` is its
    vertex order, and the individualisation–refinement search, whose first
    path takes the least non-singleton vertex at every level, returns its
    stabiliser chain along that base (a vertex it skips is fixed, so its
    orbit is itself).  Returns ``below`` with ``below[w]`` the vertices
    whose images must be smaller than w's image.  Of each orbit of
    injective maps under Aut(pattern), exactly one map meets every
    condition.
    """
    from . import symmetry

    rank = {v: i for i, v in enumerate(porder)}
    adj = [[rank[u] for u in pattern._adj[v]] for v in porder]
    group = symmetry.graph_automorphisms(adj, meter, "find_subdivision")
    below: list[list[int]] = [[] for _ in range(pattern.n)]
    for level in group.levels:
        for w in level.orbit:
            if w != level.base:
                below[porder[w]].append(porder[level.base])
    return [tuple(b) for b in below]


class _SubdivSearch:
    """Backtracking state for one find_subdivision call.

    Branch maps are tuples of host vertices, the images of the pattern
    vertices in ``porder``, tried in lexicographic order.  Two filters cut
    them, one per symmetry group:

    - pattern side: the images must meet the symmetry-breaking conditions
      of :func:`_pattern_conditions`, so one map per orbit of Aut(pattern)
      is tried;
    - host side: the image c at position k must be the least vertex of its
      orbit under the pointwise stabiliser, in Aut(host), of the first k
      images (lex-leader pruning), once the call has counted
      ``symmetry.START_AFTER`` nodes.

    Say a witness exists.  Its branch maps form an orbit under
    Aut(host) × Aut(pattern), acting by phi ↦ σ∘phi∘π⁻¹, and every map in
    it is a witness's: relabelling a witness by σ and π gives another.
    The least tuple of that orbit passes both filters, since a failed
    condition names a σ or a π that makes it smaller.  It is also the
    least tuple that meets the pattern conditions alone, so the search
    returns the same branch map as without the host filter.

    Pattern edges are routed along chordless host paths only, in both
    modes: any witness can be shortened to one whose paths are chordless,
    because a chord cuts a path to a sub-path with fewer interior vertices.

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
        self.pedges = pattern.edges()
        self.full = (1 << host.n) - 1
        self.branch: dict[int, int] = {}
        self.owner = [0] * host.n
        self.branch_used = 0
        self.paths: dict[tuple[int, int], tuple[int, ...]] = {}
        # pattern vertices in branching order: descending degree, ties by id
        self.porder = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
        self.below = _pattern_conditions(pattern, self.porder, meter)
        self.pdeg = pattern.degrees()
        self.hdeg = host.degrees()
        self.adj = [sorted(nbrs) for nbrs in host._adj]

    def run(self) -> SubdivisionWitness | None:
        for _ in self._branch_maps():
            edge_order = self._edge_order()
            if edge_order is not None and self._route(edge_order):
                witness = SubdivisionWitness(
                    self.p, self.h, dict(self.branch), dict(self.paths), self.induced
                )
                check = verify_witness(witness, self.induced)
                assert check.ok, check.reason
                return witness
        return None

    # branch-vertex assignment ------------------------------------------

    def _branch_maps(self):
        """Set ``self.branch`` to each branch map in search order, yielding after each.

        An explicit stack of levels: ``image[i]`` is the host vertex placed
        at level i (-1 for none) and ``groups[i]`` the pointwise stabiliser
        in Aut(host) of the images above level i, None once it is trivial.
        The search runs without the group until the call has counted
        ``symmetry.START_AFTER`` nodes.  The group is then found with the
        current path as its chain's base, which makes the stabilisers along
        the path free, and every level prunes from then on.
        """
        from . import symmetry

        porder, n = self.porder, self.h.n
        size = len(porder)
        if size == 0:
            yield
            return
        meter, label = self.meter, "find_subdivision"
        armed = True
        groups: list[symmetry.Group | None] = [None] * size
        image = [-1] * size
        nxt = [0] * size
        nxt[0] = self._first_image(porder[0])
        i = 0
        while i >= 0:
            if armed and meter.nodes >= symmetry.START_AFTER:
                armed = False
                group = symmetry.graph_automorphisms(self.h._adj, meter, label, image[:i])
                groups[0] = symmetry.nontrivial(group)
                for j in range(i):
                    groups[j + 1] = symmetry.stabiliser(groups[j], image[j], meter, label)
            pv = porder[i]
            if image[i] >= 0:
                # back at this level: lift its image
                del self.branch[pv]
                self.branch_used ^= 1 << image[i]
                image[i] = -1
            hv = self._next_image(pv, nxt[i], groups[i], n)
            if hv < 0:
                i -= 1
                continue
            nxt[i] = hv + 1
            image[i] = hv
            self.branch[pv] = hv
            self.owner[hv] = pv
            self.branch_used |= 1 << hv
            if i + 1 == size:
                yield
                continue
            groups[i + 1] = symmetry.stabiliser(groups[i], hv, meter, label)
            i += 1
            nxt[i] = self._first_image(porder[i])

    def _first_image(self, pv: int) -> int:
        # the pattern conditions: every vertex in below[pv] is already
        # placed, and pv's image must exceed each of theirs
        return max((self.branch[u] + 1 for u in self.below[pv]), default=0)

    def _next_image(self, pv: int, lo: int, group: symmetry.Group | None, n: int) -> int:
        """The first host vertex from ``lo`` up that pv may take, or -1."""
        least = None if group is None else group.least()
        for hv in range(lo, n):
            if self.branch_used >> hv & 1 or self.hdeg[hv] < self.pdeg[pv]:
                continue
            if least is not None and least[hv] != hv:
                continue
            self.meter.tick("find_subdivision")
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

    def _edge_order(self) -> list[tuple[int, int]] | None:
        """Pattern edges sorted by host BFS distance of their images."""
        n = self.h.n
        order = []
        for (a, b) in self.pedges:
            s, t = self.branch[a], self.branch[b]
            allowed = self.full & ~(self.branch_used & ~((1 << s) | (1 << t)))
            d = _bfs_dist(self.bits, n, t, allowed)[s]
            if d == n:
                return None
            order.append((d, (a, b)))
        order.sort()
        return [e for _, e in order]

    def _route(self, edge_order: list[tuple[int, int]]) -> bool:
        """Route every edge of ``edge_order`` into ``self.paths``.

        Depth-first over an explicit stack with one candidate-path iterator
        per routed edge; ``interiors[k]`` masks the interiors of the paths
        of the first k edges.  Every edge is rewritten before the paths are
        read, so a failed try needs no undo.
        """
        if not edge_order:
            return True
        branch = self.branch
        a, b = edge_order[0]
        iters = [self._candidate_paths(branch[a], branch[b], 0)]
        interiors = [0]
        while iters:
            path = next(iters[-1], None)
            if path is None:
                iters.pop()
                interiors.pop()
                continue
            k = len(iters) - 1
            self.paths[edge_order[k]] = path
            if k + 1 == len(edge_order):
                return True
            inner = interiors[k]
            for v in path[1:-1]:
                inner |= 1 << v
            a, b = edge_order[k + 1]
            iters.append(self._candidate_paths(branch[a], branch[b], inner))
            interiors.append(inner)
        return False

    def _candidate_paths(self, s: int, t: int, interiors: int):
        """Yield the chordless host paths from s to t, shortest first, then lex.

        Host-adjacent endpoints force the direct edge.  Interiors avoid all
        branch images and the routed ``interiors``; in induced mode they are
        also adjacent to none of those vertices but their path neighbours.
        """
        if self.bits[s] >> t & 1:
            yield (s, t)
            return
        n = self.h.n
        allowed = self.full & ~((self.branch_used & ~((1 << s) | (1 << t))) | interiors)
        dist = _bfs_dist(self.bits, n, t, allowed)
        if dist[s] == n:
            return
        placed = (self.branch_used | interiors) & ~(1 << t) if self.induced else 0
        for length in range(max(1, dist[s]), allowed.bit_count()):
            yield from self._paths_of_length(s, t, length, allowed, dist, placed)

    def _paths_of_length(
        self, s: int, t: int, length: int, allowed: int, dist: list[int], placed: int
    ):
        """Yield the chordless host paths s → t of exactly ``length`` edges, in lex order.

        Depth-first over an explicit stack of frames (vertex, remaining
        length, candidate iterator, blocker mask), so a long path needs no
        Python recursion.  One tick per vertex entered, s included.

        A prospective interior y may be adjacent, among the current partial
        path and the vertex mask ``placed``, only to its predecessor x;
        adjacency to the target t is tolerated because the step below then
        forces immediate closure at t.  The frame of x holds that blocker
        mask.
        """
        bits = self.bits
        adj = self.adj
        tick = self.meter.tick
        path = [s]
        on_path = 1 << s
        free = allowed & ~on_path  # allowed vertices not on the path
        tick("find_subdivision")
        stack = [(s, length, iter(adj[s]), placed & ~on_path)]
        while stack:
            x, remaining, candidates, blockers = stack[-1]
            for y in candidates:
                if y == t:
                    if remaining != 1:
                        continue
                elif not free >> y & 1 or dist[y] > remaining or bits[y] & blockers:
                    continue
                break
            else:
                stack.pop()
                if x != s:
                    on_path ^= 1 << x
                    free ^= 1 << x
                    path.pop()
                continue
            tick("find_subdivision")
            if remaining == 1:
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
            stack.append((y, remaining - 1, iter(nxt), (on_path | placed) & ~(1 << y)))


def find_subdivision(
    pattern: Graph,
    host: Graph,
    require_induced: bool = False,
    budget: SearchBudget | None = None,
) -> SubdivisionWitness | None:
    """Exact search for a (possibly induced) subdivision of pattern in host.

    Branch maps, the tuples of images of the pattern vertices in a fixed
    order, are tried in lexicographic order, subject to degree feasibility
    and two symmetry filters: one map per orbit of the pattern's
    automorphism group (symmetry-breaking conditions on the images,
    Grochow & Kellis 2007), and, on searches that run past
    ``symmetry.START_AFTER`` nodes, lex-leader pruning under the host's
    automorphism group (an image must be the least vertex of its orbit
    under the stabiliser of the images before it).  Pattern edges are then
    routed as internally disjoint chordless paths, tried shortest first,
    with full backtracking.  In induced mode chords to other used vertices
    are pruned as soon as they arise.

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
    if pattern.n > host.n:
        return None
    meter = meter_for(budget)
    search = _SubdivSearch(pattern, host, require_induced, meter)
    return search.run()


# -- derived graph and lifting ------------------------------------------


def _normalize_pair(pair: Iterable[int]) -> tuple[int, int]:
    u, v = sorted(pair)
    if u == v:
        raise BadParameter(f"degenerate pair {(u, v)!r}")
    return (u, v)


def _normalized_witnesses(
    witnesses: Mapping[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """Sort pair keys; reject a pair recorded twice with different values."""
    norm: dict[tuple[int, int], int] = {}
    for pair, y in witnesses.items():
        key = _normalize_pair(pair)
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
    xs = sorted(set(x))
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
    yset = set(y_prime)
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
    g_double_prime: Graph,
    mapping: Mapping[int, int],
) -> SubdivisionWitness:
    """Lift a subgraph of the derived graph to an induced subdivision in g.

    ``mapping`` sends each vertex of ``g_double_prime`` to a position in
    sorted(x_sub).  Each pattern edge (a, b) becomes the 2-edge path
    x_a - y - x_b through the pair's recorded witness.  Three structural
    preconditions are checked explicitly before assembly:

    (a) x_sub is a stable set in g;
    (b) the used witnesses form a stable set in g;
    (c) inside x_sub plus the used witnesses, each used witness is
        adjacent to exactly its own two x-vertices.

    The finished witness is re-verified in induced mode before being
    returned, so a successful return is a machine-checked certificate.
    """
    xs = sorted(set(x_sub))
    keys_ok = set(mapping.keys()) == set(range(g_double_prime.n))
    values_ok = all(
        isinstance(pos, int) and 0 <= pos < len(xs) for pos in mapping.values()
    )
    if not keys_ok or not values_ok:
        raise BadParameter("mapping must send every pattern vertex to a valid x-position")
    if len(set(mapping.values())) != len(mapping):
        raise BadParameter("mapping must be injective")
    for v in xs:
        if not (0 <= v < g.n):
            raise OutOfRange(f"x vertex {v!r} outside host range")
    norm = _normalized_witnesses(witnesses)

    # (a) stability of the chosen x set
    for i, u in enumerate(xs):
        for v in xs[i + 1 :]:
            if g.has_edge(u, v):
                raise PreconditionViolated("a", f"x vertices {u} and {v} are adjacent")

    used: dict[tuple[int, int], int] = {}
    for (a, b) in g_double_prime.edges():
        key = _normalize_pair((xs[mapping[a]], xs[mapping[b]]))
        if key not in norm:
            raise BadParameter(f"no witness recorded for pair {key!r}")
        used[(a, b)] = norm[key]

    # (b) stability of the used witness vertices
    y_used = sorted(set(used.values()))
    for i, u in enumerate(y_used):
        for v in y_used[i + 1 :]:
            if g.has_edge(u, v):
                raise PreconditionViolated("b", f"witnesses {u} and {v} are adjacent")

    # (c) exact adjacency inside x_sub ∪ Y''; a vertex witnessing two
    # pattern edges necessarily fails this check for at least one of them
    inside = set(xs) | set(y_used)
    for (a, b), y in sorted(used.items()):
        expect = {xs[mapping[a]], xs[mapping[b]]}
        actual = set(g.neighbors(y)) & inside
        if actual != expect:
            raise PreconditionViolated(
                "c",
                f"witness {y} for pattern edge {(a, b)} sees {sorted(actual)} "
                f"instead of exactly {sorted(expect)}",
            )

    branch = {a: xs[mapping[a]] for a in range(g_double_prime.n)}
    paths = {
        (a, b): (branch[a], used[(a, b)], branch[b])
        for (a, b) in g_double_prime.edges()
    }
    witness = SubdivisionWitness(g_double_prime, g, branch, paths, induced=True)
    check = verify_witness(witness, require_induced=True)
    assert check.ok, f"lifting produced an invalid witness: {check.reason}"
    return witness
