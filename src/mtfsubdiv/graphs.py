"""Graph representation and the invariants the inequality chain consumes.

Vertices are dense 0-based integers. A :class:`Graph` is immutable after
construction; its adjacency is stored once, as per-vertex int bitmasks,
which every query and every exact solver reads.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable, Iterator, Sequence

from .errors import BadParameter, EmptyGraph, OutOfRange

__all__ = [
    "Graph",
    "is_triangle_free",
    "is_maximal_triangle_free",
    "find_triangle",
    "induced_subgraph",
    "average_degree",
]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _listed(items: Iterable, what: str) -> list:
    """list(items), or BadParameter naming ``what`` when items is not iterable."""
    try:
        return list(items)
    except TypeError:
        raise BadParameter(f"expected an iterable of {what}, got {items!r}") from None


def _members(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


def _vertex_ids(items: Iterable, n: int | None = None, what: str = "vertex") -> list[int]:
    """sorted(set(items)) once each item is an int (not a bool) in [0, n).

    Items are checked before anything is hashed or sorted; a bad item
    raises OutOfRange, and items that are not iterable raise BadParameter.
    """
    items = _listed(items, f"{what} ids")
    for v in items:
        # the type test spares plain ints the call
        if not ((type(v) is int or _is_int(v)) and v >= 0 and (n is None or v < n)):
            where = "" if n is None else f" in [0, {n})"
            raise OutOfRange(f"{what} {v!r} is not a vertex id{where}")
    return sorted(set(items))


def _vertex_pair(pair, n: int | None = None, what: str = "pair") -> tuple[int, int]:
    """(u, v) with u < v from exactly two distinct int vertex ids in [0, n).

    A negative item, or one at or above n, raises OutOfRange; any other
    malformed pair raises BadParameter.
    """
    try:
        u, v = pair
    except (TypeError, ValueError):
        raise BadParameter(f"{what} must be two vertices, got {pair!r}") from None
    if not (_is_int(u) and _is_int(v)):
        raise BadParameter(f"{what} {pair!r} must be two integers")
    if u == v:
        raise BadParameter(f"{what} {pair!r} is degenerate")
    if u < 0 or v < 0 or (n is not None and (u >= n or v >= n)):
        where = "" if n is None else f" in [0, {n})"
        raise OutOfRange(f"{what} {pair!r} has an item that is not a vertex id{where}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertex set {0..n-1}, its adjacency held
    once: bit w of ``_bits[v]`` is set exactly when vw is an edge.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : iterable of (int, int)
        Edge list; order and orientation are irrelevant, duplicates collapse.
    labels : sequence of str, optional
        Per-vertex display labels; carried through but never consulted by
        any algorithm.
    """

    __slots__ = ("n", "_bits", "_m", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), labels: Sequence[str] | None = None):
        if not _is_int(n) or n < 0:
            raise BadParameter(f"vertex count must be a non-negative integer, got {n!r}")
        bits = [0] * n
        for e in _listed(edges, "edges"):
            u, v = _vertex_pair(e, n, "edge")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        if labels is not None and not (
            isinstance(labels, Sequence)
            and len(labels) == n
            and all(isinstance(s, str) for s in labels)
        ):
            raise BadParameter(f"labels must be a sequence of {n} strings")
        self.n = n
        self._bits: tuple[int, ...] = tuple(bits)
        self._m = sum(b.bit_count() for b in bits) // 2
        self.labels = tuple(labels) if labels is not None else None

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted (u, v) pairs with u < v."""
        out = []  # _members' loop inlined, as a call per row costs ~25 %; reversed at the end
        for u in range(self.n - 1, -1, -1):
            above = self._bits[u] >> u
            while above:
                d = above.bit_length() - 1
                above ^= 1 << d
                out.append((u, u + d))
        out.reverse()
        return out

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._bits[u] >> v & 1 == 1

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_members(self._bits[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._bits[v].bit_count()

    def degrees(self) -> list[int]:
        return [b.bit_count() for b in self._bits]

    def _check_vertex(self, v: int) -> None:
        if not (_is_int(v) and 0 <= v < self.n):
            raise OutOfRange(f"vertex {v!r} outside [0, {self.n})")

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Return a triangle of g as a sorted vertex triple, or None: the first
    vertex u on a triangle (the least of every triangle through it), u's
    least neighbour on one, and the least common neighbour of the two."""
    bits = g._bits
    for u, bu in enumerate(bits):
        above = bu >> u << u
        while above:
            low = above & -above
            v = low.bit_length() - 1
            if common := bu & bits[v]:
                w = (common & -common).bit_length() - 1
                return (u, min(v, w), max(v, w))
            above ^= low
    return None


def is_triangle_free(g: Graph) -> bool:
    """Return True when no three vertices of g are mutually adjacent."""
    return find_triangle(g) is None


def is_maximal_triangle_free(g: Graph) -> bool:
    """Return True when g is triangle-free and no edge can be added.

    Non-edge formulation: every non-adjacent pair {u, v} must have a common
    neighbor, so adding uv would close a triangle.  Per vertex u, the
    vertices two steps away miss N(u) (no triangle) and with N[u] cover
    every vertex.  K_1 qualifies vacuously; the 2-vertex edgeless graph
    does not.
    """
    bits = g._bits
    full = (1 << g.n) - 1
    for u, bu in enumerate(bits):
        two = 0
        for w in _members(bu):
            two |= bits[w]
        if two & bu or two | bu | 1 << u != full:
            return False
    return True


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph of g on vertex set s, re-indexed to 0..|s|-1.

    Returns the subgraph together with the mapping: position i of the
    returned tuple holds the original id of new vertex i.  The mapping is
    ascending, so re-indexing is order-preserving.
    """
    members = _vertex_ids(s, g.n)
    index = {v: i for i, v in enumerate(members)}
    inside = sum(1 << v for v in members)
    # each edge once, from its lower end u: the members above u in u's row
    edges = [(index[u], index[v]) for u in members for v in _members(g._bits[u] & inside >> u << u)]
    labels = None
    if g.labels is not None:
        labels = [g.labels[v] for v in members]
    return Graph(len(members), edges, labels), tuple(members)


def average_degree(g: Graph) -> Fraction:
    """2m/n as an exact rational."""
    if g.n == 0:
        raise EmptyGraph("average degree of the empty graph is undefined")
    return Fraction(2 * g.m, g.n)
