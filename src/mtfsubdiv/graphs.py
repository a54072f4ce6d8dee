"""Graph representation and the invariants the inequality chain consumes.

Vertices are dense 0-based integers. A :class:`Graph` is immutable after
construction; adjacency is stored both as per-vertex frozensets (constant
amortized membership) and as per-vertex int bitmasks for the exact solvers.
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


def _vertex_ids(items: Iterable, n: int | None = None, what: str = "vertex") -> list[int]:
    """sorted(set(items)) once each item is an int (not a bool) in [0, n).

    Items are checked before anything is hashed or sorted; a bad item
    raises OutOfRange, and items that are not iterable raise BadParameter.
    """
    try:
        items = list(items)
    except TypeError:
        raise BadParameter(f"expected an iterable of {what} ids, got {items!r}") from None
    for v in items:
        if not (_is_int(v) and v >= 0 and (n is None or v < n)):
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
    """Simple undirected graph on vertex set {0..n-1}.

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

    __slots__ = ("n", "_adj", "_bits", "_m", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), labels: Sequence[str] | None = None):
        if not _is_int(n) or n < 0:
            raise BadParameter(f"vertex count must be a non-negative integer, got {n!r}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            u, v = _vertex_pair(e, n, "edge")
            adj[u].add(v)
            adj[v].add(u)
        if labels is not None and not (
            isinstance(labels, Sequence)
            and len(labels) == n
            and all(isinstance(s, str) for s in labels)
        ):
            raise BadParameter(f"labels must be a sequence of {n} strings")
        self.n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._bits: tuple[int, ...] = tuple(sum(1 << w for w in s) for s in adj)
        self._m = sum(len(s) for s in adj) // 2
        self.labels = tuple(labels) if labels is not None else None

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self._adj]

    def _check_vertex(self, v: int) -> None:
        if not (_is_int(v) and 0 <= v < self.n):
            raise OutOfRange(f"vertex {v!r} outside [0, {self.n})")

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """Return one triangle of g as a sorted vertex triple, or None."""
    for u in range(g.n):
        bu = g._bits[u]
        for v in g._adj[u]:
            if v <= u:
                continue
            common = bu & g._bits[v]
            if common:
                w = (common & -common).bit_length() - 1
                return tuple(sorted((u, v, w)))  # type: ignore[return-value]
    return None


def is_triangle_free(g: Graph) -> bool:
    """Return True when no three vertices of g are mutually adjacent."""
    return find_triangle(g) is None


def is_maximal_triangle_free(g: Graph) -> bool:
    """Return True when g is triangle-free and no edge can be added.

    Uses the non-edge formulation: every non-adjacent pair {u, v} must have
    a common neighbor, so adding uv would close a triangle.  K_1 qualifies
    vacuously; the 2-vertex edgeless graph does not.
    """
    if not is_triangle_free(g):
        return False
    for u in range(g.n):
        bu = g._bits[u]
        for v in range(u + 1, g.n):
            if v not in g._adj[u] and not (bu & g._bits[v]):
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
    edges = [
        (index[u], index[v])
        for u in members
        for v in g._adj[u]
        if v in index and u < v
    ]
    labels = None
    if g.labels is not None:
        labels = [g.labels[v] for v in members]
    return Graph(len(members), edges, labels), tuple(members)


def average_degree(g: Graph) -> Fraction:
    """2m/n as an exact rational."""
    if g.n == 0:
        raise EmptyGraph("average degree of the empty graph is undefined")
    return Fraction(2 * g.m, g.n)
