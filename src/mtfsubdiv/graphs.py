"""Graph representation and the invariants the inequality chain consumes.

Vertices are dense 0-based integers. A :class:`Graph` is immutable after
construction; adjacency is stored both as per-vertex frozensets (constant
amortized membership) and as per-vertex int bitmasks for the exact solvers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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


def _sorted_ints(items: Iterable) -> list:
    """sorted(set(items)), or the items unsorted for the caller to reject if one is not an int."""
    items = list(items)
    return sorted(set(items)) if all(map(_is_int, items)) else items


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
            try:
                u, v = e
            except (TypeError, ValueError):
                raise BadParameter(f"an edge must be a pair of vertices, got {e!r}") from None
            # bool is an int subclass; reject it explicitly
            if not (_is_int(u) and _is_int(v)):
                raise BadParameter(f"edge endpoints must be integers, got {e!r}")
            if u == v:
                raise BadParameter(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRange(f"edge {e!r} has an endpoint outside [0, {n})")
            adj[u].add(v)
            adj[v].add(u)
        if labels is not None and len(labels) != n:
            raise BadParameter(f"expected {n} labels, got {len(labels)}")
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
    members = _sorted_ints(s)
    for v in members:
        g._check_vertex(v)
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
