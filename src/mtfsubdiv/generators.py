"""Corpus generators: classical graphs, triangle-free towers, random maximal
triangle-free graphs, and synthetic private-witness configurations.

Every generator is a pure deterministic function of its parameters, so
serialized outputs are byte-identical across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import BadParameter
from .formats import MAX_VERTICES
from .graphs import Graph, _is_int, _listed, _vertex_pair, is_maximal_triangle_free

__all__ = [
    "MAX_KNESER_EDGES",
    "MAX_RANDOM_MTF_VERTICES",
    "SyntheticDswSpec",
    "gen_cycle",
    "gen_petersen",
    "gen_kneser",
    "gen_mycielski",
    "gen_random_mtf",
    "gen_synthetic_dsw",
]


# the edge limit of gen_kneser, checked before building: Kneser(24, 3)
# (2,024 vertices, 1,345,960 edges) fits, Kneser(60, 3) (~5·10^8 edges)
# does not
MAX_KNESER_EDGES = 2_000_000

# the vertex limit of gen_random_mtf, checked before building: its one
# pass lists every pair, so n = 1,000 takes ~0.5 s and ~60 MB and
# n = 2,000 ~3 s and ~190 MB (peak RSS; 2-vCPU VM, Python 3.11)
MAX_RANDOM_MTF_VERTICES = 1_000


def _check_vertex_count(n: int, what: str, limit: int = MAX_VERTICES) -> None:
    # generators take the parsers' limit unless they set a lower one,
    # checked before anything is built
    if n > limit:
        raise BadParameter(f"{what} would have {n} vertices, above the limit of {limit}")


def gen_cycle(n: int) -> Graph:
    """Cycle C_n for 3 ≤ n ≤ ``MAX_VERTICES``."""
    if not _is_int(n) or n < 3:
        raise BadParameter(f"cycle needs n >= 3, got {n!r}")
    _check_vertex_count(n, f"cycle C{n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_petersen() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, spokes, inner pentagram 5..9."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner 5-cycle at step 2
    return Graph(10, edges)


def gen_kneser(n: int, k: int) -> Graph:
    """Kneser graph: vertices are the k-subsets of [n], edges join disjoint sets.

    Vertices are indexed by the lexicographic order of the subsets; each
    vertex is labeled with its subset for report readability.  C(n, k) may
    not exceed ``MAX_VERTICES``, nor the edge count C(n, k)·C(n-k, k)/2
    ``MAX_KNESER_EDGES``; both are computed before anything is built.
    Disjointness is tested on subset bitmasks.
    """
    if not (_is_int(n) and _is_int(k)) or k < 1 or n < 2 * k:
        raise BadParameter(f"kneser needs 1 <= k and n >= 2k, got n={n!r}, k={k!r}")
    _check_vertex_count(comb(n, k), f"kneser({n},{k})")
    n_edges = comb(n, k) * comb(n - k, k) // 2
    if n_edges > MAX_KNESER_EDGES:
        raise BadParameter(
            f"kneser({n},{k}) would have {n_edges} edges, above the limit of {MAX_KNESER_EDGES}"
        )
    subsets = list(combinations(range(n), k))
    masks = [sum(1 << x for x in s) for s in subsets]
    edges = [
        (i, j)
        for i, mi in enumerate(masks)
        for j in range(i + 1, len(masks))
        if not mi & masks[j]
    ]
    labels = ["{" + ",".join(map(str, s)) + "}" for s in subsets]
    return Graph(len(subsets), edges, labels)


def gen_mycielski(g: Graph) -> Graph:
    """Mycielski construction on g.

    Output vertices are V = 0..n-1 (original), V' = n..2n-1 (shadows), and
    z = 2n; shadow u' = n+u is adjacent to the original neighbors of u, and
    z is adjacent to every shadow.  Preserves triangle-freeness and raises
    the chromatic number by exactly one.
    """
    n = g.n
    _check_vertex_count(2 * n + 1, f"mycielski of a graph on {n} vertices")
    edges = [(n + u, 2 * n) for u in range(n)]
    for u, w in g.edges():
        edges += [(u, w), (n + u, w), (u, n + w)]
    return Graph(2 * n + 1, edges)


def gen_random_mtf(n: int, seed: int) -> Graph:
    """Random maximal triangle-free graph on n vertices, deterministic in seed.

    The random greedy triangle-free process (Erdős, Suen & Winkler 1995):
    start edgeless, visit every pair once in seeded shuffled order, and add
    an edge whenever its endpoints have no common neighbor (so the graph
    stays triangle-free).  A pair that is skipped already has a common
    neighbor, and edges are never removed, so at the end every non-edge has
    one, which is exactly maximality.  n may not exceed
    ``MAX_RANDOM_MTF_VERTICES``, and the seed must be an int (``random``
    seeds None from the clock, so no other type is taken).
    """
    if not _is_int(n) or n < 1:
        raise BadParameter(f"gen_random_mtf needs n >= 1, got {n!r}")
    if not _is_int(seed):
        raise BadParameter(f"gen_random_mtf needs an integer seed, got {seed!r}")
    _check_vertex_count(n, "random-mtf", MAX_RANDOM_MTF_VERTICES)
    pairs = list(combinations(range(n), 2))
    random.Random(seed).shuffle(pairs)
    bits = [0] * n
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        if not bits[u] & bits[v]:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            edges.append((u, v))
    return Graph(n, edges)


@dataclass(frozen=True)
class SyntheticDswSpec:
    """Parameters for a synthetic private-witness configuration.

    ``d`` is the number of x-vertices; ``pattern_edges`` selects which pairs
    {i, j} get a witness y_{i,j} (None means all pairs); ``padding`` asks for
    extra vertices embedding the configuration in a larger maximal
    triangle-free host while keeping the X/Y adjacency pattern intact.
    """

    d: int
    pattern_edges: frozenset[tuple[int, int]] | None = None
    padding: bool = False

    def normalized_pairs(self) -> list[tuple[int, int]]:
        if not _is_int(self.d) or self.d < 2:
            raise BadParameter(f"synthetic spec needs d >= 2, got {self.d!r}")
        # d x-vertices, a witness per pair, and with padding a w_i per x_i
        # and at most one hub
        given = None if self.pattern_edges is None else _listed(self.pattern_edges, "pattern pairs")
        n_pairs = comb(self.d, 2) if given is None else len(given)
        n_padding = self.d + 1 if self.padding else 0
        _check_vertex_count(self.d + n_pairs + n_padding, f"synthetic-dsw with d={self.d}")
        if given is None:
            return list(combinations(range(self.d), 2))
        return sorted({_vertex_pair(p, self.d, "pattern pair") for p in given})


def gen_synthetic_dsw(
    spec: SyntheticDswSpec,
) -> tuple[Graph, frozenset[int], dict[tuple[int, int], int]]:
    """Build the X/Y configuration of a private-witness structure.

    Returns ``(graph, x, witnesses)`` where X = {0..d-1} is stable, the
    witness vertices follow in sorted pair order, each y_{i,j} is adjacent
    to exactly x_i and x_j within X ∪ Y, and ``witnesses`` maps the vertex
    pair (x_i, x_j) to its y.  Without padding the output is exactly the
    1-subdivision of the pattern-edge graph (and need not be maximal
    triangle-free); with padding it is embedded in a maximal triangle-free
    host that leaves the X/Y adjacency pattern untouched.
    """
    pairs = spec.normalized_pairs()
    d = spec.d
    edges: list[tuple[int, int]] = []
    labels = [f"x{i}" for i in range(d)]
    witnesses: dict[tuple[int, int], int] = {}
    for idx, (i, j) in enumerate(pairs):
        y = d + idx
        witnesses[(i, j)] = y
        edges.append((i, y))
        edges.append((j, y))
        labels.append(f"y{i}-{j}")
    x_set = frozenset(range(d))
    if not spec.padding:
        return Graph(d + len(pairs), edges, labels), x_set, dict(witnesses)

    # padding to a maximal triangle-free host, complete patterns only
    if len(pairs) != d * (d - 1) // 2:
        raise BadParameter(
            "padding is only supported for the complete pattern; "
            "a missing pair {i,j} leaves x_i, x_j without a common neighbor"
        )
    bare = Graph(d + len(pairs), edges, labels)
    if is_maximal_triangle_free(bare):
        # d=2 gives P_3, which is already maximal
        return bare, x_set, dict(witnesses)

    n_y = len(pairs)
    w_base = d + n_y
    # w_i repairs the pairs (x_i, y_{j,k}) with i outside {j,k}
    for i in range(d):
        labels.append(f"w{i}")
        edges.append((i, w_base + i))
        for (j, k) in pairs:
            if i != j and i != k:
                edges.append((w_base + i, witnesses[(j, k)]))
    n_total = w_base + d
    if d == 4:
        # hub q joins all witnesses: repairs disjoint witness pairs
        q = n_total
        labels.append("q")
        for idx in range(n_y):
            edges.append((q, d + idx))
        n_total += 1
    if d == 3:
        # hub r joins all w_i: repairs the w pairs, which share no witness here
        r = n_total
        labels.append("r")
        for i in range(d):
            edges.append((r, w_base + i))
        n_total += 1
    padded = Graph(n_total, edges, labels)
    if not is_maximal_triangle_free(padded):
        raise BadParameter(f"padding failed for d={d}: host is not maximal triangle-free")
    return padded, x_set, dict(witnesses)
