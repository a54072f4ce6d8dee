"""Property-based tests of the exact searches on small random graphs and
hypergraphs, and of the checks on the vertex items callers pass in."""

from __future__ import annotations

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import brute_chromatic, check_mycielski_certificate
from mtfsubdiv import (
    BadParameter,
    DswStructure,
    Graph,
    Hypergraph,
    OutOfRange,
    SubdivisionWitness,
    SyntheticDswSpec,
    chromatic_number,
    clique_number,
    derived_graph,
    dsw_structure_violations,
    find_dsw_structure,
    find_subdivision,
    gen_synthetic_dsw,
    induced_subgraph,
    is_proper_coloring,
    lift_to_induced_subdivision,
    max_dsw_size,
    max_independent_set,
    packing_number,
    parse_graph6,
    solvers,
    star_cover_coloring,
    to_graph6,
    transversality,
    verify_witness,
)
from mtfsubdiv.budget import meter_for


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def sparse_graphs(draw, max_n: int = 70) -> Graph:
    # graph6 writes n < 63 in one byte and 63 ≤ n < 258048 in four
    n = draw(st.integers(min_value=0, max_value=max_n) | st.sampled_from((62, 63)))
    if n < 2:
        return Graph(n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.sets(pair.filter(lambda e: e[0] != e[1]), max_size=3 * n))
    return Graph(n, sorted({(min(e), max(e)) for e in edges}))


def relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def relabelled(draw) -> tuple[Graph, Graph]:
    g = draw(graphs())
    return g, relabel(g, draw(st.permutations(range(g.n))))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(relabelled())
def test_solvers_invariant_under_relabelling(pair):
    g, h = pair
    assert chromatic_number(g) == chromatic_number(h)
    assert clique_number(g) == clique_number(h)
    assert len(max_independent_set(g)) == len(max_independent_set(h))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs())
def test_chromatic_matches_oracle(g):
    assert chromatic_number(g) == brute_chromatic(g)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(graphs())
def test_mycielski_bound_is_certified_and_at_most_chi(g):
    bound, cert = solvers._mycielski_lower_bound(g, meter_for(None))
    assert check_mycielski_certificate(g, cert, bound)
    assert bound <= brute_chromatic(g)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(graphs(max_n=5), st.data(), graphs(max_n=8), st.booleans())
def test_find_subdivision_invariant_under_pattern_relabelling(pattern, data, host, induced):
    # the search tries one branch map per automorphism orbit of the
    # pattern; a wrong orbit rule would lose witnesses for some labelling.
    # The host's labels set the order of branch maps and routes, which
    # must not decide whether a witness is found either
    moved = relabel(pattern, data.draw(st.permutations(range(pattern.n))))
    host_moved = relabel(host, data.draw(st.permutations(range(host.n))))
    found = [find_subdivision(f, host, require_induced=induced) for f in (pattern, moved)]
    found.append(find_subdivision(pattern, host_moved, require_induced=induced))
    assert (found[0] is None) == (found[1] is None) == (found[2] is None)
    for w in found:
        assert w is None or verify_witness(w, require_induced=induced)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(sparse_graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@st.composite
def random_hypergraphs(draw, max_n: int = 8, max_m: int = 7) -> Hypergraph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    edge = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    return Hypergraph(n, draw(st.lists(edge, min_size=1, max_size=max_m)))


@st.composite
def planted_hypergraphs(draw) -> Hypergraph:
    # d edges sharing one private vertex per pair, grown by extra vertices,
    # plus extra edges, in random order; random hypergraphs this small
    # rarely hold a structure with d > 2
    d = draw(st.integers(min_value=2, max_value=5))
    pairs = list(combinations(range(d), 2))
    n = len(pairs) + draw(st.integers(min_value=1, max_value=3))
    extra = st.sets(st.integers(min_value=len(pairs), max_value=n - 1))
    edges = [{k for k, p in enumerate(pairs) if i in p} | draw(extra) for i in range(d)]
    edge = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    edges += draw(st.lists(edge, max_size=3))
    return Hypergraph(n, draw(st.permutations(edges)))


hypergraphs = st.one_of(random_hypergraphs(), planted_hypergraphs())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hypergraphs, st.data())
def test_hypergraph_solvers_invariant_under_relabelling(h, data):
    perm = data.draw(st.permutations(range(h.n)))
    edges = h.edges
    order = data.draw(st.permutations(range(len(edges))))
    moved = Hypergraph(h.n, [{perm[v] for v in edges[i]} for i in order])
    relabelled = Hypergraph(h.n, [{perm[v] for v in e} for e in edges])
    assert max_dsw_size(moved) == max_dsw_size(h)
    assert packing_number(relabelled) == packing_number(h)
    assert transversality(relabelled)[0] == transversality(h)[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hypergraphs)
def test_dsw_structure_is_hereditary(h):
    d = max_dsw_size(h)
    if d < 2:
        return
    s = find_dsw_structure(h, d)
    for size in range(2, d):
        for kept in combinations(range(d), size):
            sub = DswStructure(
                tuple(s.edge_indices[k] for k in kept),
                {(a, b): s.witnesses[(kept[a], kept[b])] for a, b in combinations(range(size), 2)},
            )
            assert dsw_structure_violations(h, sub) == []


# -- malformed vertex items ---------------------------------------------

# synthetic d = 3: x = {0, 1, 2} and y_ij = 3, 4, 5 form a six-cycle, whose
# derived graph on the x positions is a triangle
HOST, X, WITNESSES = gen_synthetic_dsw(SyntheticDswSpec(3))
N = HOST.n
DERIVED = find_subdivision(
    Graph(3, [(0, 1), (0, 2), (1, 2)]), derived_graph(X, WITNESSES, WITNESSES.values())[0]
)


def bad_items(n: int | None = None):
    """Items that are no vertex id (below n, when n is given)."""
    items = (
        st.booleans()
        | st.floats()
        | st.integers(max_value=-1)
        | st.text(max_size=2)
        | st.none()
        | st.lists(st.integers(min_value=0, max_value=3), max_size=2)
    )
    return items if n is None else items | st.just(n)


@st.composite
def vertex_sets(draw, n: int, bound: int | None = None) -> list:
    """Vertex ids below n with one bad item inserted."""
    items = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4))
    at = draw(st.integers(min_value=0, max_value=len(items)))
    return items[:at] + [draw(bad_items(bound))] + items[at:]


def bad_pairs(n: int, bound: int | None = None):
    """A pair with a bad item, of the wrong length, degenerate, or no pair at all."""
    v = st.integers(min_value=0, max_value=n - 1)
    bad = bad_items(bound)
    return st.one_of(
        st.tuples(bad, v),
        st.tuples(v, bad),
        st.tuples(v),
        st.tuples(v, v, v),
        v.map(lambda u: (u, u)),
        bad.filter(lambda p: not isinstance(p, list)),
    )


def _new_key(p) -> bool:
    # a key equal to one of WITNESSES, such as (0, 1.0), would only replace its value
    try:
        return p not in WITNESSES
    except TypeError:
        return False


# a witness map with one bad pair key or one bad witness vertex
bad_witness_maps = st.one_of(
    bad_pairs(3).filter(_new_key).map(lambda p: {**WITNESSES, p: 3}),
    bad_items().map(lambda y: {**WITNESSES, (0, 1): y}),
)
# a hyperedge with one bad item, or one that is not iterable
bad_hyperedges = vertex_sets(N, N) | st.none() | st.booleans() | st.floats() | st.integers()
# a container of vertex items that is no container, or a list of pairs
# where a mapping is expected
not_iterable = st.integers() | st.none()
not_a_mapping = not_iterable | st.just(list(WITNESSES.items())) | st.just([((0, 1), 3)])
# a derived witness whose branch map or paths are no mapping, or with a
# path that is no sequence
bad_derived = st.one_of(
    not_a_mapping.map(lambda b: SubdivisionWitness(DERIVED.pattern, DERIVED.host, b, DERIVED.paths)),
    not_a_mapping.map(lambda p: SubdivisionWitness(DERIVED.pattern, DERIVED.host, DERIVED.branch_map, p)),
    (not_iterable | st.sets(st.integers(0, 2))).map(
        lambda q: SubdivisionWitness(
            DERIVED.pattern, DERIVED.host, DERIVED.branch_map, {**DERIVED.paths, (0, 1): q}
        )
    ),
)

MALFORMED_CALLS = {
    "graph-edge": lambda draw: Graph(N, [(0, 1), draw(bad_pairs(N, N))]),
    "induced-subgraph": lambda draw: induced_subgraph(HOST, draw(vertex_sets(N, N))),
    "hyperedge": lambda draw: Hypergraph(N, [[0, 1], draw(bad_hyperedges)]),
    "star-centers": lambda draw: star_cover_coloring(HOST, draw(vertex_sets(N, N))),
    "derived-x": lambda draw: derived_graph(draw(vertex_sets(3)), WITNESSES, WITNESSES.values()),
    "derived-witnesses": lambda draw: derived_graph(X, draw(bad_witness_maps), WITNESSES.values()),
    "derived-y-prime": lambda draw: derived_graph(X, WITNESSES, draw(vertex_sets(N))),
    "lift-x": lambda draw: lift_to_induced_subdivision(HOST, draw(vertex_sets(N, N)), WITNESSES, DERIVED),
    "lift-witnesses": lambda draw: lift_to_induced_subdivision(HOST, X, draw(bad_witness_maps), DERIVED),
    "lift-derived": lambda draw: lift_to_induced_subdivision(HOST, X, WITNESSES, draw(bad_derived)),
    "spec-pattern-pair": lambda draw: SyntheticDswSpec(4, [(0, 1), draw(bad_pairs(4, 4))]).normalized_pairs(),
    "graph-edge-container": lambda draw: Graph(N, draw(not_iterable)),
    "hyperedge-container": lambda draw: Hypergraph(N, draw(not_iterable)),
    # None is the spec's "every pair"
    "spec-pattern-pair-container": lambda draw: SyntheticDswSpec(4, draw(st.integers())).normalized_pairs(),
    "derived-witness-container": lambda draw: derived_graph(X, draw(not_a_mapping), WITNESSES.values()),
    "lift-witness-container": lambda draw: lift_to_induced_subdivision(HOST, X, draw(not_a_mapping), DERIVED),
    "coloring-container": lambda draw: is_proper_coloring(HOST, draw(not_iterable)),
}


@pytest.mark.parametrize("target", sorted(MALFORMED_CALLS))
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_malformed_vertex_items_raise_only_package_errors(target, data):
    with pytest.raises((BadParameter, OutOfRange)):
        MALFORMED_CALLS[target](data.draw)
