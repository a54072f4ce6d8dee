"""Property-based tests of the exact searches on small random graphs."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import brute_chromatic
from mtfsubdiv import (
    Graph,
    chromatic_number,
    clique_number,
    find_subdivision,
    max_independent_set,
    verify_witness,
)


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


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
@given(graphs(max_n=5), st.data(), graphs(max_n=8), st.booleans())
def test_find_subdivision_invariant_under_pattern_relabelling(pattern, data, host, induced):
    # the search tries one branch map per automorphism orbit of the
    # pattern; a wrong orbit rule would lose witnesses for some labelling
    moved = relabel(pattern, data.draw(st.permutations(range(pattern.n))))
    found = [find_subdivision(f, host, require_induced=induced) for f in (pattern, moved)]
    assert (found[0] is None) == (found[1] is None)
    for w in found:
        assert w is None or verify_witness(w, require_induced=induced)
