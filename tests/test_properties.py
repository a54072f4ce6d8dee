"""Property-based tests of the exact solvers on small random graphs."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import brute_chromatic
from mtfsubdiv import Graph, chromatic_number, clique_number, max_independent_set


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def relabelled(draw) -> tuple[Graph, Graph]:
    g = draw(graphs())
    perm = draw(st.permutations(range(g.n)))
    return g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
