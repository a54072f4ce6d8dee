"""Exact solvers against brute-force oracles and named values."""

from __future__ import annotations

from itertools import combinations

import pytest

from families import (
    clebsch_graph,
    complete_bipartite,
    complete_graph,
    random_graph,
    star_graph,
)
from oracles import brute_chromatic, brute_clique, brute_independence_sets
from mtfsubdiv import (
    BudgetExceeded,
    Graph,
    NotTriangleFree,
    SearchBudget,
    chromatic_coloring,
    chromatic_number,
    clique_number,
    gen_cycle,
    gen_kneser,
    gen_mycielski,
    gen_petersen,
    gen_random_mtf,
    max_independent_set,
    sqrt_stable_set_triangle_free,
)


def _independent(g: Graph, s) -> bool:
    s = sorted(s)
    return all(
        not g.has_edge(u, v) for i, u in enumerate(s) for v in s[i + 1 :]
    )


def _check_coloring(g: Graph, coloring: list[int]) -> int:
    """The number of colors of a proper coloring of g, colors 0..k-1."""
    assert len(coloring) == g.n
    assert all(coloring[u] != coloring[v] for u, v in g.edges())
    k = len(set(coloring))
    assert set(coloring) == set(range(k))
    return k


def test_chromatic_named():
    assert chromatic_number(Graph(0, [])) == 0
    assert chromatic_number(Graph(4, [])) == 1
    assert chromatic_number(gen_cycle(5)) == 3
    assert chromatic_number(gen_cycle(6)) == 2
    assert chromatic_number(complete_graph(6)) == 6
    assert chromatic_number(complete_bipartite(4, 7)) == 2
    assert chromatic_number(gen_petersen()) == 3
    assert chromatic_number(gen_kneser(5, 2)) == 3
    assert chromatic_number(gen_mycielski(gen_cycle(5))) == 4


def test_chromatic_matches_oracle():
    for seed in range(50):
        g = random_graph(8, 0.4, seed)
        assert chromatic_number(g) == brute_chromatic(g)
        assert _check_coloring(g, chromatic_coloring(g)) == brute_chromatic(g)


def test_chromatic_search_tree_is_pinned():
    # 913 nodes is the exact size of the DSATUR search tree on
    # Mycielski(Grötzsch) (n = 23, χ = 5), its greedy first descent
    # included; a changed branching order or color limit changes it
    g = gen_mycielski(gen_mycielski(gen_cycle(5)))
    assert chromatic_number(g, SearchBudget(max_nodes=913)) == 5
    with pytest.raises(BudgetExceeded):
        chromatic_number(g, SearchBudget(max_nodes=912))


def test_chromatic_search_tree_is_pinned_past_saturation_four():
    # on this host saturations reach 5, so the bit-sliced counters carry
    # into their third slice; 29,629 nodes pin the tree there too
    g = gen_random_mtf(45, 2)
    assert chromatic_number(g, SearchBudget(max_nodes=29_629)) == 5
    with pytest.raises(BudgetExceeded):
        chromatic_number(g, SearchBudget(max_nodes=29_628))


def test_chromatic_coloring_matches_oracle_on_named_hosts():
    hosts = [
        Graph(0, []),
        Graph(4, []),
        gen_cycle(5),
        gen_cycle(7),
        complete_graph(6),
        complete_bipartite(4, 7),
        gen_petersen(),
        gen_kneser(5, 2),
        gen_mycielski(gen_cycle(5)),
        clebsch_graph(),
        gen_random_mtf(20, 0),
        gen_random_mtf(25, 1),
    ]
    for g in hosts:
        coloring = chromatic_coloring(g)
        assert _check_coloring(g, coloring) == brute_chromatic(g) == chromatic_number(g)


def test_chromatic_coloring_in_original_ids():
    # the center 5 has the largest degree, so the search colors it first,
    # as its vertex 0; the coloring is reported in the input's ids
    g = Graph(6, [(5, leaf) for leaf in range(5)])
    assert chromatic_coloring(g) == [1, 1, 1, 1, 1, 0]


def test_chromatic_greedy_descent_is_metered():
    # the greedy DSATUR coloring of C100 already meets the clique bound of
    # 2, but finding it is the search's first descent of 101 nodes, which
    # the budget counts
    with pytest.raises(BudgetExceeded):
        chromatic_number(gen_cycle(100), SearchBudget(max_nodes=50))
    assert chromatic_number(gen_cycle(100), SearchBudget(max_nodes=101)) == 2


def test_chromatic_long_odd_cycle():
    # the search runs to depth n, deeper than Python's recursion limit
    assert chromatic_number(gen_cycle(1501)) == 3


def test_clique_named():
    assert clique_number(Graph(0, [])) == 0
    assert clique_number(Graph(5, [])) == 1
    assert clique_number(complete_graph(7)) == 7
    assert clique_number(gen_petersen()) == 2
    assert clique_number(gen_cycle(4)) == 2


def test_clique_matches_oracle():
    for seed in range(50):
        g = random_graph(9, 0.5, seed)
        assert clique_number(g) == brute_clique(g)


def test_clique_number_of_a_deep_clique_runs_on_an_explicit_stack():
    # K1100 plus 16 hubs joined to the same 1,200 leaves: the high-degree
    # hubs mislead any greedy start, and the search into the clique is
    # 1,100 levels deep, past Python's default recursion limit
    hubs, leaves = range(1100, 1116), range(1116, 2316)
    g = Graph(2316, list(combinations(range(1100), 2)) + [(h, x) for h in hubs for x in leaves])
    assert clique_number(g) == 1100


def test_mis_matches_oracle_and_is_lex_least():
    for seed in range(50):
        g = random_graph(9, 0.35, seed)
        got = max_independent_set(g)
        best = brute_independence_sets(g)
        assert _independent(g, got)
        assert len(got) == len(best[0])
        assert tuple(sorted(got)) == best[0], "first maximum set in lex order"


def test_mis_named():
    assert max_independent_set(Graph(0, [])) == frozenset()
    assert len(max_independent_set(gen_petersen())) == 4
    assert len(max_independent_set(gen_cycle(5))) == 2
    assert max_independent_set(complete_graph(4)) == frozenset({0})
    assert len(max_independent_set(complete_bipartite(3, 8))) == 8


def test_mis_long_cycle_within_budget():
    # the clique-cover bound prunes what the candidate count cannot
    got = max_independent_set(gen_cycle(60), SearchBudget(max_nodes=10_000))
    assert len(got) == 30
    assert got == frozenset(range(0, 60, 2))


def test_mis_on_c3000_runs_on_an_explicit_stack():
    # the search is 3,001 levels deep, past Python's default recursion
    # limit; the node count pins the search tree
    g = gen_cycle(3000)
    got = max_independent_set(g, SearchBudget(max_nodes=3_001))
    assert len(got) == 1500
    assert got == frozenset(range(0, 3000, 2))
    with pytest.raises(BudgetExceeded):
        max_independent_set(g, SearchBudget(max_nodes=3_000))


def _nx_graph(nx, g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _nx_colorable(h, k: int) -> bool:
    """Backtracking proper k-coloring of the networkx graph h, vertices in id order."""
    colors: dict[int, int] = {}

    def place(v: int) -> bool:
        if v == h.number_of_nodes():
            return True
        taken = {colors[u] for u in h[v] if u in colors}
        for c in range(k):
            if c not in taken:
                colors[v] = c
                if place(v + 1):
                    return True
                del colors[v]
        return False

    return place(0)


def test_solvers_match_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    for n in range(1, 13):
        for p in (0.2, 0.5, 0.8):
            for seed in range(3):
                g = random_graph(n, p, 100 * n + seed)
                h = _nx_graph(nx, g)
                _, alpha = nx.max_weight_clique(nx.complement(h), weight=None)
                _, omega = nx.max_weight_clique(h, weight=None)
                chi = chromatic_number(g)
                assert len(max_independent_set(g)) == alpha, (n, p, seed)
                assert clique_number(g) == omega, (n, p, seed)
                assert _nx_colorable(h, chi) and not _nx_colorable(h, chi - 1), (n, p, seed)


def test_budget_trips():
    g = random_graph(40, 0.5, 3)
    tiny = SearchBudget(max_nodes=5, max_seconds=60.0)
    with pytest.raises(BudgetExceeded):
        chromatic_number(g, tiny)
    with pytest.raises(BudgetExceeded):
        clique_number(g, tiny)
    with pytest.raises(BudgetExceeded):
        max_independent_set(g, tiny)
    err = None
    try:
        max_independent_set(g, tiny)
    except BudgetExceeded as exc:
        err = exc
    assert err is not None and err.nodes >= 5


def test_sqrt_stable_set_basic():
    for g in (gen_cycle(5), gen_cycle(30), gen_petersen(), star_graph(50)):
        s = sqrt_stable_set_triangle_free(g)
        assert _independent(g, s)
        assert len(s) >= int(g.n**0.5)


def test_sqrt_stable_set_high_degree_branch():
    # a vertex of degree >= floor(sqrt(n)) donates its neighborhood
    g = star_graph(26)
    s = sqrt_stable_set_triangle_free(g)
    assert len(s) >= 5
    assert 0 not in s


def test_sqrt_stable_set_rejects_triangles():
    with pytest.raises(NotTriangleFree):
        sqrt_stable_set_triangle_free(complete_graph(3))


def test_sqrt_stable_set_deterministic():
    g = gen_random_mtf(25, 11)
    assert sqrt_stable_set_triangle_free(g) == sqrt_stable_set_triangle_free(g)
