"""Automorphism groups and lex-leader pruning.

The group orders read from the strong generating sets are checked against
brute force over all permutations, the lex-leader orbit tables against
the pointwise stabilisers of networkx's matcher, and the pruned searches
against themselves run with the trivial group.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from functools import partial
from importlib import import_module
from itertools import permutations
from math import factorial

import pytest

import mtfsubdiv
from mtfsubdiv import (
    Graph,
    Hypergraph,
    SearchBudget,
    SyntheticDswSpec,
    dsw_structure_violations,
    find_subdivision,
    gen_cycle,
    gen_kneser,
    gen_mycielski,
    gen_petersen,
    gen_random_mtf,
    gen_synthetic_dsw,
    max_dsw_structure,
    neighborhood_hypergraph,
    verify_witness,
)
from mtfsubdiv import hypergraphs, symmetry
from mtfsubdiv.budget import meter_for
from families import (
    clebsch_graph,
    complete_bipartite,
    complete_graph,
    frucht_graph,
    graphs_up_to_isomorphism,
    shrikhande_graph,
)
from oracles import group_order


def _brute_order(n: int, edges: frozenset[tuple[int, int]]) -> int:
    normal = {tuple(sorted(e)) for e in edges}
    return sum(
        1
        for p in permutations(range(n))
        if all(tuple(sorted((p[u], p[v]))) in normal for u, v in normal)
    )


def _group(g: Graph) -> symmetry.Group:
    return symmetry.graph_automorphisms(list(map(g.neighbors, g)), meter_for(None))


@pytest.mark.parametrize("n", range(1, 7))
def test_group_order_matches_brute_force_on_all_small_graphs(n):
    classes = graphs_up_to_isomorphism(n)
    assert len(classes) == [1, 2, 4, 11, 34, 156][n - 1]
    for edges in classes:
        g = Graph(n, edges)
        assert group_order(_group(g)) == _brute_order(n, edges), sorted(edges)


def test_hypergraph_group_order_matches_brute_force():
    # the group acts on edge indices: count the edge permutations that some
    # vertex permutation realises
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        edges = [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)]
        h = Hypergraph(n, edges)
        brute = sum(
            1
            for tau in permutations(range(m))
            if any(
                all(frozenset(sigma[v] for v in edges[i]) == edges[tau[i]] for i in range(m))
                for sigma in permutations(range(n))
            )
        )
        group = hypergraphs._incidence_group(h, meter_for(None), ())
        assert group_order(group) == brute, (n, edges)


def _orbits(least: list[int]) -> set[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for x, r in enumerate(least):
        classes.setdefault(r, set()).add(x)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize(
    "name, g, prefixes",
    [
        ("petersen", gen_petersen(), [(0,), (3,), (0, 1), (0, 7), (2, 9, 4)]),
        ("clebsch", clebsch_graph(), [(0,), (5,), (0, 1), (0, 3), (1, 6), (0, 3, 5)]),
        ("K3,4", complete_bipartite(3, 4), [(0,), (5,), (5, 0), (4, 6, 1)]),
        ("C8", gen_cycle(8), [(3,), (0, 4), (2, 3)]),
        ("groetzsch", gen_mycielski(gen_cycle(5)), [(0,), (10,), (6, 2)]),
        ("kneser(6,2)", gen_kneser(6, 2), [(0,), (7,), (0, 14), (3, 11, 5)]),
        # regular but not vertex-transitive (Frucht) and strongly regular
        # (Shrikhande): the search meets subtrees with no equivalent leaf
        ("frucht", frucht_graph(), [(0,), (3, 7)]),
        ("shrikhande", shrikhande_graph(), [(0,), (5,), (0, 1), (0, 10), (1, 6, 11)]),
    ],
)
def test_stabiliser_orbits_match_networkx(monkeypatch, name, g, prefixes):
    # LexLeader.least against the orbits of networkx's pointwise stabiliser:
    # with the group found at the root, each orbit it gives lies inside one
    # stabiliser orbit (sound); with the group found at the prefix, which
    # then opens the first path, the orbits are the stabiliser's (exact)
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    auts = [tuple(a[v] for v in range(g.n)) for a in GraphMatcher(ng, ng).isomorphisms_iter()]
    assert group_order(_group(g)) == len(auts)
    monkeypatch.setattr(symmetry, "START_AFTER", 0)
    adj = list(map(g.neighbors, g))

    def lex_leader():
        meter = meter_for(None)
        return symmetry.LexLeader(partial(symmetry.graph_automorphisms, adj, meter), meter)

    at_root = lex_leader()
    at_root.least(())  # the group, found with no base prescribed
    for prefix in prefixes:
        fixing = [a for a in auts if all(a[p] == p for p in prefix)]
        expected = {frozenset(a[x] for a in fixing) for x in range(g.n)}
        found = _orbits(at_root.least(prefix) or list(range(g.n)))
        assert all(any(o <= e for e in expected) for o in found), (name, prefix)
        assert _orbits(lex_leader().least(prefix) or list(range(g.n))) == expected, (name, prefix)
        # the prefix opens the first path, so the generators that fix each
        # prefix of the path generate that prefix's whole stabiliser
        group = symmetry.graph_automorphisms(adj, meter_for(None), prefix)
        assert group_order(group, base=prefix) == len(auts), (name, prefix)


def test_discrete_refinement_means_the_trivial_group():
    # the unit partition of this asymmetric graph refines to singletons:
    # one refinement, no search tree
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (5, 6), (3, 5)])
    meter = meter_for(None)
    group = symmetry.graph_automorphisms(list(map(g.neighbors, g)), meter)
    assert not group.generators
    assert meter.nodes == 1


def test_a_group_too_large_to_store_is_given_up():
    # S_600 on edgeless vertices needs 599 generators of 600 entries each,
    # past the stored-entry limit: the trivial group stands in, which is sound
    meter = meter_for(None)
    assert group_order(_group(Graph(300))) == factorial(300)
    assert group_order(symmetry.graph_automorphisms(list(map(Graph(600).neighbors, range(600))), meter)) == 1
    assert meter.nodes < 100_000


@pytest.mark.parametrize(
    "first, table", [((), [0] * 9), ((4,), [0, 1, 2, 3, 4, 3, 2, 1, 0])], ids=["root", "prefix"]
)
def test_lex_leader_tables(monkeypatch, first, table):
    # the group of C9 found at the root, or at the prefix (4,), whose entry
    # 0 is not the least of its orbit; the first call returns its table.
    # Found at the root, the first path begins 0, 1 and no generator
    # fixes 4, so (4,) prunes nothing; found at (4,), the reflection about
    # 4 is a generator.  No generator fixes two points
    monkeypatch.setattr(symmetry, "START_AFTER", 0)
    meter = meter_for(None)
    lex = symmetry.LexLeader(partial(symmetry.graph_automorphisms, list(map(gen_cycle(9).neighbors, range(9))), meter), meter)
    assert lex.least(first) == table
    assert lex.least(()) == [0] * 9
    assert lex.least((4,)) == (table if first else None)
    assert lex.least([0, 2]) is None
    assert lex.least((4, 2)) is None
    assert lex.least((4, 2, 7)) is None


def test_lex_leader_waits_for_start_after_and_drops_a_trivial_group(monkeypatch):
    monkeypatch.setattr(symmetry, "START_AFTER", 10)
    meter = meter_for(None)
    bases = []

    def find(base):
        bases.append(tuple(base))
        return symmetry.Group(9, [])

    lex = symmetry.LexLeader(find, meter)
    assert lex.least((4,)) is None and not bases
    meter.advance(10)
    assert lex.least((4,)) is None and bases == [(4,)]
    assert lex.least(()) is None and lex.least((4, 2)) is None
    assert bases == [(4,)] and meter.nodes == 10


@pytest.mark.parametrize(
    "name, g, order, incidence_order",
    [
        ("petersen", gen_petersen(), 120, 120),
        ("groetzsch", gen_mycielski(gen_cycle(5)), 10, 10),
        # the closed neighbourhoods of the Clebsch graph have symmetries
        # that no graph automorphism induces
        ("clebsch", clebsch_graph(), 1_920, 11_520),
        ("M(groetzsch)", gen_mycielski(gen_mycielski(gen_cycle(5))), 10, 10),
    ]
    + [
        (f"synthetic-{d}", gen_synthetic_dsw(SyntheticDswSpec(d=d, padding=True))[0], factorial(d), factorial(d))
        for d in (5, 6, 7)
    ],
)
def test_host_graph_group_against_incidence_graph_group(monkeypatch, name, g, order, incidence_order):
    # the group found on the host graph of N[g] acts on edge i as on vertex
    # i by automorphisms of the incidence graph, so the DSW search may prune
    # by it: it returns the same structure under either group
    h = neighborhood_hypergraph(g)
    assert hypergraphs._is_closed_neighbourhoods(h)
    host = hypergraphs._host_group(h, meter_for(None), ())
    incidence = hypergraphs._incidence_group(h, meter_for(None), ())
    edges = h.edges
    for gen in host.generators:
        assert all(frozenset(gen[v] for v in e) == edges[gen[i]] for i, e in enumerate(edges))
    assert (group_order(host), group_order(incidence)) == (order, incidence_order)
    monkeypatch.setattr(symmetry, "START_AFTER", 0)
    on_host = max_dsw_structure(h)
    monkeypatch.setattr(hypergraphs, "_is_closed_neighbourhoods", lambda h: False)
    assert max_dsw_structure(h) == on_host


def test_only_closed_neighbourhood_hypergraphs_use_the_host_graph():
    c5 = neighborhood_hypergraph(gen_cycle(5))
    assert hypergraphs._is_closed_neighbourhoods(c5)
    # open neighbourhoods (no i in edge i), and closed ones listed out of
    # vertex order: the DSW search takes the incidence graph's group, and τ
    # runs without symmetry
    opened = Hypergraph(5, [{(i - 1) % 5, (i + 1) % 5} for i in range(5)])
    rotated = Hypergraph(5, c5.edges[1:] + c5.edges[:1])
    assert not hypergraphs._is_closed_neighbourhoods(opened)
    assert not hypergraphs._is_closed_neighbourhoods(rotated)


def test_lex_leader_orbits_wait_for_start_after(monkeypatch):
    # the group itself, for the τ search, under the same policy: found once
    # with no base prescribed; the lex-leader tables are read from it: the
    # generators fixing 0, which opens the first path, give its
    # stabiliser's orbits, and none fixes 4
    monkeypatch.setattr(symmetry, "START_AFTER", 10)
    meter = meter_for(None)
    bases = []
    c9 = list(map(gen_cycle(9).neighbors, range(9)))

    def find(base):
        bases.append(tuple(base))
        return symmetry.graph_automorphisms(c9, meter, base)

    lex = symmetry.LexLeader(find, meter)
    assert lex.group() is None and not bases
    meter.advance(10)
    group = lex.group()
    assert lex.group() is group and bases == [()]
    assert group.least(group.all) == [0] * 9
    assert group.least(group.fixers[0]) == [0, 1, 2, 3, 4, 4, 3, 2, 1]
    assert group.fixers[0] & group.fixers[1] == 0
    assert lex.least((0,)) == group.least(group.fixers[0])
    assert lex.least((4,)) is None
    assert lex.least((4, 2)) is None and bases == [()]


def _trivial(adj, cells, points, meter, base=()):
    return symmetry.Group(points, [])


def _hosts() -> list[tuple[str, Graph]]:
    hosts = [
        ("kneser(7,2)", gen_kneser(7, 2)),
        ("groetzsch", gen_mycielski(gen_cycle(5))),
        ("petersen", gen_petersen()),
        ("clebsch", clebsch_graph()),
        ("K4,5", complete_bipartite(4, 5)),
        ("C11", gen_cycle(11)),
    ]
    for d in (4, 5, 6):
        hosts.append((f"synthetic-{d}", gen_synthetic_dsw(SyntheticDswSpec(d=d, padding=True))[0]))
    rng = random.Random(13)
    for _ in range(4):
        n = rng.randint(9, 14)
        hosts.append((f"rmtf{n}", gen_random_mtf(n, rng.randrange(10**6))))
    return hosts


def _runs(hosts, patterns, budget):
    runs = {}
    for name, g in hosts:
        h = neighborhood_hypergraph(g)
        s = max_dsw_structure(h, budget)
        assert not dsw_structure_violations(h, s)
        runs[(name, "dsw")] = (s.edge_indices, s.witnesses)
        for f in patterns:
            for induced in (False, True):
                w = find_subdivision(f, g, require_induced=induced, budget=budget)
                if w is not None:
                    assert verify_witness(w, require_induced=induced)
                    w = (sorted(w.branch_map.items()), sorted(w.paths.items()))
                runs[(name, f.n, f.m, induced)] = w
    return runs


def test_trivial_group_differential(monkeypatch):
    # the pruned searches with symmetry from their first node, from later
    # nodes and never, against themselves run with the trivial group for
    # host and pattern alike: the DSW structures are the same and the
    # subdivision answers agree; every witness verifies, and one pattern
    # group gives one witness whenever the host group joins.  Found after
    # 2,000 nodes, the group prunes both searches from the middle
    patterns = [complete_graph(3), complete_graph(4), gen_cycle(5), complete_bipartite(2, 3)]
    budget = SearchBudget(max_nodes=300_000)
    hosts = _hosts()
    by_start = {}
    for start in (0, 37, 2_000, 10**9):
        monkeypatch.setattr(symmetry, "START_AFTER", start)
        by_start[start] = _runs(hosts, patterns, budget)
    monkeypatch.setattr(symmetry, "START_AFTER", 0)
    monkeypatch.setattr(symmetry, "_automorphisms", _trivial)
    trivial = _runs(hosts, patterns, budget)
    for key, value in trivial.items():
        for runs in by_start.values():
            assert runs[key] == by_start[0][key], key
            if key[1] == "dsw":
                assert runs[key] == value, key
            else:
                assert (runs[key] is None) == (value is None), key


def test_package_does_not_import_networkx():
    # networkx is a test oracle only, and symmetry is compiled on first use
    # so that start-up does not pay for it; load the command line in a fresh
    # interpreter and look for both
    src = os.path.dirname(os.path.dirname(mtfsubdiv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, mtfsubdiv.cli; "
        "sys.exit('networkx' in sys.modules or 'mtfsubdiv.symmetry' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_package_exports_each_module_interface_once():
    # the package's public names are exactly the __all__ lists of these
    # nine modules, each name once
    modules = [
        "budget", "errors", "formats", "generators", "graphs",
        "hypergraphs", "pipeline", "solvers", "subdivisions",
    ]
    names = mtfsubdiv.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(mtfsubdiv, name) for name in names)
    exported = {n for m in modules for n in import_module(f"mtfsubdiv.{m}").__all__}
    assert set(names) == exported
