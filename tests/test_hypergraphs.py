"""Neighborhood hypergraphs, packing, transversality, and
disjointly-witnessed edge families."""

from __future__ import annotations

import inspect
import random
import sys
from itertools import combinations

import pytest

from families import complete_bipartite, star_graph
from oracles import (
    brute_domination,
    brute_first_dsw,
    brute_max_dsw,
    brute_packing,
    brute_transversal,
    dsw_feasible,
)
from mtfsubdiv import (
    BadParameter,
    BudgetExceeded,
    DswStructure,
    EmptyGraph,
    Graph,
    Hypergraph,
    OutOfRange,
    SearchBudget,
    SyntheticDswSpec,
    dsw_structure_violations,
    dsw_threshold,
    find_dsw_structure,
    gen_cycle,
    gen_mycielski,
    gen_petersen,
    gen_random_mtf,
    gen_synthetic_dsw,
    max_dsw_size,
    max_dsw_structure,
    neighborhood_hypergraph,
    packing_number,
    transversality,
)
from mtfsubdiv import hypergraphs, symmetry
from mtfsubdiv.budget import meter_for


def _h(*edges) -> Hypergraph:
    return Hypergraph(max((max(e) for e in edges if e), default=-1) + 1, [frozenset(e) for e in edges])


def test_neighborhood_hypergraph_shapes():
    h = neighborhood_hypergraph(gen_cycle(5))
    assert len(h.edges) == 5
    assert all(len(e) == 3 for e in h.edges)
    assert h.edges[0] == frozenset({4, 0, 1})

    k1 = neighborhood_hypergraph(Graph(1, []))
    assert k1.edges == (frozenset({0}),)

    pet = neighborhood_hypergraph(gen_petersen())
    assert len(pet.edges) == 10
    assert all(len(e) == 4 for e in pet.edges)

    with pytest.raises(EmptyGraph):
        neighborhood_hypergraph(Graph(0, []))


def test_hypergraph_validation():
    # no edges is a legal (if boring) hypergraph, but it has no packing
    # number and no transversality
    empty = Hypergraph(3, [])
    assert empty.edges == ()
    with pytest.raises(BadParameter):
        packing_number(empty)
    with pytest.raises(BadParameter):
        transversality(empty)
    for n in (-1, True):
        with pytest.raises(BadParameter):
            Hypergraph(n, [])
    for edge in (frozenset(), 5):
        with pytest.raises(BadParameter):
            Hypergraph(3, [edge])
    for edge in (frozenset({3}), [True, 2]):
        with pytest.raises(OutOfRange):
            Hypergraph(3, [edge])


def _assert_tables(h: Hypergraph, edges: list[frozenset[int]]) -> None:
    # the tables and the edges read back from them, against the input edges
    m = len(edges)
    assert h.masks == tuple(sum(1 << v for v in e) for e in edges)
    assert h.incidence == tuple(
        sum(1 << i for i in range(m) if v in edges[i]) for v in range(h.n)
    )
    assert h.conflict == tuple(
        sum(1 << j for j in range(m) if edges[i] & edges[j]) for i in range(m)
    )
    assert all(c >> i & 1 for i, c in enumerate(h.conflict))
    assert h.edges == tuple(edges)
    assert all(type(e) is frozenset for e in h.edges)


def test_bitmask_tables_match_the_edges():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(0, 10)
        edges = [
            frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
            for _ in range(rng.randrange(0, 8) if n else 0)
        ]
        # duplicates are kept, in order
        edges += edges[: rng.randrange(0, 3)]
        _assert_tables(Hypergraph(n, [sorted(e, reverse=True) for e in edges]), edges)
    for g in (Graph(1, []), gen_cycle(7), gen_petersen(), gen_random_mtf(20, 3)):
        closed = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
        h = neighborhood_hypergraph(g)
        _assert_tables(h, closed)
        listed = Hypergraph(g.n, closed)
        assert (h.masks, h.incidence, h.conflict, h.edges) == (
            listed.masks,
            listed.incidence,
            listed.conflict,
            listed.edges,
        )
        assert h.incidence == h.masks


def test_packing_named():
    assert packing_number(neighborhood_hypergraph(gen_cycle(5))) == 1
    assert packing_number(_h({0}, {1}, {2})) == 3
    assert packing_number(_h({0, 1, 2})) == 1


def test_packing_long_cycle_within_budget():
    # closed neighborhoods of C60 form a 4-regular intersection graph
    h = neighborhood_hypergraph(gen_cycle(60))
    assert packing_number(h, SearchBudget(max_nodes=10_000)) == 20


def test_packing_on_c3000_runs_on_an_explicit_stack():
    # the MIS search under packing_number is 2,001 levels deep, past
    # Python's default recursion limit; the node count pins the search tree
    h = neighborhood_hypergraph(gen_cycle(3000))
    assert packing_number(h, SearchBudget(max_nodes=2_001)) == 1000
    with pytest.raises(BudgetExceeded):
        packing_number(h, SearchBudget(max_nodes=2_000))


def test_packing_matches_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 9)
        edges = [
            frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
            for _ in range(rng.randrange(1, 8))
        ]
        h = Hypergraph(n, edges)
        assert packing_number(h) == brute_packing(h)


def test_transversality_named():
    tau, witness = transversality(neighborhood_hypergraph(gen_cycle(5)))
    assert (tau, witness) == (2, frozenset({0, 2}))
    assert transversality(_h({0, 1, 2}))[0] == 1
    assert transversality(neighborhood_hypergraph(gen_petersen()))[0] == 3


def test_transversality_matches_domination_oracle():
    for seed in range(25):
        g = gen_random_mtf(3 + seed % 8, seed)
        tau, witness = transversality(neighborhood_hypergraph(g))
        k, lex_witness = brute_domination(g)
        assert tau == k
        assert tuple(sorted(witness)) == lex_witness, "lex-least witness"


def test_transversality_matches_brute_force_on_general_hypergraphs():
    # general hypergraphs, unlike closed neighborhoods of MTF hosts, have
    # disjoint edges, so the disjoint-edge bound prunes with room for two
    # or more vertices; the lex-least witness is grown by searches that
    # only use vertices above the last one kept
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randrange(1, 10)
        edges = [
            frozenset(rng.sample(range(n), rng.randrange(1, min(n, 4) + 1)))
            for _ in range(rng.randrange(1, 11))
        ]
        h = Hypergraph(n, edges)
        tau, witness = transversality(h)
        assert (tau, tuple(sorted(witness))) == brute_transversal(h)


def test_transversality_search_tree_is_pinned():
    # 1,706 nodes decide N[synthetic d = 7]; a change in the branching order,
    # in the pruning of the cover test or in the k it is asked for, or a
    # last cover level made of children again, moves this count
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=7, padding=True))
    h = neighborhood_hypergraph(g)
    assert transversality(h, SearchBudget(max_nodes=1_706))[0] == 5
    with pytest.raises(BudgetExceeded):
        transversality(h, SearchBudget(max_nodes=1_705))


def test_transversality_synthetic_d9_search_tree_is_pinned():
    # 8,218 nodes decide N[synthetic d = 9], the group search included
    # (29,499 without the host's symmetry): past symmetry.START_AFTER the
    # cover tests branch by orbits of S_9 and the witness phase skips
    # vertices that the generators fixing the kept ones map lower
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=9, padding=True))
    h = neighborhood_hypergraph(g)
    assert transversality(h, SearchBudget(max_nodes=8_218)) == (6, frozenset({0, 17, 30, 39, 44, 45}))
    with pytest.raises(BudgetExceeded):
        transversality(h, SearchBudget(max_nodes=8_217))


def _symmetric_hosts() -> list[Graph]:
    groetzsch = gen_mycielski(gen_cycle(5))
    hosts = [gen_cycle(n) for n in range(4, 19)]
    hosts += [complete_bipartite(a, b) for a, b in ((1, 4), (2, 2), (2, 5), (3, 3), (3, 6), (4, 4), (5, 7))]
    hosts += [gen_petersen(), groetzsch, gen_mycielski(groetzsch)]
    hosts += [gen_synthetic_dsw(SyntheticDswSpec(d=d, padding=True))[0] for d in range(3, 8)]
    hosts += [gen_random_mtf(n, 900 + n) for n in range(6, 26)]
    return hosts


@pytest.mark.parametrize("start", [0, 25])
def test_transversality_under_host_symmetry_matches_oracles(monkeypatch, start):
    # with the group found at once, or in the middle of a cover test, whose
    # pending nodes are then pruned, the cover tests branch by orbits and the witness
    # phase skips by the lex-leader rule; τ and the lex-least transversal
    # must match brute force where it finishes, and the search that never
    # finds the group elsewhere
    hosts = _symmetric_hosts()
    monkeypatch.setattr(symmetry, "START_AFTER", 10**9)
    unpruned = [transversality(neighborhood_hypergraph(g)) for g in hosts]
    monkeypatch.setattr(symmetry, "START_AFTER", start)
    for g, expected in zip(hosts, unpruned):
        tau, witness = transversality(neighborhood_hypergraph(g))
        if g.n <= 12:
            assert (tau, tuple(sorted(witness))) == brute_domination(g), g
        assert (tau, witness) == expected, g


@pytest.mark.parametrize("start", [0, 7, 100])
def test_transversality_with_a_trivial_group_keeps_its_search_tree(monkeypatch, start):
    # a group found trivial (here without a single search node), before a
    # cover test or in the middle of one, leaves the search tree as it was
    meters = []

    def capture(budget):
        meters.append(meter_for(budget))
        return meters[-1]

    def trivial(adj, cells, points, meter, base=()):
        return symmetry.Group(points, [])

    monkeypatch.setattr(hypergraphs, "meter_for", capture)
    hosts = [gen_petersen(), gen_random_mtf(30, 4), gen_synthetic_dsw(SyntheticDswSpec(d=7, padding=True))[0]]
    before = [transversality(neighborhood_hypergraph(g)) for g in hosts]
    monkeypatch.setattr(symmetry, "START_AFTER", start)
    monkeypatch.setattr(symmetry, "_automorphisms", trivial)
    assert [transversality(neighborhood_hypergraph(g)) for g in hosts] == before
    counts = [m.nodes for m in meters]
    assert counts[:3] == counts[3:] and min(counts) > 0


@pytest.mark.parametrize("seed", [2, 5])
def test_transversality_with_a_group_found_mid_test_searches_nothing_twice(monkeypatch, seed):
    # N[random MTF 50] has a twin pair (a group of order 2) and runs past
    # symmetry.START_AFTER inside a cover test: the children pushed before
    # the group came are pruned against their finished siblings, not
    # searched again from the root, so the count, group search included,
    # stays at most that of the search without symmetry
    meters = []

    def capture(budget):
        meters.append(meter_for(budget))
        return meters[-1]

    monkeypatch.setattr(hypergraphs, "meter_for", capture)
    h = neighborhood_hypergraph(gen_random_mtf(50, seed))
    start = symmetry.START_AFTER
    found = transversality(h)
    monkeypatch.setattr(symmetry, "START_AFTER", 10**9)
    assert transversality(h) == found
    assert start < meters[0].nodes <= meters[1].nodes


def test_transversality_on_c1200_runs_on_an_explicit_stack():
    # τ(N[C1200]) = 400 puts the cover search at least 400 levels deep; it
    # must run into its node budget, not into the interpreter's recursion limit
    h = neighborhood_hypergraph(gen_cycle(1200))
    with pytest.raises(BudgetExceeded):
        transversality(h, SearchBudget(max_nodes=20_000))


def test_transversality_at_least_packing():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(2, 9)
        edges = [
            frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
            for _ in range(rng.randrange(1, 7))
        ]
        h = Hypergraph(n, edges)
        assert transversality(h)[0] >= packing_number(h)


def test_dsw_threshold_values():
    assert dsw_threshold(1) == 220
    assert dsw_threshold(2) == 2376
    assert dsw_threshold(3) == 11088
    for bad in (0, True):
        with pytest.raises(OutOfRange):
            dsw_threshold(bad)


def test_dsw_threshold_against_expanded_polynomial():
    for d in range(1, 51):
        expanded = 11 * d**5 + 66 * d**4 + 99 * d**3 + 44 * d**2
        assert dsw_threshold(d) == expanded


def test_find_dsw_c5_lex_first():
    h = neighborhood_hypergraph(gen_cycle(5))
    s2 = find_dsw_structure(h, 2)
    assert s2.edge_indices == (0, 1)
    assert s2.witnesses == {(0, 1): 0}
    s3 = find_dsw_structure(h, 3)
    assert s3.edge_indices == (0, 1, 3)
    assert s3.witnesses == {(0, 1): 0, (0, 2): 4, (1, 2): 2}


def _assert_lex_first(h: Hypergraph, d: int) -> None:
    expected = brute_first_dsw(h, d)
    found = find_dsw_structure(h, d)
    if expected is None:
        assert found is None, (h.edges, d)
    else:
        assert found is not None, (h.edges, d)
        assert (found.edge_indices, found.witnesses) == expected, (h.edges, d)
        # a witness lies in no third chosen edge, so no two pairs share one
        assert len(set(found.witnesses.values())) == len(found.witnesses), (h.edges, d)


def test_find_dsw_matches_lex_first_oracle():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randrange(1, 9)
        edges = [
            frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
            for _ in range(rng.randrange(1, 8))
        ]
        h = Hypergraph(n, edges)
        for d in range(2, len(h.edges) + 2):
            _assert_lex_first(h, d)


def test_find_dsw_matches_lex_first_oracle_on_mtf_corpus(mtf_corpus):
    # the oracle enumerates every d-subset, so every d up to m + 1 is
    # checked on the small hosts and the first few sizes on the rest
    for g in mtf_corpus:
        h = neighborhood_hypergraph(g)
        top = len(h.edges) + 1 if g.n <= 12 else min(4, len(h.edges))
        for d in range(2, top + 1):
            _assert_lex_first(h, d)


def test_c5_named_structures_are_valid_but_not_first():
    # these appear along the search order later than the lex-first ones
    h = neighborhood_hypergraph(gen_cycle(5))
    named2 = DswStructure(edge_indices=(0, 2), witnesses={(0, 1): 1})
    assert dsw_structure_violations(h, named2) == []
    named3 = DswStructure(
        edge_indices=(0, 2, 4), witnesses={(0, 1): 1, (1, 2): 3, (0, 2): 4}
    )
    assert dsw_structure_violations(h, named3) == []


def test_find_dsw_privacy_vacuous_at_two():
    s = find_dsw_structure(_h({0, 1}, {0, 1}), 2)
    assert s.edge_indices == (0, 1)
    assert s.witnesses == {(0, 1): 0}
    t = find_dsw_structure(_h({0}, {0}), 2)
    assert t.witnesses == {(0, 1): 0}


def test_find_dsw_absent():
    # disjoint edges admit no pair witness at all
    assert find_dsw_structure(_h({0}, {1}, {2}), 2) is None
    with pytest.raises(OutOfRange):
        find_dsw_structure(_h({0, 1}), 1)


def test_validator_catches_privacy_violation():
    h = neighborhood_hypergraph(gen_cycle(5))
    # vertex 1 lies in N[1], a chosen third edge
    bad = DswStructure(edge_indices=(0, 1, 2), witnesses={(0, 1): 0, (0, 2): 1, (1, 2): 2})
    problems = dsw_structure_violations(h, bad)
    assert problems, "expected a violation report"
    legit = find_dsw_structure(h, 3)
    assert dsw_structure_violations(h, legit) == []


def test_validator_catches_structural_problems():
    h = _h({0, 1}, {1, 2}, {0, 2})
    assert dsw_structure_violations(h, DswStructure((0, 0), {(0, 1): 1}))
    assert dsw_structure_violations(h, DswStructure((0, 9), {(0, 1): 1}))
    assert dsw_structure_violations(h, DswStructure((0, 1), {}))  # missing pair
    assert dsw_structure_violations(h, DswStructure((0, 1), {(0, 1): 0}))  # 0 not in e_1
    assert dsw_structure_violations(h, DswStructure((True, 2), {(0, 1): 2}))  # bool index
    for y in (-1, 3, None):  # witnesses that are no vertex id
        assert dsw_structure_violations(h, DswStructure((0, 1), {(0, 1): y}))


@pytest.mark.parametrize(
    "s",
    [
        DswStructure(([0], [1]), {}),  # unhashable indices
        DswStructure((0, 1), [(0, 1)]),  # witnesses that are no map
        DswStructure(5, {}),  # indices that are no sequence
        DswStructure((0, 1), {(0, 1): [1]}),  # an unhashable witness
        DswStructure(None, {}),
    ],
)
def test_validator_reports_malformed_structures(s):
    problems = dsw_structure_violations(_h({0, 1}, {1, 2}, {0, 2}), s)
    assert problems and all(isinstance(p, str) for p in problems)
    # and the structure's size is an int or a package error
    try:
        assert isinstance(s.d, int)
    except BadParameter:
        pass


def test_max_dsw_conventions():
    assert max_dsw_size(_h({0, 1, 2})) == 1
    assert max_dsw_size(_h({0}, {1}, {2})) == 1
    assert max_dsw_size(_h({0, 1}, {1, 2}, {0, 2})) == 3


def test_max_dsw_c5_frozen():
    # all five closed neighborhoods fail jointly: pair (N[0], N[2]) has the
    # single candidate 1, which lies in the chosen edge N[1]; every 4-subset
    # fails the same way, and (0, 1, 3) works at three
    h = neighborhood_hypergraph(gen_cycle(5))
    assert max_dsw_size(h) == 3


def test_max_dsw_matches_oracle():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(2, 8)
        edges = [
            frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
            for _ in range(rng.randrange(1, 7))
        ]
        h = Hypergraph(n, edges)
        assert max_dsw_size(h) == brute_max_dsw(h)


def test_max_dsw_stops_at_first_infeasible_size(mtf_corpus):
    # the upward search stops at the first d without a structure; the
    # exhaustive search at d and d + 1 confirms that stop
    for g in mtf_corpus:
        h = neighborhood_hypergraph(g)
        d = max_dsw_size(h)
        if d >= 2:
            assert find_dsw_structure(h, d) is not None
        if d < len(h.edges):
            assert find_dsw_structure(h, d + 1) is None


def test_max_dsw_synthetic_d8_within_budget():
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=8, padding=True))
    h = neighborhood_hypergraph(g)
    assert max_dsw_size(h, SearchBudget(max_nodes=250_000)) == 8


def test_max_dsw_random_mtf_35_within_budget():
    # the random n = 35 host of the benchmark's host_analyze workload at
    # seed 1; forward checking finishes it in 65,488 nodes
    h = neighborhood_hypergraph(gen_random_mtf(35, 1350))
    assert max_dsw_size(h, SearchBudget(max_nodes=100_000)) == 6


def test_max_dsw_search_tree_is_pinned():
    # 2,258 extension tests and symmetry nodes decide N[synthetic d = 7]
    # (18,906 without the host's symmetry); a change in the order or in the
    # pruning of the search moves this count
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=7, padding=True))
    h = neighborhood_hypergraph(g)
    assert max_dsw_size(h, SearchBudget(max_nodes=2_258)) == 7
    with pytest.raises(BudgetExceeded):
        max_dsw_size(h, SearchBudget(max_nodes=2_257))


def test_max_dsw_synthetic_d9_search_tree_is_pinned():
    # without the host's symmetry this took 203,801 nodes, 99 % of them the
    # proof that no ten edges form a structure; S_9 permutes the x_i
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=9, padding=True))
    h = neighborhood_hypergraph(g)
    assert max_dsw_size(h, SearchBudget(max_nodes=2_664)) == 9
    with pytest.raises(BudgetExceeded):
        max_dsw_size(h, SearchBudget(max_nodes=2_663))


def test_find_dsw_runs_on_an_explicit_stack():
    # the structure of N[synthetic d = 30] is 30 edges deep; the search must
    # find it with the interpreter's stack nearly full.  A first run at the
    # normal limit does the lazy symmetry import
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=30))
    h = neighborhood_hypergraph(g)
    first = find_dsw_structure(h, 30)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        s = find_dsw_structure(h, 30)
    finally:
        sys.setrecursionlimit(limit)
    assert s == first and s.d == 30


def test_max_dsw_decides_former_frontier():
    # without witness-capacity pruning these searches ran out of this
    # budget: they took 264,907, 231,760 and 334,929 nodes
    mmg = gen_mycielski(gen_mycielski(gen_mycielski(gen_cycle(5))))
    budget = SearchBudget(max_nodes=100_000)
    assert max_dsw_size(neighborhood_hypergraph(mmg), budget) == 6
    assert max_dsw_size(neighborhood_hypergraph(gen_random_mtf(40, 1400)), budget) == 7
    assert max_dsw_size(neighborhood_hypergraph(gen_random_mtf(45, 1450)), budget) == 7


def _dual_complete(d: int, missing: tuple[int, int] | None = None) -> Hypergraph:
    # ground set: the pairs of {0..d-1}; edge i: the pairs containing i
    pairs = [p for p in combinations(range(d), 2) if p != missing]
    return Hypergraph(len(pairs), [[k for k, p in enumerate(pairs) if i in p] for i in range(d)])


@pytest.mark.parametrize("d", range(3, 9))
def test_max_dsw_on_dual_complete_graph_has_no_spare_capacity(d):
    # each pair's only witness is the pair itself, so every edge has exactly
    # the capacity a structure of all d edges needs; without one pair, its
    # two edges cannot both be chosen
    h = _dual_complete(d)
    assert max_dsw_size(h) == d
    s = max_dsw_structure(h)
    assert s.edge_indices == tuple(range(d))
    assert not dsw_structure_violations(h, s)
    assert max_dsw_size(_dual_complete(d, missing=(0, d - 1))) == d - 1
    assert max_dsw_size(_dual_complete(d, missing=(d - 2, d - 1))) == d - 1


def test_max_dsw_structure_is_the_lex_first_structure_at_max_size(mtf_corpus):
    assert max_dsw_structure(Hypergraph(2, [])) is None
    assert max_dsw_structure(_h({0}, {1})) == DswStructure((0,), {})
    for g in mtf_corpus[::5]:
        h = neighborhood_hypergraph(g)
        s = max_dsw_structure(h)
        assert s.d == max_dsw_size(h)
        if s.d >= 2:
            assert s == find_dsw_structure(h, s.d)


def test_dsw_feasibility_oracle_agrees_on_found_structures():
    for seed in range(20):
        g = gen_random_mtf(6 + seed % 10, seed)
        h = neighborhood_hypergraph(g)
        d = max_dsw_size(h)
        if d >= 2:
            s = find_dsw_structure(h, d)
            assert dsw_feasible(h, s.edge_indices)


def test_dsw_contrapositive_consistency():
    # tau rarely beats any threshold at this scale, so the implication is
    # usually vacuous; assert it anyway, as stated
    for seed in range(10):
        g = gen_random_mtf(5 + seed, seed)
        h = neighborhood_hypergraph(g)
        if packing_number(h) != 1:
            continue
        tau = transversality(h)[0]
        dmax = max_dsw_size(h)
        for d in range(1, len(h.edges) + 1):
            if tau > dsw_threshold(d):
                assert dmax >= d


def test_budget_exceeded_on_dsw():
    g = gen_random_mtf(30, 4)
    h = neighborhood_hypergraph(g)
    with pytest.raises(BudgetExceeded):
        max_dsw_size(h, SearchBudget(max_nodes=3, max_seconds=60.0))
