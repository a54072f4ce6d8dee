"""Subdivision witnesses, exact search, derived graph, and lifting."""

import random
import time
from itertools import combinations, permutations

import pytest

from mtfsubdiv import (
    BadParameter,
    BudgetExceeded,
    Graph,
    InconsistentWitnesses,
    OutOfRange,
    PreconditionViolated,
    SearchBudget,
    SubdivisionWitness,
    SyntheticDswSpec,
    WitnessCheck,
    derived_graph,
    find_subdivision,
    gen_cycle,
    gen_mycielski,
    gen_petersen,
    gen_random_mtf,
    gen_synthetic_dsw,
    lift_to_induced_subdivision,
    verify_witness,
)
from mtfsubdiv.budget import meter_for
from mtfsubdiv.subdivisions import _SubdivSearch

from families import (
    clebsch_graph,
    complete_bipartite,
    complete_graph,
    path_graph,
    paw_graph,
    random_graph,
    star_graph,
)
from oracles import brute_subdivision, pair_loop_has_chord


def c6_triangle_witness() -> SubdivisionWitness:
    """K_3 drawn as the 1-subdivision that is exactly C_6."""
    return SubdivisionWitness(
        pattern=complete_graph(3),
        host=gen_cycle(6),
        branch_map={0: 0, 1: 2, 2: 4},
        paths={(0, 1): (0, 1, 2), (1, 2): (2, 3, 4), (0, 2): (0, 5, 4)},
    )


# -- verify_witness -----------------------------------------------------


def test_verify_accepts_c6_drawing_of_k3():
    w = c6_triangle_witness()
    assert verify_witness(w, require_induced=False)
    assert verify_witness(w, require_induced=True)
    assert verify_witness(w, require_induced=True).reason is None
    assert w.used_vertices() == set(range(6))
    assert w.path_edges() == set(gen_cycle(6).edges())


def test_verify_reason_branch_map_domain():
    w = c6_triangle_witness()
    bad = SubdivisionWitness(w.pattern, w.host, {0: 0, 1: 2}, w.paths)
    check = verify_witness(bad, require_induced=False)
    assert not check and check.reason == "branch-map-domain"


def test_verify_reason_branch_out_of_range():
    w = c6_triangle_witness()
    bad = SubdivisionWitness(w.pattern, w.host, {0: 0, 1: 2, 2: 6}, w.paths)
    assert verify_witness(bad, False).reason == "branch-out-of-range"


def test_verify_reason_branch_not_injective():
    w = c6_triangle_witness()
    bad = SubdivisionWitness(w.pattern, w.host, {0: 0, 1: 2, 2: 0}, w.paths)
    assert verify_witness(bad, False).reason == "branch-not-injective"


def test_verify_reason_paths_domain():
    w = c6_triangle_witness()
    missing = dict(w.paths)
    del missing[(0, 1)]
    bad = SubdivisionWitness(w.pattern, w.host, w.branch_map, missing)
    assert verify_witness(bad, False).reason == "paths-domain"
    extra = dict(w.paths)
    extra[(0, 3)] = (0, 1)
    bad = SubdivisionWitness(w.pattern, w.host, w.branch_map, extra)
    assert verify_witness(bad, False).reason == "paths-domain"


def test_verify_reason_path_too_short():
    w = c6_triangle_witness()
    paths = dict(w.paths)
    paths[(0, 1)] = (0,)
    bad = SubdivisionWitness(w.pattern, w.host, w.branch_map, paths)
    assert verify_witness(bad, False).reason == "path-too-short"


def test_verify_reason_path_out_of_range():
    w = c6_triangle_witness()
    paths = dict(w.paths)
    paths[(0, 1)] = (0, 9, 2)
    bad = SubdivisionWitness(w.pattern, w.host, w.branch_map, paths)
    assert verify_witness(bad, False).reason == "path-out-of-range"


def test_verify_reason_path_endpoints():
    w = c6_triangle_witness()
    paths = dict(w.paths)
    paths[(0, 1)] = (2, 1, 0)
    bad = SubdivisionWitness(w.pattern, w.host, w.branch_map, paths)
    assert verify_witness(bad, False).reason == "path-endpoints"


def test_verify_reason_path_repeats_vertex():
    edge = Graph(2, [(0, 1)])
    bad = SubdivisionWitness(
        edge, complete_graph(4), {0: 0, 1: 1}, {(0, 1): (0, 2, 3, 2, 1)}
    )
    assert verify_witness(bad, False).reason == "path-repeats-vertex"


def test_verify_reason_path_not_adjacent():
    edge = Graph(2, [(0, 1)])
    bad = SubdivisionWitness(edge, path_graph(3), {0: 0, 1: 2}, {(0, 1): (0, 2)})
    assert verify_witness(bad, False).reason == "path-not-adjacent"


def test_verify_reason_interior_hits_branch_vertex():
    p3 = path_graph(3)
    bad = SubdivisionWitness(
        p3,
        complete_graph(4),
        {0: 0, 1: 1, 2: 2},
        {(0, 1): (0, 3, 1), (1, 2): (1, 0, 2)},
    )
    assert verify_witness(bad, False).reason == "interior-hits-branch-vertex"


def test_verify_reason_paths_share_interior():
    p3 = path_graph(3)
    bad = SubdivisionWitness(
        p3,
        complete_graph(5),
        {0: 0, 1: 1, 2: 2},
        {(0, 1): (0, 4, 1), (1, 2): (1, 4, 2)},
    )
    assert verify_witness(bad, False).reason == "paths-share-interior"


def test_verify_reason_chord_only_in_induced_mode():
    # detour around a triangle: edge {0,1} present among used vertices but
    # not on the path, so the witness is fine plain and chordal induced
    edge = Graph(2, [(0, 1)])
    w = SubdivisionWitness(edge, complete_graph(3), {0: 0, 1: 1}, {(0, 1): (0, 2, 1)})
    assert verify_witness(w, require_induced=False)
    assert verify_witness(w, require_induced=True).reason == "chord"


def _random_witness_with_chords(rng: random.Random) -> SubdivisionWitness:
    """A random subdivision of a random pattern, relabelled at random,
    inside a host that adds a few random edges to it: chords when both
    ends are used, edges to unused vertices otherwise.  One witness in
    five has a reversed path, so verification fails before the chords."""
    pattern = random_graph(rng.randint(1, 5), 0.5, seed=rng.randrange(10**6))
    lengths = {e: rng.randint(0, 3) for e in pattern.edges()}
    n = pattern.n + sum(lengths.values()) + rng.randint(1, 4)
    labels = list(range(n))
    rng.shuffle(labels)
    fresh = iter(labels[pattern.n :])
    branch_map = {a: labels[a] for a in range(pattern.n)}
    paths = {}
    for (a, b), k in lengths.items():
        paths[(a, b)] = (branch_map[a], *(next(fresh) for _ in range(k)), branch_map[b])
    edges = {(min(u, v), max(u, v)) for path in paths.values() for u, v in zip(path, path[1:])}
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    if paths and rng.random() < 0.2:
        e = rng.choice(sorted(paths))
        paths[e] = paths[e][::-1]
    return SubdivisionWitness(pattern, Graph(n, sorted(edges)), branch_map, paths)


def test_verify_chord_check_matches_pair_loop():
    rng = random.Random(14)
    chords = 0
    for _ in range(600):
        w = _random_witness_with_chords(rng)
        plain = verify_witness(w, require_induced=False)
        expect = plain
        if plain and pair_loop_has_chord(w):
            expect = WitnessCheck(False, "chord")
            chords += 1
        assert verify_witness(w, require_induced=True) == expect, w
    assert chords > 100  # the injected edges make chords often enough


# -- find_subdivision ---------------------------------------------------


def test_find_identity_embedding_in_same_graph():
    for g in [complete_graph(3), gen_cycle(5), path_graph(4), paw_graph()]:
        w = find_subdivision(g, g)
        assert w is not None
        assert verify_witness(w, require_induced=False)


def test_find_k3_in_c6_uses_every_vertex():
    w = find_subdivision(complete_graph(3), gen_cycle(6), require_induced=True)
    assert w is not None
    assert w.induced
    assert verify_witness(w, require_induced=True)
    # the only K_3 subdivision in C_6 is the whole cycle
    assert w.used_vertices() == set(range(6))


def test_find_respects_host_limits():
    # degree-3 branch vertices cannot exist in a 2-regular host
    assert find_subdivision(complete_graph(4), gen_cycle(6)) is None
    # trees carry no cycle, hence no triangle subdivision
    assert find_subdivision(complete_graph(3), path_graph(8)) is None
    assert find_subdivision(complete_graph(3), star_graph(7)) is None
    # pattern larger than host is an immediate miss
    assert find_subdivision(complete_graph(4), complete_graph(3)) is None


def test_find_triangle_subdivision_in_any_cycle():
    for n in range(3, 8):
        w = find_subdivision(complete_graph(3), gen_cycle(n))
        assert w is not None
        assert verify_witness(w, require_induced=False)


def test_find_single_vertex_and_empty_pattern():
    k1 = Graph(1)
    w = find_subdivision(k1, gen_cycle(5))
    assert w is not None and w.paths == {} and len(w.branch_map) == 1
    assert verify_witness(w, require_induced=True)

    empty = Graph(0)
    w = find_subdivision(empty, Graph(0))
    assert w is not None and w.branch_map == {} and w.paths == {}
    assert verify_witness(w, require_induced=True)


def test_find_cycle_pattern_in_longer_cycle():
    for n in range(4, 9):
        w = find_subdivision(gen_cycle(4), gen_cycle(n), require_induced=True)
        assert w is not None
        assert verify_witness(w, require_induced=True)
        assert w.used_vertices() == set(range(n))


def test_find_complete_pattern_inside_larger_complete_host():
    for l in range(1, 6):
        for m in range(l, 8):
            w = find_subdivision(complete_graph(l), complete_graph(m))
            assert w is not None, (l, m)
            assert verify_witness(w, require_induced=False)


def test_find_allows_direct_edges_as_paths():
    w = find_subdivision(complete_graph(3), complete_graph(3))
    assert w is not None
    assert all(len(path) == 2 for path in w.paths.values())


def test_find_disconnected_pattern():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    host = Graph(4, [(0, 1), (2, 3)])
    assert find_subdivision(two_edges, host) is not None

    # in P_4 both components must sit on either side of the middle edge,
    # which then survives as a chord
    p4 = path_graph(4)
    assert find_subdivision(two_edges, p4) is not None
    assert find_subdivision(two_edges, p4, require_induced=True) is None

    isolated = Graph(3, [(0, 1)])
    w = find_subdivision(isolated, path_graph(3))
    assert w is not None and verify_witness(w, require_induced=False)


def test_find_edgeless_pattern_needs_independent_branch_set():
    empty3 = Graph(3)
    assert find_subdivision(empty3, complete_graph(3), require_induced=True) is None
    assert find_subdivision(empty3, complete_graph(3)) is not None
    w = find_subdivision(empty3, gen_cycle(6), require_induced=True)
    assert w is not None and verify_witness(w, require_induced=True)


def test_find_in_petersen():
    pet = gen_petersen()
    for pattern in [complete_graph(4), gen_cycle(5), path_graph(5)]:
        w = find_subdivision(pattern, pet)
        assert w is not None
        assert verify_witness(w, require_induced=False)
    # 3-regular hosts cannot carry a degree-4 branch vertex
    assert find_subdivision(star_graph(5), pet) is None


def test_find_is_deterministic():
    host = random_graph(9, 0.4, seed=77)
    first = find_subdivision(complete_graph(3), host)
    second = find_subdivision(complete_graph(3), host)
    assert first == second


def test_find_budget_exceeded_carries_counts():
    with pytest.raises(BudgetExceeded) as err:
        find_subdivision(
            complete_graph(4), gen_petersen(), budget=SearchBudget(max_nodes=5)
        )
    assert err.value.nodes >= 5


def test_verify_invariant_under_host_relabeling():
    rng = random.Random(2024)
    cases = [
        (complete_graph(3), gen_cycle(6), True),
        (complete_graph(4), complete_graph(6), False),
        (gen_cycle(4), gen_petersen(), False),
        (path_graph(4), random_graph(8, 0.45, seed=5), False),
    ]
    for pattern, host, induced in cases:
        w = find_subdivision(pattern, host, require_induced=induced)
        assert w is not None
        for _ in range(5):
            perm = list(range(host.n))
            rng.shuffle(perm)
            relabeled = Graph(host.n, [(perm[u], perm[v]) for u, v in host.edges()])
            moved = SubdivisionWitness(
                pattern,
                relabeled,
                {a: perm[v] for a, v in w.branch_map.items()},
                {e: tuple(perm[v] for v in path) for e, path in w.paths.items()},
                induced=w.induced,
            )
            assert verify_witness(moved, require_induced=induced)


def test_find_agrees_with_brute_force_on_small_hosts():
    patterns = [
        complete_graph(3),
        complete_graph(4),
        gen_cycle(4),
        path_graph(4),
        Graph(4, [(0, 1), (2, 3)]),
        gen_cycle(5),
        star_graph(4),
        Graph(3),
    ]
    hosts = [
        complete_graph(1),
        complete_graph(4),
        complete_graph(5),
        gen_cycle(4),
        gen_cycle(5),
        gen_cycle(6),
        path_graph(5),
        star_graph(4),
        paw_graph(),
    ]
    for seed in range(12):
        hosts.append(random_graph(6, 0.35, seed=seed))
        hosts.append(random_graph(7, 0.3, seed=100 + seed))
    for host in hosts:
        for pattern in patterns:
            for induced in (False, True):
                w = find_subdivision(pattern, host, require_induced=induced)
                expect = brute_subdivision(pattern, host, require_induced=induced)
                assert (w is not None) == expect, (pattern, host, induced)
                if w is not None:
                    assert verify_witness(w, require_induced=induced)


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    edges = set(g.edges())
    return [
        perm
        for perm in permutations(range(g.n))
        if {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
    ]


def test_symmetry_conditions_keep_one_map_per_orbit():
    patterns = [
        complete_graph(3),
        complete_graph(4),
        gen_cycle(4),
        gen_cycle(5),
        path_graph(4),
        star_graph(4),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(3),
        paw_graph(),
        complete_bipartite(3, 3),
    ]
    rng = random.Random(4)
    for pattern in patterns:
        below = _SubdivSearch(pattern, pattern, False, meter_for(None)).below
        auts = brute_automorphisms(pattern)
        for _ in range(30):
            phi = rng.sample(range(20), pattern.n)
            kept = 0
            for sigma in auts:
                image = [phi[sigma[v]] for v in range(pattern.n)]
                if all(image[u] < image[w] for w in range(pattern.n) for u in below[w]):
                    kept += 1
            assert kept == 1, (pattern.edges(), phi)


def test_symmetry_conditions_on_large_symmetric_patterns():
    # |Aut| is 10! and 9!; the conditions come from the stabiliser chain of
    # one individualisation-refinement search, never from listing the group
    meter = meter_for(None)
    below = _SubdivSearch(Graph(10), Graph(10), False, meter).below
    assert below == [tuple(range(w)) for w in range(10)]
    below = _SubdivSearch(star_graph(10), star_graph(10), False, meter).below
    assert below == [()] + [tuple(range(1, w)) for w in range(1, 10)]
    assert meter.nodes < 1_000


def test_symmetry_conditions_equal_their_definition():
    # below[w] holds v = porder[k] exactly when an automorphism fixing
    # porder[:k] pointwise sends v to w, as the former per-pair automorphism
    # search decided; checked against the whole group on the patterns of the
    # tests above and a few more
    patterns = [
        complete_graph(3),
        complete_graph(4),
        gen_cycle(4),
        gen_cycle(5),
        path_graph(4),
        star_graph(4),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(3),
        paw_graph(),
        complete_bipartite(3, 3),
        gen_cycle(6),
        path_graph(5),
        complete_bipartite(2, 3),
        Graph(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3) if u < u ^ 1 << i]),
        Graph(5, [(0, 1), (2, 3)]),
    ]
    for pattern in patterns:
        search = _SubdivSearch(pattern, pattern, False, meter_for(None))
        auts = brute_automorphisms(pattern)
        porder = search.porder
        expected: list[list[int]] = [[] for _ in range(pattern.n)]
        for k, v in enumerate(porder):
            fixing = [a for a in auts if all(a[u] == u for u in porder[:k])]
            for w in porder[k + 1 :]:
                if any(a[v] == w for a in fixing):
                    expected[w].append(v)
        assert search.below == [tuple(b) for b in expected], pattern.edges()


def test_find_long_cycle_runs_on_explicit_stacks():
    # 600 branch levels and 600 routed edges: the assignment and the routing
    # would both recurse far past the interpreter's limit
    host = gen_cycle(1500)
    w = find_subdivision(gen_cycle(600), host, require_induced=True)
    assert w is not None and verify_witness(w, require_induced=True)


def test_find_c100_in_c200_pattern_side_is_cheap():
    # the pattern conditions used to cost one automorphism search per pair of
    # pattern vertices, 333,300 nodes and 21 s for C100
    start = time.perf_counter()
    w = find_subdivision(gen_cycle(100), gen_cycle(200), require_induced=True)
    assert time.perf_counter() - start < 1.0
    assert w is not None and verify_witness(w, require_induced=True)


def test_find_k4_in_k55_search_tree_is_pinned():
    # 2,000 nodes without the host's symmetry, then 69 with it
    pattern, host = complete_graph(4), complete_bipartite(5, 5)
    nodes = 2_069
    assert find_subdivision(
        pattern, host, require_induced=True, budget=SearchBudget(max_nodes=nodes)
    ) is None
    with pytest.raises(BudgetExceeded):
        find_subdivision(
            pattern, host, require_induced=True, budget=SearchBudget(max_nodes=nodes - 1)
        )


def _pinned_search(pattern, host, induced, nodes):
    """The witness of a search that finishes in exactly ``nodes`` nodes."""
    budget = SearchBudget(max_nodes=nodes)
    w = find_subdivision(pattern, host, require_induced=induced, budget=budget)
    with pytest.raises(BudgetExceeded):
        find_subdivision(
            pattern, host, require_induced=induced, budget=SearchBudget(max_nodes=nodes - 1)
        )
    return w


def test_find_c5_in_k66_search_tree_is_pinned():
    assert _pinned_search(gen_cycle(5), complete_bipartite(6, 6), True, 2_077) is None


def test_find_plain_k4_in_petersen_search_tree_is_pinned():
    w = _pinned_search(complete_graph(4), gen_petersen(), False, 25)
    assert w.branch_map == {0: 0, 1: 1, 2: 2, 3: 3}
    assert w.paths == {
        (0, 1): (0, 1),
        (1, 2): (1, 2),
        (2, 3): (2, 3),
        (0, 3): (0, 4, 3),
        (0, 2): (0, 5, 7, 2),
        (1, 3): (1, 6, 8, 3),
    }


def test_find_plain_k33_in_random_mtf_routes_chordless_paths_only():
    # only chordless paths are routed, so this plain search stays far under
    # its budget; routing every path, chords included, takes 6.4M nodes
    host = gen_random_mtf(15, 650)
    budget = SearchBudget(max_nodes=200_000)
    w = find_subdivision(complete_bipartite(3, 3), host, require_induced=False, budget=budget)
    assert w is not None
    assert verify_witness(w, require_induced=False)


def test_find_induced_k4_in_groetzsch_search_tree_is_pinned():
    w = _pinned_search(complete_graph(4), gen_mycielski(gen_cycle(5)), True, 23)
    assert w.branch_map == {0: 0, 1: 1, 2: 2, 3: 3}
    assert w.paths == {
        (0, 1): (0, 1),
        (1, 2): (1, 2),
        (2, 3): (2, 3),
        (0, 2): (0, 6, 2),
        (0, 3): (0, 4, 3),
        (1, 3): (1, 7, 3),
    }


def test_find_c9_in_clebsch_search_tree_is_pinned():
    # the proof of absence took 200,194 nodes before Aut(Clebsch), of order
    # 1,920, pruned the host side
    assert _pinned_search(gen_cycle(9), clebsch_graph(), True, 2_571) is None


def test_clebsch_has_no_induced_nine_cycle():
    host = clebsch_graph()
    budget = SearchBudget(max_nodes=500_000)
    assert find_subdivision(gen_cycle(9), host, require_induced=True, budget=budget) is None
    assert find_subdivision(gen_cycle(6), host, require_induced=True, budget=budget) is not None


def test_clebsch_longest_induced_cycle_matches_networkx():
    nx = pytest.importorskip("networkx")
    host = clebsch_graph()
    longest = max(len(c) for c in nx.chordless_cycles(nx.Graph(host.edges())))
    assert longest == 6


# -- derived graph ------------------------------------------------------


def test_derived_graph_filters_edges_by_surviving_witnesses():
    x = [7, 0, 3]
    witnesses = {(0, 3): 10, (0, 7): 11, (3, 7): 12}
    g, xs = derived_graph(x, witnesses, y_prime=[10, 12])
    assert xs == (0, 3, 7)
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]

    full, _ = derived_graph(x, witnesses, y_prime=[10, 11, 12])
    assert full.edges() == [(0, 1), (0, 2), (1, 2)]

    none, _ = derived_graph(x, witnesses, y_prime=[])
    assert none.n == 3 and none.edges() == []


def test_derived_graph_accepts_unordered_pair_keys():
    g, xs = derived_graph([0, 3], {(3, 0): 9}, [9])
    assert xs == (0, 3) and g.edges() == [(0, 1)]


def test_derived_graph_rejects_bad_input():
    with pytest.raises(OutOfRange):
        derived_graph([0, 3], {(0, 5): 9}, [])
    with pytest.raises(BadParameter):
        derived_graph([0, 3], {(0, 0): 9}, [])
    with pytest.raises(BadParameter):
        derived_graph([0, 3], {(0, 3): 9}, [8])
    with pytest.raises(InconsistentWitnesses):
        derived_graph([0, 3, 5], {(0, 3): 9, (3, 5): 9}, [9])
    with pytest.raises(InconsistentWitnesses):
        derived_graph([0, 3], {(0, 3): 9, (3, 0): 8}, [])


# -- lifting ------------------------------------------------------------


def test_lift_triangle_from_synthetic_structure_is_a_six_cycle():
    g, x, witnesses = gen_synthetic_dsw(SyntheticDswSpec(3))
    w = lift_to_induced_subdivision(
        g, x, witnesses, complete_graph(3), {0: 0, 1: 1, 2: 2}
    )
    assert w.induced
    assert verify_witness(w, require_induced=True)
    assert len(w.used_vertices()) == 6
    assert all(len(path) == 3 for path in w.paths.values())
    # six vertices, six path edges, no chords: exactly a 6-cycle
    assert len(w.path_edges()) == 6


def test_lift_single_edge_gives_a_two_edge_path():
    g, x, witnesses = gen_synthetic_dsw(SyntheticDswSpec(3))
    edge = Graph(2, [(0, 1)])
    w = lift_to_induced_subdivision(g, x, witnesses, edge, {0: 0, 1: 2})
    assert verify_witness(w, require_induced=True)
    assert list(w.paths) == [(0, 1)]
    path = w.paths[(0, 1)]
    assert len(path) == 3 and path[0] == 0 and path[-1] == 2


def test_lift_c4_from_d4_structure_is_a_chordless_eight_cycle():
    g, x, witnesses = gen_synthetic_dsw(SyntheticDswSpec(4))
    c4 = gen_cycle(4)
    w = lift_to_induced_subdivision(g, x, witnesses, c4, {i: i for i in range(4)})
    assert verify_witness(w, require_induced=True)
    used = sorted(w.used_vertices())
    assert len(used) == 8
    path_edges = w.path_edges()
    for u, v in combinations(used, 2):
        if g.has_edge(u, v):
            assert (u, v) in path_edges


def test_lift_survives_padding_to_a_larger_host():
    g, x, witnesses = gen_synthetic_dsw(SyntheticDswSpec(4, padding=True))
    c4 = gen_cycle(4)
    w = lift_to_induced_subdivision(g, x, witnesses, c4, {i: i for i in range(4)})
    assert verify_witness(w, require_induced=True)
    assert len(w.used_vertices()) == 8


def test_lift_precondition_a_branch_set_not_stable():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(PreconditionViolated) as err:
        lift_to_induced_subdivision(
            g, [0, 1], {(0, 1): 2}, Graph(2, [(0, 1)]), {0: 0, 1: 1}
        )
    assert err.value.condition == "a"


def test_lift_precondition_b_witnesses_not_stable():
    g = Graph(5, [(0, 3), (1, 3), (1, 4), (2, 4), (3, 4)])
    with pytest.raises(PreconditionViolated) as err:
        lift_to_induced_subdivision(
            g,
            [0, 1, 2],
            {(0, 1): 3, (1, 2): 4},
            path_graph(3),
            {0: 0, 1: 1, 2: 2},
        )
    assert err.value.condition == "b"


def test_lift_precondition_c_witness_with_extra_adjacency():
    g = Graph(4, [(0, 2), (1, 2), (2, 3)])
    with pytest.raises(PreconditionViolated) as err:
        lift_to_induced_subdivision(
            g, [0, 1, 3], {(0, 1): 2}, Graph(2, [(0, 1)]), {0: 0, 1: 1}
        )
    assert err.value.condition == "c"


def test_lift_precondition_c_witness_missing_adjacency():
    g = Graph(3, [(0, 2)])
    with pytest.raises(PreconditionViolated) as err:
        lift_to_induced_subdivision(
            g, [0, 1], {(0, 1): 2}, Graph(2, [(0, 1)]), {0: 0, 1: 1}
        )
    assert err.value.condition == "c"


def test_lift_rejects_witness_shared_between_pattern_edges():
    # one vertex witnessing two pattern edges sees three x-vertices, which
    # the exact-adjacency check reports as condition (c)
    g = Graph(4, [(0, 3), (1, 3), (2, 3)])
    with pytest.raises(PreconditionViolated) as err:
        lift_to_induced_subdivision(
            g,
            [0, 1, 2],
            {(0, 1): 3, (1, 2): 3},
            path_graph(3),
            {0: 0, 1: 1, 2: 2},
        )
    assert err.value.condition == "c"


def test_lift_rejects_malformed_mapping():
    g, x, witnesses = gen_synthetic_dsw(SyntheticDswSpec(3))
    edge = Graph(2, [(0, 1)])
    with pytest.raises(BadParameter):
        lift_to_induced_subdivision(g, x, witnesses, edge, {0: 0})
    with pytest.raises(BadParameter):
        lift_to_induced_subdivision(g, x, witnesses, edge, {0: 0, 1: 0})
    with pytest.raises(BadParameter):
        lift_to_induced_subdivision(g, x, witnesses, edge, {0: 0, 1: 9})
    with pytest.raises(OutOfRange):
        lift_to_induced_subdivision(
            g, [0, 99], witnesses, edge, {0: 0, 1: 1}
        )


def test_lift_requires_a_witness_for_every_pattern_edge():
    spec = SyntheticDswSpec(3, pattern_edges=frozenset({(0, 1), (1, 2)}))
    g, x, witnesses = gen_synthetic_dsw(spec)
    with pytest.raises(BadParameter):
        lift_to_induced_subdivision(
            g, x, witnesses, complete_graph(3), {0: 0, 1: 1, 2: 2}
        )


def test_lift_of_partial_pattern_structure():
    spec = SyntheticDswSpec(4, pattern_edges=frozenset({(0, 1), (1, 2), (2, 3)}))
    g, x, witnesses = gen_synthetic_dsw(spec)
    w = lift_to_induced_subdivision(
        g, x, witnesses, path_graph(4), {i: i for i in range(4)}
    )
    assert verify_witness(w, require_induced=True)
    assert len(w.used_vertices()) == 7
