"""Bounds, star-cover coloring, the analysis report, and the full pipeline."""

import json

import pytest

from mtfsubdiv import (
    BadParameter,
    BudgetExceeded,
    EmptyGraph,
    Graph,
    NotMaximalTriangleFree,
    OutOfRange,
    PreconditionViolated,
    SearchBudget,
    SyntheticDswSpec,
    analyze,
    chromatic_number,
    compute_bounds,
    derived_graph,
    find_subdivision,
    gen_cycle,
    gen_petersen,
    gen_random_mtf,
    gen_synthetic_dsw,
    is_proper_coloring,
    lift_to_induced_subdivision,
    max_independent_set,
    neighborhood_hypergraph,
    run_pipeline,
    star_cover_coloring,
    transversality,
    verify_witness,
    witness_to_dict,
)
from mtfsubdiv import pipeline

from families import complete_graph, path_graph, paw_graph


# -- closed-form bounds -------------------------------------------------


def test_bounds_small_values():
    b1 = compute_bounds(1)
    assert b1.mader_avg_degree == 512
    assert b1.log_threshold == 256
    assert b1.chi_threshold_exponent == 65536
    assert b1.chi_threshold_formula == "e^(65536*1^4) = e^65536"
    assert b1.dsw_d_required == "ceil(e^65536)^2"

    b2 = compute_bounds(2)
    assert b2.mader_avg_degree == 2048
    assert b2.log_threshold == 1024
    assert b2.chi_threshold_exponent == 1048576

    b3 = compute_bounds(3)
    assert b3.mader_avg_degree == 4608
    assert b3.log_threshold == 2304
    assert b3.chi_threshold_exponent == 5308416


def test_bounds_internal_relations():
    for l in range(1, 12):
        b = compute_bounds(l)
        assert b.l == l
        assert b.mader_avg_degree == 2 * b.log_threshold
        assert b.chi_threshold_exponent == b.log_threshold**2
        assert str(b.chi_threshold_exponent) in b.chi_threshold_formula
        assert str(b.chi_threshold_exponent) in b.dsw_d_required
        assert "65536" in b.instantiation_note


def test_bounds_to_dict_keys():
    d = compute_bounds(2).to_dict()
    assert list(d) == [
        "l",
        "mader_avg_degree",
        "log_threshold",
        "chi_threshold_exponent",
        "chi_threshold_formula",
        "dsw_d_required",
        "instantiation_note",
    ]


def test_bounds_rejects_bad_l():
    for bad in (0, -3, 1.5, "2", True):
        with pytest.raises(BadParameter):
            compute_bounds(bad)


# -- star cover coloring ------------------------------------------------


def test_star_cover_on_five_cycle():
    g = gen_cycle(5)
    tau, centers = transversality(neighborhood_hypergraph(g))
    assert tau == 2
    colors = star_cover_coloring(g, centers)
    assert is_proper_coloring(g, colors)
    assert len(set(colors)) <= 2 * tau
    assert chromatic_number(g) <= 2 * tau


def test_star_cover_bounds_chromatic_number_on_mtf_corpus(mtf_corpus):
    for g in mtf_corpus[:80]:
        if g.n == 0:
            continue
        tau, centers = transversality(neighborhood_hypergraph(g))
        colors = star_cover_coloring(g, centers)
        assert is_proper_coloring(g, colors)
        assert len(set(colors)) <= 2 * tau
        assert chromatic_number(g) <= 2 * tau


def test_star_cover_rejects_non_dominating_centers():
    with pytest.raises(BadParameter):
        star_cover_coloring(gen_cycle(5), [0])
    # a center that is not a vertex id is out of range, like any vertex set's item
    with pytest.raises(OutOfRange):
        star_cover_coloring(gen_cycle(5), [7])
    with pytest.raises(OutOfRange):
        star_cover_coloring(gen_cycle(5), [True, 3])  # would dominate as [1, 3]
    # mixed and unhashable items are rejected before any sorting
    for bad in (["a", 1], [[1], 1]):
        with pytest.raises(OutOfRange):
            star_cover_coloring(gen_cycle(5), bad)


def test_is_proper_coloring_basics():
    g = gen_cycle(4)
    assert is_proper_coloring(g, [0, 1, 0, 1])
    assert not is_proper_coloring(g, [0, 0, 1, 1])
    assert not is_proper_coloring(g, [0, 1])


# -- analysis report ----------------------------------------------------

ANALYZE_KEYS = [
    "n",
    "m",
    "min_degree",
    "average_degree",
    "min_degree_ratio",
    "triangle_free",
    "maximal_triangle_free",
    "chromatic_number",
    "clique_number",
    "independence_number",
    "packing_number",
    "transversality",
    "transversal",
    "max_dsw_size",
    "chi_le_2tau",
    "budget_exceeded",
]


def test_analyze_five_cycle():
    rep = analyze(gen_cycle(5))
    assert list(rep) == ANALYZE_KEYS
    assert rep["n"] == 5 and rep["m"] == 5
    assert rep["min_degree"] == 2
    assert rep["average_degree"] == "2"
    assert rep["min_degree_ratio"] == "2/5"
    assert rep["triangle_free"] and rep["maximal_triangle_free"]
    assert rep["chromatic_number"] == 3
    assert rep["clique_number"] == 2
    assert rep["independence_number"] == 2
    assert rep["packing_number"] == 1
    assert rep["transversality"] == 2
    assert rep["chi_le_2tau"] is True
    assert rep["budget_exceeded"] == []


def test_analyze_single_vertex():
    rep = analyze(Graph(1))
    assert rep["n"] == 1
    assert rep["chromatic_number"] == 1
    assert rep["transversality"] == 1
    assert rep["maximal_triangle_free"] is True


def test_analyze_petersen():
    rep = analyze(gen_petersen())
    assert rep["chromatic_number"] == 3
    assert rep["transversality"] == 3
    assert rep["packing_number"] == 1
    assert rep["independence_number"] == 4
    assert rep["maximal_triangle_free"] is True
    assert rep["chi_le_2tau"] is True


def test_analyze_triangle_host():
    rep = analyze(complete_graph(3))
    assert rep["triangle_free"] is False
    assert rep["maximal_triangle_free"] is False
    # the coloring inequality is only claimed for triangle-free hosts
    assert rep["chi_le_2tau"] is None


def test_analyze_empty_graph():
    rep = analyze(Graph(0))
    assert rep["n"] == 0
    assert rep["chromatic_number"] == 0
    assert rep["packing_number"] is None
    assert rep["transversality"] is None
    assert rep["triangle_free"] is True


def test_analyze_budget_exceeded_fields_go_none():
    rep = analyze(gen_petersen(), budget=SearchBudget(max_nodes=1))
    assert rep["budget_exceeded"] == [
        "chromatic_number",
        "clique_number",
        "independence_number",
        "packing_number",
        "transversality",
        "max_dsw_size",
    ]
    for field in rep["budget_exceeded"]:
        assert rep[field] is None
    # five nodes are enough for the packing of N[Petersen] only
    rep = analyze(gen_petersen(), budget=SearchBudget(max_nodes=5))
    assert rep["packing_number"] == 1
    assert rep["budget_exceeded"] == [
        "chromatic_number",
        "clique_number",
        "independence_number",
        "transversality",
        "max_dsw_size",
    ]


def test_analyze_is_deterministic():
    a = json.dumps(analyze(gen_petersen()))
    b = json.dumps(analyze(gen_petersen()))
    assert a == b


# -- pipeline: hard errors ----------------------------------------------


def test_pipeline_rejects_empty_host():
    with pytest.raises(EmptyGraph):
        run_pipeline(Graph(0), complete_graph(3))


def test_pipeline_rejects_triangle_host():
    with pytest.raises(NotMaximalTriangleFree) as err:
        run_pipeline(complete_graph(3), complete_graph(3))
    assert str(err.value) == "host contains triangle (0, 1, 2)"


def test_pipeline_rejects_non_maximal_host():
    # C_6 is triangle-free but vertices at distance 3 share no neighbor
    with pytest.raises(NotMaximalTriangleFree) as err:
        run_pipeline(gen_cycle(6), complete_graph(3))
    assert str(err.value) == (
        "host is triangle-free but not maximal: some non-adjacent pair has no common neighbor"
    )
    with pytest.raises(NotMaximalTriangleFree):
        run_pipeline(path_graph(4), complete_graph(3))


# -- pipeline: stage narratives -----------------------------------------


def test_pipeline_c5_triangle_goes_through_fallback():
    rep = run_pipeline(gen_cycle(5), complete_graph(3))
    assert rep.verdict == "fallback-success"
    assert rep.stall_reason == "pattern-subdivision-not-found-in-derived"

    st = rep.stages
    assert st["maximality"] == {
        "triangle_free": True,
        "maximal_triangle_free": True,
    }
    assert st["hypergraph"]["edge_count"] == 5
    assert st["hypergraph"]["packing_number"] == 1
    assert st["hypergraph"]["transversality"] == 2
    assert st["hypergraph"]["chromatic_number"] == 3
    assert st["hypergraph"]["chi_le_2tau"] is True
    assert st["hypergraph"]["star_cover_proper"] is True

    assert st["dsw"]["d"] == 3
    assert st["x_restriction"]["stable_set"] == [0, 3]
    assert st["x_restriction"]["benchmark"] == 1
    assert st["x_restriction"]["meets_benchmark"] is True

    assert st["uniqueness"]["surviving_pairs"] == [[0, 3, 4]]
    assert st["y_restriction"]["stable_set"] == [4]

    assert st["derived"]["n"] == 2
    assert st["derived"]["m"] == 1
    assert st["derived"]["mapping"] == [0, 3]
    assert st["derived"]["meets_mader"] is False

    assert st["search_in_derived"] == {"found": False, "budget_exceeded": False}
    assert st["lift"] is None
    assert st["fallback"]["ran"] is True
    assert st["fallback"]["found"] is True
    assert st["fallback"]["verified"] is True

    assert rep.witness is not None
    assert verify_witness(rep.witness, require_induced=True)
    # the only triangle subdivision in C_5 is the whole five-cycle
    assert rep.witness.used_vertices() == set(range(5))


def test_pipeline_petersen_triangle_goes_through_fallback():
    rep = run_pipeline(gen_petersen(), complete_graph(3))
    assert rep.verdict == "fallback-success"
    assert rep.witness is not None
    assert verify_witness(rep.witness, require_induced=True)
    assert rep.stages["hypergraph"]["transversality"] == 3
    # at one node every stage-2 solve runs out, in the order they run
    rep = run_pipeline(gen_petersen(), complete_graph(3), SearchBudget(max_nodes=1))
    assert list(rep.stages["hypergraph"].items()) == [
        ("edge_count", 10),
        ("packing_number", None),
        ("transversality", None),
        ("transversal", None),
        ("chromatic_number", None),
        ("chi_le_2tau", None),
        ("star_cover_colors", None),
        ("star_cover_proper", None),
        ("budget_exceeded", ["packing_number", "transversality", "chromatic_number"]),
    ]


def test_pipeline_single_vertex_pattern_goes_through_route():
    rep = run_pipeline(gen_cycle(5), Graph(1))
    assert rep.verdict == "route-success"
    assert rep.stall_reason is None
    assert rep.stages["lift"]["verified"] is True
    assert rep.stages["fallback"]["ran"] is False
    assert rep.witness is not None
    assert rep.witness.paths == {}


def test_pipeline_route_success_on_planted_structure():
    host, x, _ = gen_synthetic_dsw(SyntheticDswSpec(5, padding=True))
    rep = run_pipeline(host, complete_graph(3))
    assert rep.verdict == "route-success"
    assert rep.stall_reason is None

    st = rep.stages
    assert st["dsw"]["d"] == 5
    assert st["x_restriction"]["stable_set"] == sorted(x)
    assert len(st["uniqueness"]["surviving_pairs"]) == 10
    assert st["y_restriction"]["size"] == 10
    assert st["derived"]["n"] == 5
    assert st["derived"]["m"] == 10
    assert st["search_in_derived"]["found"] is True
    assert st["lift"]["verified"] is True
    assert st["fallback"]["ran"] is False

    assert rep.witness is not None
    assert rep.witness.induced
    assert verify_witness(rep.witness, require_induced=True)
    # route witnesses realize every pattern edge as a two-edge path
    assert all(len(p) == 3 for p in rep.witness.paths.values())


def test_pipeline_not_found_verdict():
    # C_5 is 2-regular, so no degree-3 branch vertex ever exists
    rep = run_pipeline(gen_cycle(5), complete_graph(4))
    assert rep.verdict == "not-found"
    assert rep.witness is None
    assert rep.stages["fallback"]["ran"] is True
    assert rep.stages["fallback"]["found"] is False


def test_pipeline_budget_exceeded_verdict():
    rep = run_pipeline(
        gen_petersen(), complete_graph(3), budget=SearchBudget(max_nodes=1)
    )
    assert rep.verdict == "budget-exceeded"
    assert rep.stall_reason is not None
    assert rep.stall_reason.startswith("budget-exceeded:")
    assert rep.stages["fallback"]["budget_exceeded"] is True
    assert rep.witness is None


def test_pipeline_cross_check_runs_fallback_after_route_success():
    rep = run_pipeline(gen_cycle(5), Graph(1), cross_check=True)
    assert rep.verdict == "route-success"
    assert rep.stages["fallback"]["ran"] is True
    assert rep.stages["fallback"]["found"] is True
    assert rep.stages["fallback"]["verified"] is True


def test_pipeline_stage_keys_always_present():
    reports = [
        run_pipeline(gen_cycle(5), complete_graph(3)),
        run_pipeline(gen_cycle(5), Graph(1)),
        run_pipeline(gen_cycle(5), complete_graph(4)),
    ]
    keys = [
        "maximality",
        "hypergraph",
        "dsw",
        "x_restriction",
        "uniqueness",
        "y_restriction",
        "derived",
        "search_in_derived",
        "lift",
        "fallback",
    ]
    for rep in reports:
        assert list(rep.stages) == keys


def test_pipeline_report_to_dict_shape():
    rep = run_pipeline(gen_cycle(5), complete_graph(3))
    d = rep.to_dict()
    assert d["host"] == {"n": 5, "m": 5}
    assert d["pattern"] == {"n": 3, "m": 3}
    assert d["budget"]["max_nodes"] > 0
    assert d["verdict"] == "fallback-success"
    assert d["witness"]["induced"] is True
    json.dumps(d)  # must be serializable as-is


def test_pipeline_is_deterministic():
    a = run_pipeline(gen_petersen(), complete_graph(3)).to_dict()
    b = run_pipeline(gen_petersen(), complete_graph(3)).to_dict()
    assert json.dumps(a) == json.dumps(b)


def test_pipeline_on_random_mtf_hosts_always_reaches_a_verdict():
    for seed in range(12):
        g = gen_random_mtf(6 + seed, seed)
        rep = run_pipeline(g, complete_graph(3))
        assert rep.verdict in {"route-success", "fallback-success", "not-found"}
        if rep.witness is not None:
            assert verify_witness(rep.witness, require_induced=True)
            assert rep.witness.host is g


def test_pipeline_never_discards_a_pair_or_stalls_in_lifting():
    # a private witness lies in no other chosen neighbourhood and S is
    # stable, so stage 5 keeps every witnessed pair inside S and the
    # lifting preconditions hold: a pattern found in the derived graph is
    # a route success
    hosts = [gen_synthetic_dsw(SyntheticDswSpec(d, padding=True))[0] for d in (5, 6, 7)]
    hosts += [gen_random_mtf(8 + seed, seed) for seed in range(12)]
    patterns = [complete_graph(3), gen_cycle(4), complete_graph(4), path_graph(3)]
    patterns += [gen_cycle(5), paw_graph(), Graph(4, [(0, 1), (2, 3)]), Graph(1)]
    found = 0
    for g in hosts:
        for f in patterns:
            rep = run_pipeline(g, f)
            st = rep.stages
            if st["uniqueness"] is not None:
                assert list(st["uniqueness"]) == ["surviving_pairs"]
                origins = st["dsw"]["edge_indices"]
                s_set = set(st["x_restriction"]["stable_set"])
                inside = []
                for i, j, y in st["dsw"]["witnesses"]:
                    u, v = sorted((origins[i], origins[j]))
                    if u in s_set and v in s_set:
                        inside.append([u, v, y])
                assert st["uniqueness"]["surviving_pairs"] == inside
            if st["search_in_derived"] is not None and st["search_in_derived"]["found"]:
                found += 1
                assert rep.verdict == "route-success" and rep.stall_reason is None
    # 50 of the 120 runs find f in the derived graph
    assert found == 50


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("f", [path_graph(3), gen_cycle(5)], ids=["P3", "C5"])
def test_route_witness_is_a_witness_of_the_given_pattern(d, f):
    host, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d, padding=True))
    rep = run_pipeline(host, f)
    assert rep.verdict == "route-success"
    w = rep.witness
    assert w.pattern == f and w.host is host
    assert verify_witness(w, require_induced=True)
    assert rep.stages["lift"] == {"witness": witness_to_dict(w), "verified": True}
    st = rep.stages
    s_set = st["x_restriction"]["stable_set"]
    surviving = {(u, v): y for u, v, y in st["uniqueness"]["surviving_pairs"]}
    gprime, _ = derived_graph(s_set, surviving, st["y_restriction"]["stable_set"])
    inner = find_subdivision(f, gprime, require_induced=False)
    assert w == lift_to_induced_subdivision(host, s_set, surviving, inner)


# -- pipeline: stall records --------------------------------------------

# On N[synthetic d = 5] with K3 every route stage succeeds; each case below
# forces one stage to stall and pins what the stall leaves in the report.

ROUTE_STAGES = [
    "dsw",
    "x_restriction",
    "uniqueness",
    "y_restriction",
    "derived",
    "search_in_derived",
    "lift",
]


def _stop_budget(*args, **kwargs):
    raise BudgetExceeded("forced stop", nodes=1)


def _stop_on_call(original, nth):
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == nth:
            _stop_budget()
        return original(*args, **kwargs)

    return wrapper


def _stop_plain_search(pattern, host, require_induced=False, budget=None):
    if not require_induced:
        _stop_budget()
    return find_subdivision(pattern, host, require_induced, budget)


STALL_CASES = [
    (
        "dsw",
        "max_dsw_structure",
        lambda: _stop_budget,
        "budget-exceeded:dsw",
        [
            ("d", None),
            ("edge_indices", None),
            ("witnesses", None),
            ("budget_exceeded", True),
        ],
    ),
    (
        "x_restriction",
        "max_independent_set",
        lambda: _stop_on_call(max_independent_set, 1),
        "budget-exceeded:x-restriction",
        [
            ("x", [0, 1, 2, 3, 4]),
            ("stable_set", None),
            ("size", None),
            ("benchmark", 2),
            ("meets_benchmark", None),
        ],
    ),
    (
        "y_restriction",
        "max_independent_set",
        lambda: _stop_on_call(max_independent_set, 2),
        "budget-exceeded:y-restriction",
        [
            ("witness_vertices", list(range(5, 15))),
            ("stable_set", None),
            ("size", None),
            ("benchmark", 3),
            ("meets_benchmark", None),
        ],
    ),
    (
        "search_in_derived",
        "find_subdivision",
        lambda: _stop_plain_search,
        "budget-exceeded:derived-search",
        [("found", None), ("budget_exceeded", True)],
    ),
]


@pytest.mark.parametrize(
    "stage, name, make, reason, record",
    STALL_CASES,
    ids=[case[0] for case in STALL_CASES],
)
def test_pipeline_stall_records(monkeypatch, stage, name, make, reason, record):
    host, _, _ = gen_synthetic_dsw(SyntheticDswSpec(5, padding=True))
    k3 = complete_graph(3)
    direct = find_subdivision(k3, host, require_induced=True)
    monkeypatch.setattr(pipeline, name, make())
    rep = run_pipeline(host, k3)

    assert rep.stall_reason == reason
    assert list(rep.stages[stage].items()) == record
    later = ROUTE_STAGES[ROUTE_STAGES.index(stage) + 1 :]
    assert [rep.stages[key] for key in later] == [None] * len(later)
    assert list(rep.stages["fallback"].items()) == [
        ("ran", True),
        ("found", True),
        ("verified", True),
        ("witness", witness_to_dict(direct)),
        ("budget_exceeded", False),
    ]
    assert rep.verdict == "fallback-success"


def test_pipeline_raises_when_the_lift_fails(monkeypatch):
    # the route fixes the lift's preconditions, so a failed lift is a bug:
    # it propagates instead of stalling into the fallback
    def fail(*args, **kwargs):
        raise PreconditionViolated("b", "forced failure")

    host, _, _ = gen_synthetic_dsw(SyntheticDswSpec(5, padding=True))
    monkeypatch.setattr(pipeline, "lift_to_induced_subdivision", fail)
    with pytest.raises(PreconditionViolated):
        run_pipeline(host, complete_graph(3))


def test_pipeline_stall_record_when_fallback_runs_out_too(monkeypatch):
    host, _, _ = gen_synthetic_dsw(SyntheticDswSpec(5, padding=True))
    monkeypatch.setattr(pipeline, "find_subdivision", _stop_budget)
    rep = run_pipeline(host, complete_graph(3))

    assert rep.stall_reason == "budget-exceeded:derived-search"
    assert rep.stages["lift"] is None
    assert list(rep.stages["fallback"].items()) == [
        ("ran", True),
        ("found", None),
        ("verified", None),
        ("witness", None),
        ("budget_exceeded", True),
    ]
    assert rep.verdict == "budget-exceeded"
    assert rep.witness is None
