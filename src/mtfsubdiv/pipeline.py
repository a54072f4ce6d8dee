"""Orchestration of the full route from a maximal triangle-free host g and
a pattern f to an induced subdivision of f in g, stage by stage, with a
direct exact search as fallback.

At desk scale most inputs stall somewhere along the route (the theory
needs astronomically large witness structures); a stall is a reported
outcome with a machine-readable reason, never an error.  Every witness
that reaches the report has been re-verified against the original host.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable

from .budget import DEFAULT_BUDGET, SearchBudget
from .errors import (
    BadParameter,
    BudgetExceeded,
    EmptyGraph,
    NotMaximalTriangleFree,
    PreconditionViolated,
)
from .formats import witness_to_dict
from .graphs import (
    Graph,
    average_degree,
    find_triangle,
    induced_subgraph,
    is_maximal_triangle_free,
)
from .hypergraphs import (
    DswStructure,
    find_dsw_structure,  # noqa: F401  (bench/tracing.py wraps this name)
    max_dsw_size,
    max_dsw_structure,
    neighborhood_hypergraph,
    packing_number,
    transversality,
)
from .solvers import chromatic_number, clique_number, max_independent_set
from .subdivisions import (
    SubdivisionWitness,
    find_subdivision,
    derived_graph,
    lift_to_induced_subdivision,
    verify_witness,
)

__all__ = [
    "BoundsReport",
    "PipelineReport",
    "compute_bounds",
    "star_cover_coloring",
    "is_proper_coloring",
    "analyze",
    "run_pipeline",
]


# -- closed-form bounds -------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Exact threshold values for a pattern on l vertices.

    The average-degree threshold for forced (topological) clique
    subdivisions is 512·l²; the log-degree threshold it is paired with is
    256·l², half of it.  Squaring the chain sqrt(log d) ≥ 256·l² gives
    log d ≥ 65536·l⁴, so the chromatic-number threshold is e^(65536·l⁴).
    The constant 65536 = 256² is one valid instantiation of an asymptotic
    constant that the underlying argument leaves unspecified; it is
    labeled as such and claims no optimality.
    """

    l: int
    mader_avg_degree: int
    log_threshold: int
    chi_threshold_exponent: int
    chi_threshold_formula: str
    dsw_d_required: str
    instantiation_note: str

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "mader_avg_degree": self.mader_avg_degree,
            "log_threshold": self.log_threshold,
            "chi_threshold_exponent": self.chi_threshold_exponent,
            "chi_threshold_formula": self.chi_threshold_formula,
            "dsw_d_required": self.dsw_d_required,
            "instantiation_note": self.instantiation_note,
        }


def compute_bounds(l: int) -> BoundsReport:
    """Exact bound values for patterns with l ≥ 1 vertices.

    All numeric fields are exact integers.  The degree demanded of the
    witness structure before the floor-sqrt stable restriction is kept
    symbolic: its exact integer form has millions of digits already for
    small l, so the closed form is reported instead.
    """
    if not isinstance(l, int) or l < 1:
        raise BadParameter(f"pattern vertex count must be a positive integer, got {l!r}")
    exponent = 65536 * l**4
    return BoundsReport(
        l=l,
        mader_avg_degree=512 * l * l,
        log_threshold=256 * l * l,
        chi_threshold_exponent=exponent,
        chi_threshold_formula=f"e^(65536*{l}^4) = e^{exponent}",
        dsw_d_required=f"ceil(e^{exponent})^2",
        instantiation_note=(
            "constant 65536 = 256^2 instantiates sqrt(log d) >= 256*l^2 as "
            "log d >= 65536*l^4; one valid choice, not a claimed optimum; "
            "the ^2 on dsw_d_required compensates the floor-sqrt stable "
            "restriction of the origin set"
        ),
    )


# -- star cover coloring ------------------------------------------------


def star_cover_coloring(g: Graph, centers: Iterable[int]) -> list[int]:
    """Color g with 2·|centers| colors from a dominating set of centers.

    Every vertex joins the star of the first center (ascending order)
    whose closed neighborhood contains it: color 2i for the center itself,
    2i+1 for the leaves.  On a triangle-free graph each leaf class is an
    independent set, so the coloring is proper; callers verify with
    is_proper_coloring.  Raises BadParameter if some vertex is dominated
    by no center.
    """
    cs = sorted(set(centers))
    for t in cs:
        if not (isinstance(t, int) and 0 <= t < g.n):
            raise BadParameter(f"center {t!r} is not a vertex")
    colors = [-1] * g.n
    for i, t in enumerate(cs):
        if colors[t] == -1:
            colors[t] = 2 * i
        for v in sorted(g.neighbors(t)):
            if colors[v] == -1:
                colors[v] = 2 * i + 1
    if any(c == -1 for c in colors):
        missing = [v for v in range(g.n) if colors[v] == -1]
        raise BadParameter(f"centers dominate no vertex in {missing}")
    return colors


def is_proper_coloring(g: Graph, colors: list[int]) -> bool:
    """Edge-by-edge properness check."""
    if len(colors) != g.n:
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


# -- analysis report ----------------------------------------------------


def analyze(g: Graph, budget: SearchBudget | None = None) -> dict:
    """One-stop structured report of the host-side quantities.

    Exact solver calls are individually budgeted; a field whose solve ran
    out of budget is reported as None and listed under budget_exceeded, so
    partial reports on hard inputs are still useful.  Field order is fixed
    and the report is deterministic for identical (input, budget).
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    exceeded: list[str] = []

    def guarded(field: str, thunk):
        try:
            return thunk()
        except BudgetExceeded:
            exceeded.append(field)
            return None

    n = g.n
    degs = g.degrees()
    min_deg = min(degs) if n else None
    chi = guarded("chromatic_number", lambda: chromatic_number(g, budget))
    omega = guarded("clique_number", lambda: clique_number(g, budget))
    alpha = guarded("independence_number", lambda: len(max_independent_set(g, budget)))
    tf = g.n == 0 or find_triangle(g) is None
    mtf = is_maximal_triangle_free(g)

    packing = tau = transversal = dsw = None
    if n > 0:
        h = neighborhood_hypergraph(g)
        packing = guarded("packing_number", lambda: packing_number(h, budget))
        tau_pair = guarded("transversality", lambda: transversality(h, budget))
        if tau_pair is not None:
            tau, witness = tau_pair
            transversal = sorted(witness)
        dsw = guarded("max_dsw_size", lambda: max_dsw_size(h, budget))

    chi_le_2tau = None
    if tf and chi is not None and tau is not None:
        chi_le_2tau = chi <= 2 * tau

    return {
        "n": n,
        "m": g.m,
        "min_degree": min_deg,
        "average_degree": str(average_degree(g)) if n else None,
        "min_degree_ratio": str(Fraction(min_deg, n)) if n else None,
        "triangle_free": tf,
        "maximal_triangle_free": mtf,
        "chromatic_number": chi,
        "clique_number": omega,
        "independence_number": alpha,
        "packing_number": packing,
        "transversality": tau,
        "transversal": transversal,
        "max_dsw_size": dsw,
        "chi_le_2tau": chi_le_2tau,
        "budget_exceeded": exceeded,
    }


# -- the pipeline -------------------------------------------------------


_STAGE_KEYS = (
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
)


@dataclass
class PipelineReport:
    """Stage-by-stage record of one pipeline run.

    ``stages`` always contains all ten stage keys in fixed order; stages
    the run never reached keep None fields.  ``witness`` is the witness
    backing the verdict (route or fallback), if any.
    """

    host_n: int
    host_m: int
    pattern_n: int
    pattern_m: int
    budget: SearchBudget
    cross_check: bool
    stages: dict
    stall_reason: str | None
    verdict: str
    witness: SubdivisionWitness | None

    def to_dict(self) -> dict:
        return {
            "host": {"n": self.host_n, "m": self.host_m},
            "pattern": {"n": self.pattern_n, "m": self.pattern_m},
            "budget": {
                "max_nodes": self.budget.max_nodes,
                "max_seconds": self.budget.max_seconds,
            },
            "cross_check": self.cross_check,
            "stages": self.stages,
            "stall_reason": self.stall_reason,
            "verdict": self.verdict,
            "witness": witness_to_dict(self.witness) if self.witness else None,
        }


def _empty_stages() -> dict:
    return {key: None for key in _STAGE_KEYS}


def run_pipeline(
    g: Graph,
    f: Graph,
    budget: SearchBudget | None = None,
    cross_check: bool = False,
) -> PipelineReport:
    """Run the whole route on host g and pattern f.

    Stage order: maximality check; neighborhood-hypergraph statistics;
    largest disjointly-witnessed family; exact stable restriction of the
    origin set; uniqueness filtering of witnesses; exact stable
    restriction of the witnesses; derived-graph construction; subdivision
    search in the derived graph; lifting to an induced witness in g.  Any
    stall (budget, structure too small, pattern absent from the derived
    graph) routes to the fallback: find_subdivision(f, g,
    require_induced=True) directly.  With cross_check the fallback runs
    even after route success and both witnesses are verified
    independently; they need not coincide.

    g must be nonempty and maximal triangle-free (hard error otherwise).
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    if g.n == 0:
        raise EmptyGraph("pipeline host must have at least one vertex")
    tri = find_triangle(g)
    if tri is not None:
        raise NotMaximalTriangleFree(f"host contains triangle {tri}")
    if not is_maximal_triangle_free(g):
        raise NotMaximalTriangleFree(
            "host is triangle-free but not maximal: some non-adjacent pair "
            "has no common neighbor"
        )

    stages = _empty_stages()
    stall: str | None = None
    route_witness: SubdivisionWitness | None = None

    stages["maximality"] = {"triangle_free": True, "maximal_triangle_free": True}

    # stage 2: hypergraph statistics (informational; never stalls the route)
    h = neighborhood_hypergraph(g)
    stat_exceeded: list[str] = []

    def guarded(field: str, thunk):
        try:
            return thunk()
        except BudgetExceeded:
            stat_exceeded.append(field)
            return None

    packing = guarded("packing_number", lambda: packing_number(h, budget))
    tau_pair = guarded("transversality", lambda: transversality(h, budget))
    chi = guarded("chromatic_number", lambda: chromatic_number(g, budget))
    tau = transversal = None
    if tau_pair is not None:
        tau, witness_set = tau_pair
        transversal = sorted(witness_set)
    chi_le_2tau = None
    star_proper = None
    if transversal is not None:
        colors = star_cover_coloring(g, transversal)
        star_proper = is_proper_coloring(g, colors)
        if chi is not None:
            chi_le_2tau = chi <= 2 * tau
    stages["hypergraph"] = {
        "edge_count": len(h.edges),
        "packing_number": packing,
        "transversality": tau,
        "transversal": transversal,
        "chromatic_number": chi,
        "chi_le_2tau": chi_le_2tau,
        "star_cover_colors": None if tau is None else 2 * tau,
        "star_cover_proper": star_proper,
        "budget_exceeded": stat_exceeded,
    }

    # stage 3: maximize d for a disjointly-witnessed family
    structure: DswStructure | None = None
    try:
        structure = max_dsw_structure(h, budget)
        assert structure is not None  # h has one edge per host vertex
        stages["dsw"] = {
            "d": structure.d,
            "edge_indices": list(structure.edge_indices),
            "witnesses": [
                [i, j, y] for (i, j), y in sorted(structure.witnesses.items())
            ],
            "budget_exceeded": False,
        }
    except BudgetExceeded:
        stages["dsw"] = {
            "d": None,
            "edge_indices": None,
            "witnesses": None,
            "budget_exceeded": True,
        }
        stall = "budget-exceeded:dsw"

    surviving: dict[tuple[int, int], int] = {}
    s_set: list[int] = []

    if stall is None:
        # stage 4: exact stable restriction of the origin vertices
        assert structure is not None
        origins = [h.origins[e] for e in structure.edge_indices]
        x_vertices = sorted(origins)
        sub, submap = induced_subgraph(g, x_vertices)
        try:
            s_local = max_independent_set(sub, budget)
            s_set = sorted(submap[i] for i in s_local)
            benchmark = isqrt(structure.d)
            stages["x_restriction"] = {
                "x": x_vertices,
                "stable_set": s_set,
                "size": len(s_set),
                "benchmark": benchmark,
                "meets_benchmark": len(s_set) >= benchmark,
            }
        except BudgetExceeded:
            stages["x_restriction"] = {
                "x": x_vertices,
                "stable_set": None,
                "size": None,
                "benchmark": isqrt(structure.d),
                "meets_benchmark": None,
            }
            stall = "budget-exceeded:x-restriction"

    if stall is None:
        # stage 5: keep only pairs inside S whose witness sees exactly the pair
        assert structure is not None
        origins = [h.origins[e] for e in structure.edge_indices]
        s_frozen = frozenset(s_set)
        candidates: list[tuple[int, int, int]] = []
        kept: list[tuple[int, int, int]] = []
        discarded: list[tuple[int, int, int]] = []
        for (i, j), y in sorted(structure.witnesses.items()):
            u, v = sorted((origins[i], origins[j]))
            if u not in s_frozen or v not in s_frozen:
                continue
            candidates.append((u, v, y))
            if set(g.neighbors(y)) & s_frozen == {u, v}:
                kept.append((u, v, y))
                surviving[(u, v)] = y
            else:
                discarded.append((u, v, y))
        for (u, v), y in surviving.items():
            assert len(set(g.neighbors(y)) & s_frozen) == 2
        stages["uniqueness"] = {
            "candidate_pairs": [list(c) for c in candidates],
            "surviving_pairs": [list(c) for c in kept],
            "discarded_pairs": [list(c) for c in discarded],
        }

    y_prime: list[int] = []
    if stall is None:
        # stage 6: exact stable restriction of the surviving witnesses
        witness_vertices = sorted({y for y in surviving.values()})
        if witness_vertices:
            suby, subymap = induced_subgraph(g, witness_vertices)
            try:
                y_local = max_independent_set(suby, budget)
                y_prime = sorted(subymap[i] for i in y_local)
            except BudgetExceeded:
                stall = "budget-exceeded:y-restriction"
        benchmark = isqrt(len(witness_vertices))
        if stall is None:
            stages["y_restriction"] = {
                "witness_vertices": witness_vertices,
                "stable_set": y_prime,
                "size": len(y_prime),
                "benchmark": benchmark,
                "meets_benchmark": len(y_prime) >= benchmark,
            }
        else:
            stages["y_restriction"] = {
                "witness_vertices": witness_vertices,
                "stable_set": None,
                "size": None,
                "benchmark": benchmark,
                "meets_benchmark": None,
            }

    gprime: Graph | None = None
    dmap: tuple[int, ...] = ()
    if stall is None:
        # stage 7: derived graph on the surviving stable origin set
        gprime, dmap = derived_graph(s_set, surviving, y_prime)
        bounds = compute_bounds(f.n) if f.n >= 1 else None
        avg = None if gprime.n == 0 else average_degree(gprime)
        stages["derived"] = {
            "n": gprime.n,
            "m": gprime.m,
            "mapping": list(dmap),
            "average_degree": None if avg is None else str(avg),
            "mader_avg_degree": None if bounds is None else bounds.mader_avg_degree,
            "meets_mader": None
            if (bounds is None or avg is None)
            else avg >= bounds.mader_avg_degree,
        }

    w_inner: SubdivisionWitness | None = None
    if stall is None:
        # stage 8: exact subdivision search inside the derived graph
        assert gprime is not None
        try:
            w_inner = find_subdivision(f, gprime, require_induced=False, budget=budget)
            stages["search_in_derived"] = {
                "found": w_inner is not None,
                "budget_exceeded": False,
            }
            if w_inner is None:
                stall = "pattern-subdivision-not-found-in-derived"
        except BudgetExceeded:
            stages["search_in_derived"] = {"found": None, "budget_exceeded": True}
            stall = "budget-exceeded:derived-search"

    if stall is None:
        # stage 9: lift the used subgraph of the derived witness into g
        assert w_inner is not None
        used = sorted(w_inner.used_vertices())
        pos = {v: k for k, v in enumerate(used)}
        inner_edges = sorted(
            (pos[u], pos[v]) for u, v in w_inner.path_edges()
        )
        gdp = Graph(len(used), inner_edges)
        mapping = {k: used[k] for k in range(len(used))}
        try:
            route_witness = lift_to_induced_subdivision(
                g, s_set, surviving, gdp, mapping
            )
            check = verify_witness(route_witness, require_induced=True)
            stages["lift"] = {
                "witness": witness_to_dict(route_witness),
                "verified": bool(check),
            }
        except PreconditionViolated as exc:
            stages["lift"] = {"witness": None, "verified": False}
            stall = f"lifting-precondition-{exc.condition}"

    # stage 10: direct induced search, as fallback or as cross-check
    fallback_witness: SubdivisionWitness | None = None
    run_fallback = stall is not None or cross_check
    if run_fallback:
        try:
            fallback_witness = find_subdivision(
                f, g, require_induced=True, budget=budget
            )
            fb_check = (
                bool(verify_witness(fallback_witness, require_induced=True))
                if fallback_witness is not None
                else None
            )
            stages["fallback"] = {
                "ran": True,
                "found": fallback_witness is not None,
                "verified": fb_check,
                "witness": witness_to_dict(fallback_witness)
                if fallback_witness
                else None,
                "budget_exceeded": False,
            }
        except BudgetExceeded:
            stages["fallback"] = {
                "ran": True,
                "found": None,
                "verified": None,
                "witness": None,
                "budget_exceeded": True,
            }
    else:
        stages["fallback"] = {
            "ran": False,
            "found": None,
            "verified": None,
            "witness": None,
            "budget_exceeded": False,
        }

    if route_witness is not None:
        verdict = "route-success"
        final = route_witness
    elif fallback_witness is not None:
        verdict = "fallback-success"
        final = fallback_witness
    elif run_fallback and stages["fallback"]["budget_exceeded"]:
        verdict = "budget-exceeded"
        final = None
    else:
        verdict = "not-found"
        final = None

    return PipelineReport(
        host_n=g.n,
        host_m=g.m,
        pattern_n=f.n,
        pattern_m=f.m,
        budget=budget,
        cross_check=cross_check,
        stages=stages,
        stall_reason=stall,
        verdict=verdict,
        witness=final,
    )
