"""Orchestration of the full route from a maximal triangle-free host g and
a pattern f to an induced subdivision of f in g, stage by stage, with a
direct exact search as fallback.

At desk scale most inputs stall somewhere along the route (the theory
needs astronomically large witness structures); a stall is a reported
outcome with a machine-readable reason, never an error.  Every witness
that reaches the report has been re-verified against the original host.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .budget import DEFAULT_BUDGET, SearchBudget, _guarded
from .errors import (
    BadParameter,
    BudgetExceeded,
    EmptyGraph,
    NotMaximalTriangleFree,
)
from .formats import witness_to_dict
from .graphs import (
    Graph,
    _is_int,
    _members,
    _vertex_ids,
    average_degree,
    find_triangle,
    induced_subgraph,
    is_maximal_triangle_free,
)
from .hypergraphs import (
    Hypergraph,
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
        return asdict(self)


def compute_bounds(l: int) -> BoundsReport:
    """Exact bound values for patterns with l ≥ 1 vertices.

    All numeric fields are exact integers.  The degree demanded of the
    witness structure before the floor-sqrt stable restriction is kept
    symbolic: its exact integer form has millions of digits already for
    small l, so the closed form is reported instead.
    """
    if not _is_int(l) or l < 1:
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
    is_proper_coloring.  Raises OutOfRange if a center is not a vertex of
    g, and BadParameter if some vertex is dominated by no center.
    """
    cs = _vertex_ids(centers, g.n, "center")
    colors = [-1] * g.n
    for i, t in enumerate(cs):
        if colors[t] == -1:
            colors[t] = 2 * i
        for v in _members(g._bits[t]):
            if colors[v] == -1:
                colors[v] = 2 * i + 1
    if any(c == -1 for c in colors):
        missing = [v for v in range(g.n) if colors[v] == -1]
        raise BadParameter(f"centers dominate no vertex in {missing}")
    return colors


def is_proper_coloring(g: Graph, colors: list[int]) -> bool:
    """Edge-by-edge properness check."""
    if not isinstance(colors, Sequence):
        raise BadParameter(f"colors must be a sequence of vertex colors, got {colors!r}")
    if len(colors) != g.n:
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


# -- analysis report ----------------------------------------------------


def _hypergraph_statistics(g: Graph, budget: SearchBudget, exceeded: list[str]) -> tuple:
    """N[g] with its packing number, τ and sorted transversal, each solve guarded."""
    h = neighborhood_hypergraph(g)
    packing = _guarded(exceeded, "packing_number", packing_number, h, budget)
    pair = _guarded(exceeded, "transversality", transversality, h, budget)
    tau, transversal = (None, None) if pair is None else (pair[0], sorted(pair[1]))
    return h, packing, tau, transversal


def analyze(g: Graph, budget: SearchBudget | None = None) -> dict:
    """One-stop structured report of the host-side quantities.

    Exact solver calls are individually budgeted; a field whose solve ran
    out of budget is reported as None and listed under budget_exceeded, so
    partial reports on hard inputs are still useful.  Field order is fixed
    and the report is deterministic for identical (input, budget).
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    exceeded: list[str] = []
    n = g.n
    degs = g.degrees()
    min_deg = min(degs) if n else None
    chi = _guarded(exceeded, "chromatic_number", chromatic_number, g, budget)
    omega = _guarded(exceeded, "clique_number", clique_number, g, budget)
    mis = _guarded(exceeded, "independence_number", max_independent_set, g, budget)
    mtf = is_maximal_triangle_free(g)
    tf = mtf or find_triangle(g) is None

    packing = tau = transversal = dsw = None
    if n > 0:
        h, packing, tau, transversal = _hypergraph_statistics(g, budget, exceeded)
        dsw = _guarded(exceeded, "max_dsw_size", max_dsw_size, h, budget)

    # the coloring inequality is only claimed for triangle-free hosts
    known = tf and chi is not None and tau is not None
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
        "independence_number": None if mis is None else len(mis),
        "packing_number": packing,
        "transversality": tau,
        "transversal": transversal,
        "max_dsw_size": dsw,
        "chi_le_2tau": chi <= 2 * tau if known else None,
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


class _Stall(Exception):
    """The route cannot go on; the message is the report's stall_reason."""


def _solve(stage: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with running out of budget turned into a stall."""
    try:
        return fn(*args, **kwargs)
    except BudgetExceeded:
        raise _Stall(f"budget-exceeded:{stage}") from None


def _stable_restriction(
    g: Graph, budget: SearchBudget, stages: dict, stage: str, key: str, vertices: list[int]
) -> list[int]:
    """Stages 4 and 6: an exact maximum stable set among ``vertices``,
    recorded against the floor(sqrt(|vertices|)) benchmark."""
    benchmark = isqrt(len(vertices))
    rec = stages[stage] = {
        key: vertices,
        "stable_set": None,
        "size": None,
        "benchmark": benchmark,
        "meets_benchmark": None,
    }
    stable: list[int] = []
    if vertices:
        sub, submap = induced_subgraph(g, vertices)
        local = _solve(stage.replace("_", "-"), max_independent_set, sub, budget)
        stable = sorted(submap[i] for i in local)
    rec.update(stable_set=stable, size=len(stable), meets_benchmark=len(stable) >= benchmark)
    return stable


# Every stage below that can stall writes the record its stall leaves,
# then fills it in once its solve returns.
# Look solvers up in this module at call time: bench/tracing.py swaps them here.


def _route(
    g: Graph, f: Graph, h: Hypergraph, budget: SearchBudget, stages: dict
) -> SubdivisionWitness:
    """Stages 3–9 of the route: the lifted witness, or raise _Stall."""
    # stage 3: maximize d for a disjointly-witnessed family
    dsw = stages["dsw"] = {
        "d": None,
        "edge_indices": None,
        "witnesses": None,
        "budget_exceeded": True,
    }
    structure = _solve("dsw", max_dsw_structure, h, budget)
    witnessed = sorted(structure.witnesses.items())
    dsw.update(
        d=structure.d,
        edge_indices=list(structure.edge_indices),
        witnesses=[[i, j, y] for (i, j), y in witnessed],
        budget_exceeded=False,
    )

    # stage 4: exact stable restriction of the origin vertices (edge i of
    # N[·] is N[i], so the chosen edge indices, ascending, are the origins)
    origins = structure.edge_indices
    s_set = _stable_restriction(g, budget, stages, "x_restriction", "x", list(origins))

    # stage 5: the pairs inside S with their witnesses.  Each witness sees
    # exactly its pair in S (a private witness lies in no other chosen
    # neighbourhood, and S is stable), so every candidate survives
    s_frozen = frozenset(s_set)
    surviving: dict[tuple[int, int], int] = {}
    for (i, j), y in witnessed:
        u, v = origins[i], origins[j]
        if u in s_frozen and v in s_frozen:
            surviving[(u, v)] = y
    stages["uniqueness"] = {"surviving_pairs": [[u, v, y] for (u, v), y in surviving.items()]}

    # stage 6: exact stable restriction of the surviving (private, so distinct) witnesses
    witness_vertices = sorted(surviving.values())
    y_prime = _stable_restriction(
        g, budget, stages, "y_restriction", "witness_vertices", witness_vertices
    )

    # stage 7: derived graph on S, nonempty since the structure has an origin
    gprime, dmap = derived_graph(s_set, surviving, y_prime)
    bounds = compute_bounds(f.n) if f.n >= 1 else None
    avg = average_degree(gprime)
    stages["derived"] = {
        "n": gprime.n,
        "m": gprime.m,
        "mapping": list(dmap),
        "average_degree": str(avg),
        "mader_avg_degree": None if bounds is None else bounds.mader_avg_degree,
        "meets_mader": None if bounds is None else avg >= bounds.mader_avg_degree,
    }

    # stage 8: exact subdivision search inside the derived graph
    search = stages["search_in_derived"] = {"found": None, "budget_exceeded": True}
    w_inner = _solve(
        "derived-search", find_subdivision, f, gprime, require_induced=False, budget=budget
    )
    search.update(found=w_inner is not None, budget_exceeded=False)
    if w_inner is None:
        raise _Stall("pattern-subdivision-not-found-in-derived")

    # stage 9: lift the derived witness into g (a step p–q of a derived path
    # becomes x_p, y, x_q).  It cannot fail: S is stable (stage 4), the used
    # witnesses are stable (stage 6), each witness is private to its pair (stage 3)
    witness = lift_to_induced_subdivision(g, s_set, surviving, w_inner)
    stages["lift"] = {
        "witness": witness_to_dict(witness),
        "verified": bool(verify_witness(witness, require_induced=True)),
    }
    return witness


def run_pipeline(
    g: Graph,
    f: Graph,
    budget: SearchBudget | None = None,
    cross_check: bool = False,
) -> PipelineReport:
    """Run the whole route on host g and pattern f.

    Stage order: maximality check; neighborhood-hypergraph statistics;
    largest disjointly-witnessed family; exact stable restriction of the
    origin set; the witnessed pairs inside it; exact stable
    restriction of the witnesses; derived-graph construction; subdivision
    search in the derived graph; lifting to an induced witness in g.  A
    stall, ``budget-exceeded:<dsw|x-restriction|y-restriction|derived-search>``
    or ``pattern-subdivision-not-found-in-derived``, routes to the
    fallback: find_subdivision(f, g, require_induced=True) directly.  The
    lift cannot stall, as the earlier stages fix its preconditions; should
    it fail, that is a bug and it raises.  With cross_check the fallback runs
    even after route success and both witnesses are verified
    independently; they need not coincide.

    g must be nonempty and maximal triangle-free (hard error otherwise).
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    if g.n == 0:
        raise EmptyGraph("pipeline host must have at least one vertex")
    if not is_maximal_triangle_free(g):
        if (tri := find_triangle(g)) is not None:
            raise NotMaximalTriangleFree(f"host contains triangle {tri}")
        raise NotMaximalTriangleFree(
            "host is triangle-free but not maximal: some non-adjacent pair "
            "has no common neighbor"
        )

    stages = dict.fromkeys(_STAGE_KEYS)
    stages["maximality"] = {"triangle_free": True, "maximal_triangle_free": True}

    # stage 2: hypergraph statistics (informational; never stalls the route)
    exceeded: list[str] = []
    h, packing, tau, transversal = _hypergraph_statistics(g, budget, exceeded)
    chi = _guarded(exceeded, "chromatic_number", chromatic_number, g, budget)
    stages["hypergraph"] = {
        "edge_count": len(h.masks),
        "packing_number": packing,
        "transversality": tau,
        "transversal": transversal,
        "chromatic_number": chi,
        "chi_le_2tau": None if tau is None or chi is None else chi <= 2 * tau,
        "star_cover_colors": None if tau is None else 2 * tau,
        "star_cover_proper": None
        if tau is None
        else is_proper_coloring(g, star_cover_coloring(g, transversal)),
        "budget_exceeded": exceeded,
    }

    try:
        route_witness, stall = _route(g, f, h, budget, stages), None
    except _Stall as exc:
        route_witness, stall = None, str(exc)

    # stage 10: direct induced search, as fallback or as cross-check
    fallback = stages["fallback"] = {
        "ran": False,
        "found": None,
        "verified": None,
        "witness": None,
        "budget_exceeded": False,
    }
    fallback_witness: SubdivisionWitness | None = None
    if stall is not None or cross_check:
        fallback["ran"] = True
        try:
            fallback_witness = find_subdivision(f, g, require_induced=True, budget=budget)
        except BudgetExceeded:
            fallback["budget_exceeded"] = True
        else:
            fallback["found"] = fallback_witness is not None
            if fallback_witness is not None:
                fallback.update(
                    verified=bool(verify_witness(fallback_witness, require_induced=True)),
                    witness=witness_to_dict(fallback_witness),
                )

    if route_witness is not None:
        verdict, final = "route-success", route_witness
    elif fallback_witness is not None:
        verdict, final = "fallback-success", fallback_witness
    else:
        verdict = "budget-exceeded" if fallback["budget_exceeded"] else "not-found"
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
