"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces the names each caller module imported with
timing wrappers: the CLI's entry point and the functions ``mtfsubdiv.cli``
calls, and the solver, hypergraph, subdivision and graph functions
``mtfsubdiv.pipeline`` calls.  It also wraps ``meter_for`` as bound in the
engine modules.  Every public solve creates exactly one meter, so the
meter's node count after the call belongs to the innermost open span.

Spans stay in memory until ``per_layer`` aggregates them.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

CLI_CALLEES = ("run_pipeline", "analyze", "find_subdivision", "parse_graph", "canonical_json")
PIPELINE_CALLEES = (
    "chromatic_number",
    "clique_number",
    "max_independent_set",
    "neighborhood_hypergraph",
    "packing_number",
    "transversality",
    "max_dsw_size",
    "find_dsw_structure",
    "find_subdivision",
    "derived_graph",
    "lift_to_induced_subdivision",
    "verify_witness",
    "is_maximal_triangle_free",
)
METERED_MODULES = ("solvers", "hypergraphs", "subdivisions")


class Span:
    __slots__ = ("key", "start", "end", "parent", "meters", "nodes", "exceeded", "outcome", "size", "host")

    def __init__(self, key, parent, size, host):
        self.key = key
        self.parent = parent
        self.size = size  # vertex count of the engine's input
        self.host = host  # identity of the host, for max_dsw_size only
        self.meters = []
        self.nodes = 0
        self.exceeded = False
        self.outcome = False
        self.start = self.end = 0.0


def _span_key(fn, args, kwargs) -> str:
    key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    if fn.__name__ == "find_subdivision":
        induced = args[2] if len(args) > 2 else kwargs.get("require_induced", False)
        key += ".induced" if induced else ".plain"
    return key


def _outcome(fn_name: str, result) -> bool:
    if fn_name == "find_subdivision":
        return result is not None
    if fn_name == "run_pipeline":
        return result.verdict == "route-success"
    return False


class Tracer:
    def __init__(self, mtf):
        self.mtf = mtf
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self.keys: set[str] = set()  # span keys the wrappers can produce

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mtf = self.mtf
        self._wrap(mtf.cli, "main")
        for name in CLI_CALLEES:
            self._wrap(mtf.cli, name)
        for name in PIPELINE_CALLEES:
            self._wrap(mtf.pipeline, name)
        for mod in METERED_MODULES:
            self._wrap_meter(getattr(mtf, mod))

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def _wrap(self, module, name: str) -> None:
        fn = getattr(module, name)
        base = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self.keys.update((base + ".induced", base + ".plain") if name == "find_subdivision" else (base,))
        open_spans, spans, exceeded_type = self._open, self.spans, self.mtf.errors.BudgetExceeded

        def wrapper(*args, **kwargs):
            first = args[0] if args else None
            span = Span(
                _span_key(fn, args, kwargs),
                open_spans[-1] if open_spans else None,
                getattr(first, "n", 0),
                first.edges if name == "max_dsw_size" else None,
            )
            open_spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.outcome = _outcome(name, result)
                return result
            except exceeded_type:
                span.exceeded = True
                raise
            finally:
                span.end = time.perf_counter()
                open_spans.pop()
                span.nodes = sum(m.nodes for m in span.meters)
                span.meters = None
                spans.append(span)

        wrapper.__wrapped__ = fn
        setattr(module, name, wrapper)
        self._undo.append((module, name, fn))

    def _wrap_meter(self, module) -> None:
        original = module.meter_for
        open_spans = self._open

        def meter_for(budget):
            meter = original(budget)
            if open_spans:
                open_spans[-1].meters.append(meter)
            return meter

        module.meter_for = meter_for
        self._undo.append((module, "meter_for", original))

    # -- aggregation ----------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Aggregate the spans into ``<span key>.<stat>`` and summary values."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.end - s.start
        agg: dict[str, dict] = {}
        dsw_hosts, dsw_calls = set(), 0
        for s in self.spans:
            a = agg.setdefault(s.key, {"calls": 0, "self_s": 0.0, "nodes": 0, "exceeded": 0, "found": 0, "frontier_n": 0})
            a["calls"] += 1
            a["self_s"] += (s.end - s.start) - child[id(s)]
            a["nodes"] += s.nodes
            a["found"] += s.outcome
            if s.exceeded:
                a["exceeded"] += 1
                a["frontier_n"] = min(a["frontier_n"] or s.size, s.size)
            if s.key == "hypergraphs.max_dsw_size":
                dsw_calls += 1
                dsw_hosts.add(s.host)
        values: dict[str, float] = {}
        for key in self.keys:
            a = agg.get(key, {"calls": 0, "self_s": 0.0, "nodes": 0, "exceeded": 0, "found": 0, "frontier_n": 0})
            for stat, v in a.items():
                values[f"{key}.{stat}"] = v
            values[f"{key}.nodes_per_s"] = a["nodes"] / a["self_s"] if a["self_s"] > 0 else 0.0
        pipe = agg.get("pipeline.run_pipeline")
        values["pipeline.route_success_frac"] = pipe["found"] / pipe["calls"] if pipe else 0.0
        values["pipeline.host_stage_repeats"] = dsw_calls / len(dsw_hosts) if dsw_hosts else 0.0
        values["budget.nodes_total"] = sum(s.nodes for s in self.spans)
        return values
