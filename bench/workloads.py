"""Workload items for the benchmark and the per-item correctness checks.

Each item is one ``mtfsubdiv`` command line run in-process through
``mtfsubdiv.cli.main``.  Inputs are graph6 files written during set-up;
random hosts come from ``gen_random_mtf`` with seeds derived from the
harness seed, so the same seed always gives the same files.

Checks never trust the package's own view of an input: every witness is
re-verified against the graph this module generated, the transversal is
checked against closed neighborhoods computed here, and exit codes are
checked for consistency with the printed output.  For the default seed the
stored reference (``reference.json``) also pins exit codes and analyze
values.  Witnesses are never compared with stored ones: a search-order
change may legally return a different witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

DEFAULT_SEED = 1
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Only node budgets may trip, so every item gets a wall-clock budget far
# above its running time and budget outcomes stay deterministic.
BUDGET_SECS = "86400"

ANALYZE_FIELDS = (
    "chromatic_number",
    "clique_number",
    "independence_number",
    "packing_number",
    "transversality",
    "max_dsw_size",
)

# Workload shapes, as (host, node budget) or (pattern, host, node budget).
# Random hosts are ("rmtf", n, k): the k-th random maximal triangle-free
# host on n vertices for the harness seed.  The named and synthetic hosts
# do not depend on the seed; they carry most of each workload's time, so
# that a run's total moves little from seed to seed.  Random items get the
# small budget (twice it for found cases), which caps the heavy tail of
# search times on random hosts; host_analyze uses it throughout to keep
# its budget-bound searches short.
LARGE, SMALL = 1_000_000, 100_000
PIPELINE_GRID = {
    "hosts": [(h, LARGE) for h in (("petersen",), ("grotzsch",), ("clebsch",), ("mycielski-grotzsch",))]
    + [(("synthetic", d), LARGE) for d in (5, 6, 7)]
    + [(("synthetic", 8), LARGE // 2)]
    + [(("rmtf", 20, k), SMALL) for k in range(6)],
    "patterns": ("K3", "C5", "K4"),
}
HOST_ANALYZE = {
    "hosts": [(h, SMALL) for h in (("clebsch",), ("mycielski-grotzsch",), ("synthetic", 8), ("synthetic", 9))]
    + [(("mycielski-mycielski-grotzsch",), SMALL)]
    + [(("rmtf", n, 0), SMALL) for n in (30, 35, 40, 45)],
}
SUBDIV_DIRECT = {
    # proofs of absence, a found case on a named host, one budget frontier
    # and random found cases
    "items": [
        ("K4", ("biclique", 5, 5), LARGE),
        ("K4", ("biclique", 5, 6), LARGE),
        ("C5", ("biclique", 6, 6), LARGE),
        ("C5", ("biclique", 7, 7), LARGE),
        ("K33", ("mycielski-mycielski-grotzsch",), LARGE),
    ]
    + [("C9", ("clebsch",), LARGE // 2)]
    + [("K4", ("rmtf", 30, k), 2 * SMALL) for k in range(4)],
}
WORKLOADS = ("pipeline_grid", "host_analyze", "subdiv_direct")


@dataclass
class Item:
    """One command line plus what the harness knows about its inputs."""

    label: str
    argv: list[str]
    kind: str  # "pipeline", "analyze" or "find"
    host: object  # mtfsubdiv Graph as generated here
    pattern: object | None
    expect: frozenset[int] | None = None  # exit codes allowed a priori


# -- input generation ---------------------------------------------------


def host_seed(seed: int, k: int, n: int) -> int:
    return seed * 1000 + n * 10 + k


def _biclique(Graph, a: int, b: int):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _make(mtf, spec, seed):
    gen, Graph = mtf.generators, mtf.graphs.Graph
    kind = spec[0]
    if kind == "rmtf":
        _, n, k = spec
        return f"rmtf{n}-{k}", gen.gen_random_mtf(n, host_seed(seed, k, n))
    if kind == "petersen":
        return "petersen", gen.gen_petersen()
    if kind == "grotzsch":
        return "grotzsch", gen.gen_mycielski(gen.gen_cycle(5))
    if kind == "clebsch":  # the folded 5-cube, strongly regular (16, 5, 0, 2)
        return "clebsch", Graph(16, [(u, v) for u in range(16) for v in range(u) if bin(u ^ v).count("1") in (1, 4)])
    if kind.startswith("mycielski-"):
        name, g = _make(mtf, (kind.split("-", 1)[1],), seed)
        return kind, gen.gen_mycielski(g)
    if kind == "synthetic":
        d = spec[1]
        g, _, _ = gen.gen_synthetic_dsw(gen.SyntheticDswSpec(d=d, padding=True))
        return f"synthetic-d{d}", g
    if kind == "biclique":
        return f"K{spec[1]},{spec[2]}", _biclique(Graph, spec[1], spec[2])
    raise ValueError(f"unknown host spec {spec!r}")


def _pattern(mtf, name):
    gen, Graph = mtf.generators, mtf.graphs.Graph
    if name == "K3":
        return Graph(3, [(0, 1), (0, 2), (1, 2)])
    if name == "K4":
        return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    if name in ("C5", "C9"):
        return gen.gen_cycle(int(name[1:]))
    if name == "K33":
        return _biclique(Graph, 3, 3)
    if name == "petersen":
        return gen.gen_petersen()
    raise ValueError(f"unknown pattern {name!r}")


class _Files:
    """Writes each distinct graph once as a graph6 file under ``workdir``."""

    def __init__(self, mtf, workdir: Path):
        self.to_graph6 = mtf.formats.to_graph6
        self.workdir = workdir
        self.paths: dict[str, str] = {}

    def path(self, name: str, g) -> str:
        if name not in self.paths:
            p = self.workdir / f"{name}.g6"
            p.write_text(self.to_graph6(g) + "\n", encoding="ascii")
            self.paths[name] = str(p)
        return self.paths[name]


def _budget_opts(budget: int) -> list[str]:
    # graph6 headers of 60..62 vertices start with "{", "|" or "}", which
    # the format sniffer reads as JSON; naming the format avoids that.
    return ["--format", "graph6", "--budget-nodes", str(budget), "--budget-secs", BUDGET_SECS]


def build(mtf, workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Item]:
    """Generate the inputs of one workload, write them, return its items.

    ``tiny`` gives one small item per workload, for the self-test.
    """
    files = _Files(mtf, workdir)
    items: list[Item] = []
    if workload == "pipeline_grid":
        hosts = [(("rmtf", 20, 0), SMALL)] if tiny else PIPELINE_GRID["hosts"]
        patterns = ("K3",) if tiny else PIPELINE_GRID["patterns"]
        for spec, budget in hosts:
            hname, host = _make(mtf, spec, seed)
            for pname in patterns:
                pat = _pattern(mtf, pname)
                argv = ["pipeline", files.path(hname, host), "--pattern", files.path(pname, pat), "--json"]
                items.append(Item(f"{hname}/{pname}", argv + _budget_opts(budget), "pipeline", host, pat))
    elif workload == "host_analyze":
        hosts = [(("grotzsch",), SMALL)] if tiny else HOST_ANALYZE["hosts"]
        for spec, budget in hosts:
            hname, host = _make(mtf, spec, seed)
            argv = ["analyze", files.path(hname, host)] + _budget_opts(budget)
            items.append(Item(hname, argv, "analyze", host, None))
    elif workload == "subdiv_direct":
        pairs = [("C5", ("biclique", 4, 4), LARGE)] if tiny else SUBDIV_DIRECT["items"]
        for pname, spec, budget in pairs:
            hname, host = _make(mtf, spec, seed)
            pat = _pattern(mtf, pname)
            argv = ["find-subdivision", files.path(hname, host), "--pattern", files.path(pname, pat)]
            argv += ["--induced", "--json"] + _budget_opts(budget)
            items.append(Item(f"{hname}/{pname}", argv, "find", host, pat, _known_exit_codes(pname, host)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


# -- facts known without running the program ----------------------------


def _adjacency(g) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _sides(adj: list[set[int]]) -> list[int] | None:
    """A proper 2-coloring of the graph, or None when it has an odd cycle."""
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] >= 0:
            continue
        side[s], stack = 0, [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return None
    return side


def _known_exit_codes(pname: str, host) -> frozenset[int] | None:
    """Exit codes allowed for an induced-subdivision search, by theorem.

    Induced subgraphs of a complete bipartite host are complete bipartite,
    so its only induced cycles are 4-cycles (no subdivision of C5), and
    none has the degree sequence of a K4 subdivision (four vertices of
    degree 3, the rest 2).  A non-bipartite maximal triangle-free host has
    diameter 2, so its shortest odd cycle is an induced 5-cycle.  Exit
    code 2 (budget) is always allowed.
    """
    adj = _adjacency(host)
    side = _sides(adj)
    if side is not None:
        left = side.count(0)
        if host.m == left * (host.n - left) and pname in ("C5", "K4"):
            return frozenset({1, 2})
        return None
    triangle_free = all(not (adj[u] & adj[v]) for u, v in host.edges())
    maximal = all(
        v in adj[u] or adj[u] & adj[v] for u in range(host.n) for v in range(u + 1, host.n)
    )
    if pname == "C5" and triangle_free and maximal:
        return frozenset({0, 2})
    return None


# -- checks -------------------------------------------------------------


def load_reference() -> dict:
    if REFERENCE_FILE.exists():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


class CheckFailed(Exception):
    """An item's output is wrong."""


def _need(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class Outcome:
    """Result of checking one item run."""

    __slots__ = ("error", "solved", "budgeted", "values")

    def __init__(self):
        self.error: str | None = None
        self.solved = 0  # budgeted answers that came back exact
        self.budgeted = 0  # budgeted answers requested
        self.values: dict = {}  # what the reference file records


def check(mtf, item: Item, rc, out: str, ref: dict | None) -> Outcome:
    """Check one run of ``item``; ``ref`` is its stored reference or None."""
    res = Outcome()
    try:
        if not isinstance(rc, int):
            raise CheckFailed(f"unexpected exception: {rc}")
        res.values["rc"] = rc
        {"pipeline": _check_pipeline, "analyze": _check_analyze, "find": _check_find}[item.kind](
            mtf, item, rc, out, res
        )
        if item.expect is not None and rc not in item.expect:
            raise CheckFailed(f"exit code {rc}, expected one of {sorted(item.expect)}")
        if ref is not None:
            _compare_reference(res.values, ref)
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        res.error = f"{type(exc).__name__}: {exc}"
    return res


def _compare_reference(got: dict, ref: dict) -> None:
    # A reference budget outcome may later finish, and a reference answer
    # may later exceed the budget (that lowers solved_frac); any other
    # change of an exact answer is an error.
    for key, want in ref.items():
        have = got.get(key)
        if key == "rc":
            if want != 2 and have not in (want, 2):
                raise CheckFailed(f"exit code {have}, reference {want}")
        elif want is not None and have is not None and have != want:
            raise CheckFailed(f"{key} = {have}, reference {want}")


def _verify(mtf, item: Item, wd: dict) -> None:
    """Rebuild a printed witness on the generated host and verify it.

    The route lifts a subdivision of the pattern found in the derived graph,
    so its witness may name a subdivision of the pattern as its pattern;
    that is checked here too.
    """
    host, Graph = item.host, mtf.graphs.Graph
    _need(wd["host_n"] == host.n, "witness host size")
    pattern = Graph(wd["pattern"]["n"], [tuple(e) for e in wd["pattern"]["edges"]])
    if pattern.edges() != item.pattern.edges() or pattern.n != item.pattern.n:
        _need(_is_subdivision(pattern, item.pattern), "witness pattern is no subdivision of the pattern")
    branch = {int(k): v for k, v in wd["branch_map"].items()}
    paths = {}
    for key, path in wd["paths"].items():
        a, b = key.split("-")
        paths[(int(a), int(b))] = tuple(path)
    w = mtf.subdivisions.SubdivisionWitness(pattern, host, branch, paths, induced=True)
    verdict = mtf.subdivisions.verify_witness(w, require_induced=True)
    _need(verdict.ok, f"witness fails re-verification: {verdict.reason}")


def _is_subdivision(h, f) -> bool:
    """Is h a subdivision of f?  Supports cycles f and f of minimum degree 3."""
    hadj, fadj = _adjacency(h), _adjacency(f)
    if any(not a for a in hadj):
        return False
    if all(len(a) == 2 for a in fadj):  # f is a cycle when connected
        if _components(fadj) != 1 or _components(hadj) != 1:
            return False
        return all(len(a) == 2 for a in hadj) and h.n >= f.n
    if any(len(a) < 3 for a in fadj):
        raise ValueError("subdivision check needs a cycle or minimum degree 3")
    branch = [v for v in range(h.n) if len(hadj[v]) != 2]
    if len(branch) != f.n or any(len(hadj[v]) < 3 for v in branch):
        return False
    index = {v: i for i, v in enumerate(branch)}
    smoothed = []
    for v in branch:  # follow each thread of degree-2 vertices to its end
        for w in hadj[v]:
            prev, cur = v, w
            while cur not in index:
                prev, cur = cur, next(x for x in hadj[cur] if x != prev)
            if index[v] < index[cur]:
                smoothed.append((index[v], index[cur]))
    if len(set(smoothed)) != len(smoothed) or len(smoothed) != f.m:
        return False
    want = set(f.edges())
    return any(
        {tuple(sorted((p[a], p[b]))) for a, b in smoothed} == want
        for p in permutations(range(f.n))
    )


def _components(adj) -> int:
    """Number of connected components."""
    seen, count = set(), 0
    for s in range(len(adj)):
        if s not in seen:
            count += 1
            seen.add(s)
            stack = [s]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return count


def _check_find(mtf, item, rc, out, res):
    res.budgeted = 1
    if rc == 0:
        _verify(mtf, item, json.loads(out))
    elif rc == 1:
        _need(out == "not-found\n", "exit 1 without not-found")
    elif rc == 2:
        _need(out == "", "exit 2 with output")
    else:
        raise CheckFailed(f"exit code {rc}")
    res.solved = int(rc != 2)


_PIPELINE_RC = {"route-success": 0, "fallback-success": 0, "not-found": 1, "budget-exceeded": 2}


def _check_pipeline(mtf, item, rc, out, res):
    rep = json.loads(out)
    verdict = rep["verdict"]
    _need(_PIPELINE_RC[verdict] == rc, f"exit code {rc} for verdict {verdict}")
    _need(rep["host"] == {"n": item.host.n, "m": item.host.m}, "host size")
    _need(rep["pattern"] == {"n": item.pattern.n, "m": item.pattern.m}, "pattern size")
    _need((rep["witness"] is not None) == (rc == 0), "witness presence")
    if rc == 0:
        _verify(mtf, item, rep["witness"])
    if verdict == "route-success":
        _need(rep["stages"]["lift"]["verified"] is True, "route witness not verified")
    res.budgeted = 1
    res.solved = int(rc != 2)


def _check_analyze(mtf, item, rc, out, res):
    rep = json.loads(out)
    g = item.host
    adj = _adjacency(g)
    exceeded = rep["budget_exceeded"]
    _need(set(exceeded) <= set(ANALYZE_FIELDS), "unknown budget field")
    _need(rc == (2 if exceeded else 0), f"exit code {rc} with budget_exceeded={exceeded}")
    _need((rep["n"], rep["m"]) == (g.n, g.m), "host size")
    for field in ANALYZE_FIELDS:
        _need((rep[field] is None) == (field in exceeded), f"{field} vs budget_exceeded")
        res.values[field] = rep[field]
    triangle_free = all(not (adj[u] & adj[v]) for u, v in g.edges())
    _need(rep["triangle_free"] is triangle_free, "triangle_free")
    if rep["clique_number"] is not None and triangle_free and g.m:
        _need(rep["clique_number"] == 2, "clique number of a triangle-free graph")
    tau, transversal = rep["transversality"], rep["transversal"]
    if tau is not None:
        t = set(transversal)
        _need(len(t) == tau == len(transversal), "transversal size")
        _need(all(v in t or adj[v] & t for v in range(g.n)), "transversal misses a closed neighborhood")
        if rep["packing_number"] is not None:
            _need(rep["packing_number"] <= tau, "packing exceeds transversality")
    chi = rep["chromatic_number"]
    if chi is not None and tau is not None:
        _need(rep["chi_le_2tau"] is True and chi <= 2 * tau, "chi_le_2tau")
    res.budgeted = len(ANALYZE_FIELDS)
    res.solved = len(ANALYZE_FIELDS) - len(exceeded)
