"""Command-line front end.

Subcommands: gen, analyze, pipeline, find-subdivision, hypergraph.
Exit codes: 0 success / witness found, 1 exhaustive search found nothing,
2 budget exceeded, 3 input or usage error, 141 standard output closed by
its reader (128 + SIGPIPE, as a shell reports).  "-" as a filename reads
standard input; the format is sniffed (JSON when the payload starts with
'{' and contains '"', else graph6) unless --format is given.  Output never
contains ANSI escapes, so NO_COLOR is honored by construction.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .budget import DEFAULT_BUDGET, SearchBudget, _guarded
from .errors import BadParameter, BudgetExceeded, MtfError
from .formats import canonical_json, parse_graph, to_dot, to_graph6, witness_to_dict
from .generators import (
    SyntheticDswSpec,
    gen_cycle,
    gen_kneser,
    gen_mycielski,
    gen_petersen,
    gen_random_mtf,
    gen_synthetic_dsw,
)
from .hypergraphs import max_dsw_size
from .pipeline import _hypergraph_statistics, analyze, run_pipeline
from .subdivisions import find_subdivision

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2 for
    budget exhaustion, so usage errors are remapped to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _read_payload(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return fh.read()


def _load_graph(path: str, fmt: str | None):
    return parse_graph(_read_payload(path), fmt)


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_nodes=args.budget_nodes,
        max_seconds=args.budget_secs,
    )


def _add_budget_opts(parser):
    parser.add_argument(
        "--budget-nodes",
        type=int,
        default=DEFAULT_BUDGET.max_nodes,
        help="search-node budget per exact solve",
    )
    parser.add_argument(
        "--budget-secs",
        type=float,
        default=DEFAULT_BUDGET.max_seconds,
        help="wall-clock budget per exact solve, seconds",
    )


def _add_format_opt(parser):
    parser.add_argument(
        "--format",
        choices=["graph6", "json"],
        default=None,
        help="input graph format (default: sniff from the payload)",
    )


# -- subcommands --------------------------------------------------------


def _parse_pairs(text: str) -> frozenset[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split("-")
        if len(parts) != 2:
            raise BadParameter(f"bad pair {chunk!r}, expected like 0-1")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise BadParameter(f"bad pair {chunk!r}, expected like 0-1") from None
    return frozenset(pairs)


def _cmd_gen(args) -> int:
    fam = args.family
    params = args.params

    def want(k: int):
        if len(params) != k:
            raise BadParameter(
                f"family {fam!r} takes {k} positional parameter(s), got {len(params)}"
            )

    def ints(k: int) -> list[int]:
        want(k)
        try:
            return [int(p) for p in params]
        except ValueError:
            raise BadParameter(
                f"family {fam!r} takes integer parameters, got {' '.join(params)}"
            ) from None

    if fam == "cycle":
        g = gen_cycle(*ints(1))
    elif fam == "petersen":
        want(0)
        g = gen_petersen()
    elif fam == "kneser":
        g = gen_kneser(*ints(2))
    elif fam == "mycielski":
        want(1)
        g = gen_mycielski(_load_graph(params[0], args.format))
    elif fam == "random-mtf":
        g = gen_random_mtf(*ints(1), args.seed)
    else:
        (d,) = ints(1)
        pairs = _parse_pairs(args.pairs) if args.pairs else None
        spec = SyntheticDswSpec(d=d, pattern_edges=pairs, padding=args.padded)
        g, _, _ = gen_synthetic_dsw(spec)
    print(to_graph6(g))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = _load_graph(args.file, args.format)
    report = analyze(g, _budget(args))
    print(canonical_json(report))
    return EXIT_BUDGET if report["budget_exceeded"] else EXIT_OK


def _summary_lines(rep) -> list[str]:
    s = rep.stages
    lines = [f"verdict: {rep.verdict}", f"stall_reason: {rep.stall_reason}"]

    def fact(stage: str, *keys: str) -> str:
        rec = s[stage]
        if rec is None:
            return f"{stage}: not reached"
        shown = " ".join(f"{k}={rec[k]}" for k in keys)
        return f"{stage}: {shown}"

    lines.append(fact("maximality", "triangle_free", "maximal_triangle_free"))
    lines.append(
        fact("hypergraph", "packing_number", "transversality", "chromatic_number", "chi_le_2tau")
    )
    lines.append(fact("dsw", "d"))
    lines.append(fact("x_restriction", "size", "benchmark"))
    if s["uniqueness"] is not None:
        lines.append(f"uniqueness: surviving={len(s['uniqueness']['surviving_pairs'])}")
    else:
        lines.append("uniqueness: not reached")
    lines.append(fact("y_restriction", "size", "benchmark"))
    lines.append(fact("derived", "n", "m"))
    lines.append(fact("search_in_derived", "found"))
    lines.append(fact("lift", "verified"))
    lines.append(fact("fallback", "ran", "found"))
    return lines


def _cmd_pipeline(args) -> int:
    host = _load_graph(args.hostfile, args.format)
    pattern = _load_graph(args.pattern, args.format)
    rep = run_pipeline(host, pattern, _budget(args), cross_check=args.cross_check)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(to_dot(host, rep.witness))
    if args.json:
        print(canonical_json(rep.to_dict()))
    else:
        print("\n".join(_summary_lines(rep)))
    if rep.verdict in ("route-success", "fallback-success"):
        return EXIT_OK
    if rep.verdict == "budget-exceeded":
        return EXIT_BUDGET
    return EXIT_NOT_FOUND


def _cmd_find_subdivision(args) -> int:
    host = _load_graph(args.hostfile, args.format)
    pattern = _load_graph(args.pattern, args.format)
    w = find_subdivision(pattern, host, require_induced=args.induced, budget=_budget(args))
    if w is None:
        print("not-found")
        return EXIT_NOT_FOUND
    if args.json:
        print(canonical_json(witness_to_dict(w)))
    else:
        print("found")
        for k in sorted(w.branch_map):
            print(f"branch {k} -> {w.branch_map[k]}")
        for (a, b) in sorted(w.paths):
            print(f"path {a}-{b}: {' '.join(str(v) for v in w.paths[(a, b)])}")
    return EXIT_OK


def _cmd_hypergraph(args) -> int:
    g = _load_graph(args.file, args.format)
    budget = _budget(args)
    exceeded: list[str] = []
    h, packing, tau, transversal = _hypergraph_statistics(g, budget, exceeded)

    def show(field: str, value) -> None:
        print(f"{field}: {'budget-exceeded' if value is None else value}")

    print(f"edge_count: {len(h.masks)}")
    show("packing_number", packing)
    show("transversality", tau)
    if tau is not None:
        print(f"transversal: {transversal}")
    if args.dsw_max:
        show("max_dsw_size", _guarded(exceeded, "max_dsw_size", max_dsw_size, h, budget))
    return EXIT_BUDGET if exceeded else EXIT_OK


# -- parser -------------------------------------------------------------


@cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call; callers must not change it.  Parsing keeps no state
    in it, and the help text reads the terminal width when it is printed."""
    parser = _Parser(
        prog="mtfsubdiv",
        description=(
            "Exact searches around maximal triangle-free graphs: "
            "neighborhood hypergraphs, disjointly witnessed families, "
            "and induced subdivisions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph, write graph6 to stdout")
    p.add_argument(
        "family",
        choices=["cycle", "petersen", "kneser", "mycielski", "random-mtf", "synthetic-dsw"],
    )
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0, help="seed for random-mtf")
    p.add_argument("--padded", action="store_true", help="synthetic-dsw: pad to maximal")
    p.add_argument(
        "--pairs",
        default=None,
        help="synthetic-dsw: witnessed pairs like 0-1,0-2 (default: all pairs)",
    )
    _add_format_opt(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="structured JSON report for one graph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="accepted for symmetry; output is always JSON")
    _add_budget_opts(p)
    _add_format_opt(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pipeline", help="run the full route host -> induced subdivision")
    p.add_argument("hostfile")
    p.add_argument("--pattern", required=True)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot-out", default=None, help="write host DOT with witness highlighted")
    _add_budget_opts(p)
    _add_format_opt(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("find-subdivision", help="exact subdivision search")
    p.add_argument("hostfile")
    p.add_argument("--pattern", required=True)
    p.add_argument("--induced", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_budget_opts(p)
    _add_format_opt(p)
    p.set_defaults(func=_cmd_find_subdivision)

    p = sub.add_parser("hypergraph", help="neighborhood-hypergraph statistics")
    p.add_argument("file")
    p.add_argument("--dsw-max", action="store_true")
    _add_budget_opts(p)
    _add_format_opt(p)
    p.set_defaults(func=_cmd_hypergraph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away: send what is still buffered to
        # devnull, so that the interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MtfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
