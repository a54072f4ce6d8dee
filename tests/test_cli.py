"""Command-line interface: subcommands, formats, exit codes."""

import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtfsubdiv import (
    Graph,
    SubdivisionWitness,
    SyntheticDswSpec,
    gen_cycle,
    gen_petersen,
    gen_synthetic_dsw,
    is_maximal_triangle_free,
    parse_graph6,
    to_graph6,
    to_graph_json,
    verify_witness,
)
from mtfsubdiv.cli import main

from families import complete_graph, star_graph

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, name, g, as_json=False):
    path = tmp_path / name
    payload = to_graph_json(g) if as_json else to_graph6(g)
    path.write_text(payload + "\n")
    return str(path)


# -- gen ----------------------------------------------------------------


def test_gen_cycle(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    assert out == "Dhc\n"


def test_gen_petersen_and_kneser(capsys):
    code, out1, _ = run(capsys, "gen", "petersen")
    assert code == 0
    assert out1 == "IheA@GUAo\n"
    # same graph up to the subset labeling, so only the shape is stable
    code, out2, _ = run(capsys, "gen", "kneser", "5", "2")
    assert code == 0
    g = parse_graph6(out2.strip())
    assert g.n == 10 and g.m == 15 and g.degrees() == [3] * 10


def test_gen_kneser_above_the_edge_limit_is_a_usage_error(capsys):
    # 34,220 vertices pass the vertex limit; ~5·10^8 edges do not
    code, out, err = run(capsys, "gen", "kneser", "60", "3")
    assert code == 3 and out == ""
    assert "above the limit" in err


def test_gen_random_mtf_is_seeded(capsys):
    code, out1, _ = run(capsys, "gen", "random-mtf", "12", "--seed", "3")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "random-mtf", "12", "--seed", "3")
    assert out1 == out2
    code, out3, _ = run(capsys, "gen", "random-mtf", "12", "--seed", "4")
    assert out3 != out1
    assert is_maximal_triangle_free(parse_graph6(out1.strip()))


def test_gen_synthetic_dsw(capsys):
    code, out, _ = run(capsys, "gen", "synthetic-dsw", "3")
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == 6 and g.m == 6

    code, out, _ = run(capsys, "gen", "synthetic-dsw", "3", "--padded")
    assert code == 0
    assert is_maximal_triangle_free(parse_graph6(out.strip()))

    code, out, _ = run(capsys, "gen", "synthetic-dsw", "3", "--pairs", "0-1")
    assert code == 0
    assert parse_graph6(out.strip()).n == 4


def test_gen_mycielski_from_file_and_stdin(capsys, monkeypatch, tmp_path):
    path = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    code, out, _ = run(capsys, "gen", "mycielski", path)
    assert code == 0
    assert parse_graph6(out.strip()).n == 11

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"Dhc\n")))
    code, out2, _ = run(capsys, "gen", "mycielski", "-")
    assert code == 0
    assert out2 == out


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "cycle")
    assert code == 3 and "error" in err
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 3
    code, _, err = run(capsys, "gen", "cycle", "5", "7")
    assert code == 3
    code, _, err = run(capsys, "gen", "synthetic-dsw", "3", "--pairs", "zap")
    assert code == 3
    code, _, err = run(capsys, "gen", "synthetic-dsw", "4", "--pairs", "0-x")
    assert code == 3 and "bad pair" in err
    code, _, err = run(capsys, "gen", "random-mtf", "1001")
    assert code == 3 and "above the limit" in err


def test_oversized_declared_vertex_count_exits_3(capsys, tmp_path, monkeypatch):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 3000000, "edges": []}\n')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == "" and "limit" in err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"~~???~??\n")))  # n = 258,048
    code, out, err = run(capsys, "hypergraph", "-")
    assert code == 3 and out == "" and "limit" in err


# -- analyze ------------------------------------------------------------


def test_analyze_file_outputs_json(capsys, tmp_path):
    path = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 5
    assert rep["chromatic_number"] == 3
    assert rep["transversality"] == 2
    assert rep["chi_le_2tau"] is True


def test_analyze_reads_stdin_from_gen_output(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode())))
    code, out2, _ = run(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out2)["maximal_triangle_free"] is True


def test_analyze_json_format_input(capsys, tmp_path):
    path = graph_file(tmp_path, "c5.json", gen_cycle(5), as_json=True)
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0 and json.loads(out)["n"] == 5
    code, out, _ = run(capsys, "analyze", path, "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 5


def test_analyze_budget_exhaustion_exit_code(capsys, tmp_path):
    path = graph_file(tmp_path, "pet.g6", gen_petersen())
    code, out, _ = run(capsys, "analyze", path, "--budget-nodes", "1")
    assert code == 2
    rep = json.loads(out)
    assert rep["budget_exceeded"]


@pytest.mark.parametrize(
    "opts",
    [("--budget-nodes", "-1"), ("--budget-secs", "nan"), ("--budget-secs", "-5")],
    ids=["negative-nodes", "nan-secs", "negative-secs"],
)
def test_analyze_bad_budget_is_a_usage_error(capsys, tmp_path, opts):
    # exit 3, not 2 for an exceeded budget, and no report
    path = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    code, out, err = run(capsys, "analyze", path, *opts)
    assert code == 3 and out == "" and "error" in err


def test_analyze_long_cycle_reports_budget_not_recursion(capsys, tmp_path):
    # τ(N[C1200]) = 400 puts the cover search at least 400 levels deep; it
    # must run out of its node budget inside a partial report, not of stack
    path = graph_file(tmp_path, "c1200.g6", gen_cycle(1200))
    code, out, err = run(capsys, "analyze", path, "--budget-nodes", "20000")
    assert code == 2, err
    rep = json.loads(out)
    assert rep["budget_exceeded"] == ["transversality"]
    assert rep["transversality"] is None and rep["packing_number"] == 400
    # the rotations and reflections of C1200 leave the DSW search one edge
    # to try first, so its proof that no three edges form a structure fits
    assert rep["max_dsw_size"] == 2


def test_analyze_sniffs_graph6_of_sixty_vertices(capsys, tmp_path):
    # the graph6 size byte of a 60-vertex graph is '{'
    path = graph_file(tmp_path, "star60.g6", star_graph(60))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert json.loads(out)["n"] == 60


# -- pipeline -----------------------------------------------------------


def test_pipeline_text_summary(capsys, tmp_path):
    host = graph_file(tmp_path, "pet.g6", gen_petersen())
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    code, out, _ = run(capsys, "pipeline", host, "--pattern", pattern)
    assert code == 0
    assert "verdict: fallback-success" in out
    assert "maximality: triangle_free=True" in out


def test_pipeline_text_summary_on_route_success(capsys, tmp_path):
    host, _, _ = gen_synthetic_dsw(SyntheticDswSpec(5, padding=True))
    hostfile = graph_file(tmp_path, "d5.g6", host)
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    code, out, _ = run(capsys, "pipeline", hostfile, "--pattern", pattern)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: route-success"
    assert "uniqueness: surviving=10" in lines


def test_pipeline_json_output(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    code, out, _ = run(capsys, "pipeline", host, "--pattern", pattern, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "fallback-success"
    assert rep["stall_reason"] == "pattern-subdivision-not-found-in-derived"
    assert rep["witness"]["induced"] is True


def test_pipeline_not_found_exit_code(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k4.g6", complete_graph(4))
    code, out, _ = run(capsys, "pipeline", host, "--pattern", pattern)
    assert code == 1
    assert "verdict: not-found" in out


def test_pipeline_budget_exit_code(capsys, tmp_path):
    host = graph_file(tmp_path, "pet.g6", gen_petersen())
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    code, out, _ = run(
        capsys, "pipeline", host, "--pattern", pattern, "--budget-nodes", "1"
    )
    assert code == 2
    assert "verdict: budget-exceeded" in out


def test_pipeline_rejects_non_maximal_host(capsys, tmp_path):
    host = graph_file(tmp_path, "c6.g6", gen_cycle(6))
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    code, _, err = run(capsys, "pipeline", host, "--pattern", pattern)
    assert code == 3
    assert "error" in err


def test_pipeline_dot_out(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    dot = tmp_path / "out.dot"
    code, _, _ = run(
        capsys, "pipeline", host, "--pattern", pattern, "--dot-out", str(dot)
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph g {")
    assert "fillcolor=gold" in text


def test_pipeline_cross_check(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k1.g6", Graph(1))
    code, out, _ = run(
        capsys, "pipeline", host, "--pattern", pattern, "--json", "--cross-check"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "route-success"
    assert rep["stages"]["fallback"]["ran"] is True


# -- find-subdivision ---------------------------------------------------


def test_find_subdivision_found_text(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    code, out, _ = run(
        capsys, "find-subdivision", host, "--pattern", pattern, "--induced"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "found"
    assert sum(1 for l in lines if l.startswith("branch ")) == 3
    assert sum(1 for l in lines if l.startswith("path ")) == 3


def test_find_subdivision_json(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    code, out, _ = run(
        capsys, "find-subdivision", host, "--pattern", pattern, "--json"
    )
    assert code == 0
    w = json.loads(out)
    assert w["host_n"] == 5
    assert set(w["paths"]) == {"0-1", "0-2", "1-2"}


def test_find_subdivision_not_found(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k4.g6", complete_graph(4))
    code, out, _ = run(capsys, "find-subdivision", host, "--pattern", pattern)
    assert code == 1
    assert out == "not-found\n"


def test_find_subdivision_budget(capsys, tmp_path):
    host = graph_file(tmp_path, "pet.g6", gen_petersen())
    pattern = graph_file(tmp_path, "k4.g6", complete_graph(4))
    code, _, err = run(
        capsys,
        "find-subdivision",
        host,
        "--pattern",
        pattern,
        "--budget-nodes",
        "2",
    )
    assert code == 2
    assert "budget exceeded" in err


def test_find_subdivision_c4_in_long_cycle(capsys, tmp_path):
    # the path of 1497 edges closing the cycle is enumerated on an explicit
    # stack, so the search needs no Python recursion as deep as the path
    host_graph = gen_cycle(1500)
    host = graph_file(tmp_path, "c1500.g6", host_graph)
    pattern = graph_file(tmp_path, "c4.g6", gen_cycle(4))
    code, out, err = run(
        capsys, "find-subdivision", host, "--pattern", pattern, "--induced", "--json"
    )
    assert code == 0, err
    doc = json.loads(out)
    w = SubdivisionWitness(
        gen_cycle(4),
        host_graph,
        {int(k): v for k, v in doc["branch_map"].items()},
        {tuple(map(int, k.split("-"))): tuple(p) for k, p in doc["paths"].items()},
        induced=True,
    )
    assert verify_witness(w, require_induced=True)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_141(tmp_path, unbuffered):
    # the reader is gone before the first write; buffered output would
    # otherwise fail only in the interpreter's final flush
    path = graph_file(tmp_path, "c60.g6", gen_cycle(60))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from mtfsubdiv.cli import main; sys.exit(main())",
             "analyze", path, "--format", "graph6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 141, err
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_non_ascii_input_exits_3_whatever_the_locale(tmp_path):
    # standard input and a file are read as bytes, so a UTF-8 text layer
    # neither fails on invalid UTF-8 nor decodes valid UTF-8 into a graph
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    path = tmp_path / "bad.g6"
    for payload in (b"\xff\xfe", b"D\xc3\xa9"):
        path.write_bytes(payload)
        for args, stdin in [(["-"], payload), ([str(path)], b"")]:
            proc = subprocess.run(
                [sys.executable, "-m", "mtfsubdiv", "analyze", *args],
                input=stdin,
                capture_output=True,
                env=env,
                timeout=120,
            )
            err = proc.stderr.decode()
            assert proc.returncode == 3, (payload, args, err)
            assert "not ASCII" in err and "Traceback" not in err, (payload, args, err)


def test_python_dash_m_runs_the_cli():
    # a checkout without an installed package runs the CLI as a module
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "mtfsubdiv", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mtfsubdiv ")
    assert "find-subdivision" in proc.stdout


def test_repeated_main_calls_match_a_fresh_process(capsys, monkeypatch):
    # main shares one parser across calls; no call may see what an earlier
    # one left behind, so each prints and returns what a first call would
    commands = [
        ["gen", "cycle", "5"],
        ["gen", "bogus"],
        ["--help"],
        ["find-subdivision", "--help"],
        ["analyze"],
        ["gen", "random-mtf", "12", "--seed", "3"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    fresh = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "mtfsubdiv", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 3, 0, 0, 3, 0]
    for k in [0, 1, 2, 3, 4, 5, 2, 1, 0, 4, 3, 5, 1, 2]:
        assert run(capsys, *commands[k]) == fresh[k], commands[k]


# -- hypergraph ---------------------------------------------------------


def test_hypergraph_stats(capsys, tmp_path):
    path = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    stats = "edge_count: 5\npacking_number: 1\ntransversality: 2\ntransversal: [0, 2]\n"
    assert run(capsys, "hypergraph", path) == (0, stats, "")
    assert run(capsys, "hypergraph", path, "--dsw-max") == (0, stats + "max_dsw_size: 3\n", "")


def test_hypergraph_budget(capsys, tmp_path):
    path = graph_file(tmp_path, "pet.g6", gen_petersen())
    assert run(capsys, "hypergraph", path, "--budget-nodes", "1") == (
        2,
        "edge_count: 10\npacking_number: budget-exceeded\ntransversality: budget-exceeded\n",
        "",
    )


def test_hypergraph_dsw_max_runs_on_an_explicit_stack(capsys, tmp_path):
    # the DSW search is 40 edges deep on N[synthetic d = 40]; it must answer
    # with the interpreter's stack nearly full, while packing and τ run out
    # of their budgets (exit 2).  The 33 frames allowed below are more than
    # the command needs, up to the search's group search, on Python 3.10 to
    # 3.13 under pytest, and fewer than one frame per edge of the structure
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(d=40))
    argv = ["hypergraph", graph_file(tmp_path, "d40.g6", g), "--dsw-max", "--budget-nodes", "25000"]
    # a first run at the normal limit does what the interpreter does once
    # (codec lookup, argparse's patterns, the lazy symmetry import), so the
    # lowered limit tests only the searches
    first = run(capsys, *argv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 33)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out, err) == first
    assert code == 2
    assert "max_dsw_size: 40" in out


# -- error handling and hygiene -----------------------------------------


def test_usage_errors_exit_3(capsys):
    assert run(capsys, )[0] == 3
    assert run(capsys, "frobnicate")[0] == 3
    assert run(capsys, "analyze")[0] == 3
    assert run(capsys, "find-subdivision", "x.g6")[0] == 3
    assert run(capsys, "gen", "cycle", "5", "--no-such-flag")[0] == 3
    assert run(capsys, "gen", "cycle", "abc")[0] == 3
    assert run(capsys, "gen", "kneser", "5", "x")[0] == 3
    assert run(capsys, "gen", "random-mtf", "1e3")[0] == 3
    assert run(capsys, "gen", "synthetic-dsw", "two")[0] == 3
    assert run(capsys, "gen", "kneser", "40", "20")[0] == 3
    assert run(capsys, "gen", "cycle", "99999999999")[0] == 3


def test_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.g6")
    assert code == 3
    assert "error" in err


def test_malformed_input_exits_3(capsys, tmp_path):
    # JSON nested deeper than the decoder recurses, and an integer past
    # Python's digit limit, are malformed input too
    for payload in (
        "garbage{\n",
        '{"n": 1, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"n": ' + "1" * 5_000 + ', "edges": []}',
    ):
        path = tmp_path / "junk"
        path.write_text(payload)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_output_never_contains_ansi_escapes(capsys, tmp_path):
    host = graph_file(tmp_path, "c5.g6", gen_cycle(5))
    pattern = graph_file(tmp_path, "k3.g6", complete_graph(3))
    for argv in [
        ("gen", "petersen"),
        ("analyze", host),
        ("pipeline", host, "--pattern", pattern),
        ("find-subdivision", host, "--pattern", pattern),
        ("hypergraph", host),
        ("analyze", "/no/such/file.g6"),
    ]:
        _, out, err = run(capsys, *argv)
        assert "\x1b" not in out and "\x1b" not in err
