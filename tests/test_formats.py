"""graph6 and JSON adjacency parsing, DOT export, report serialization."""

import json

import pytest

from mtfsubdiv import (
    Graph,
    MtfError,
    ParseError,
    RangeError,
    canonical_json,
    find_subdivision,
    gen_cycle,
    gen_petersen,
    gen_synthetic_dsw,
    parse_graph,
    parse_graph6,
    parse_graph_json,
    SyntheticDswSpec,
    to_dot,
    to_graph6,
    to_graph_json,
    witness_to_dict,
)
from mtfsubdiv.formats import MAX_VERTICES, _decode_size, _encode_size

from families import complete_graph, random_graph


# -- graph6 -------------------------------------------------------------


def test_graph6_known_strings():
    assert to_graph6(Graph(0)) == "?"
    assert to_graph6(Graph(1)) == "@"
    assert to_graph6(Graph(2, [(0, 1)])) == "A_"
    assert to_graph6(Graph(2)) == "A?"
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(gen_cycle(5)) == "Dhc"
    assert to_graph6(gen_petersen()) == "IheA@GUAo"


def test_graph6_parse_known_strings():
    assert parse_graph6("Bw").edges() == [(0, 1), (0, 2), (1, 2)]
    k5 = parse_graph6("D~{")
    assert k5.n == 5 and k5.m == 10
    assert parse_graph6("?").n == 0
    assert parse_graph6("@").n == 1


def test_graph6_round_trip_random():
    for seed in range(40):
        g = random_graph(1 + seed % 23, 0.3, seed=seed)
        back = parse_graph6(to_graph6(g))
        assert back.n == g.n and back.edges() == g.edges()


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    for seed, n in enumerate([0, 1, 2, 5, 6, 7, 12, 61, 62, 63, 64, 70]):
        g = random_graph(n, 0.2, seed=seed)
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges())
        assert (to_graph6(g) + "\n").encode("ascii") == nx.to_graph6_bytes(ref, header=False)
        assert parse_graph6(nx.to_graph6_bytes(ref, header=False).decode("ascii")) == g


def test_graph6_header_and_newlines():
    assert parse_graph6(">>graph6<<Bw").edges() == complete_graph(3).edges()
    assert parse_graph6("Bw\n").n == 3
    assert parse_graph6("Bw\r\n").n == 3
    assert parse_graph6(b"Bw").n == 3


def test_graph6_empty_payload():
    with pytest.raises(ParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0


def test_graph6_truncated_body():
    with pytest.raises(ParseError) as err:
        parse_graph6("B")
    assert "truncated" in str(err.value)
    assert err.value.offset == 1


def test_graph6_trailing_data():
    with pytest.raises(ParseError) as err:
        parse_graph6("Bwx")
    assert "trailing" in str(err.value)
    assert err.value.offset == 2


def test_graph6_nonzero_padding():
    # n = 3 uses 3 bits; '~' sets all six, so the padding is dirty
    with pytest.raises(ParseError) as err:
        parse_graph6("B~")
    assert "padding" in str(err.value)
    assert err.value.offset == 1


def test_graph6_non_canonical_size():
    with pytest.raises(ParseError) as err:
        parse_graph6("~??D")
    assert "non-canonical" in str(err.value)
    assert err.value.offset == 0


def test_graph6_invalid_bytes():
    with pytest.raises(ParseError) as err:
        parse_graph6(" w")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_graph6("B ")
    assert err.value.offset == 1
    # inside the three bytes of a "~" size field
    with pytest.raises(ParseError) as err:
        parse_graph6("~? ?")
    assert "invalid graph6 byte" in str(err.value) and err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_graph6("Bé")
    assert "ASCII" in str(err.value)


def test_graph6_reports_the_first_invalid_byte_before_the_padding():
    # n = 5: ten data bits in two bytes, the last two bits of the second padding
    for text, offset in (("D  ", 1), ("D~ ", 2), ("D?\x7f", 2)):
        with pytest.raises(ParseError) as err:
            parse_graph6(text)
        assert "invalid graph6 byte" in str(err.value) and err.value.offset == offset


def test_graph6_size_field_boundaries():
    assert _encode_size(0) == "?"
    assert _encode_size(62) == "}"
    assert _encode_size(63) == "~??~"
    assert _encode_size(258047) == "~}~~"
    assert _encode_size(258048).startswith("~~")
    for n in (0, 1, 62, 63, 100, 258047, 258048, 68719476735):
        enc = _encode_size(n)
        got, pos = _decode_size(enc.encode("ascii"), 0)
        assert got == n and pos == len(enc)
    with pytest.raises(RangeError):
        _encode_size(68719476736)


def test_graph6_size_field_truncated():
    with pytest.raises(ParseError) as err:
        parse_graph6("~?")
    assert "size" in str(err.value)


# -- JSON adjacency -----------------------------------------------------


def test_json_round_trip():
    g = gen_cycle(5)
    text = to_graph_json(g)
    assert "\n" not in text
    assert json.loads(text) == {
        "n": 5,
        "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]],
    }
    back = parse_graph_json(text)
    assert back.n == g.n and back.edges() == g.edges()


def test_json_rejects_malformed_documents():
    with pytest.raises(ParseError) as err:
        parse_graph_json("{not json")
    assert err.value.offset >= 0
    with pytest.raises(ParseError):
        parse_graph_json("[1, 2]")
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 2}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 2, "edges": [], "extra": 1}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 2, "edges": 5}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 2.0, "edges": []}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": true, "edges": []}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 2, "edges": [[0]]}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 2, "edges": [[0, 1, 1]]}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 2, "edges": [["0", 1]]}')
    # the decoder recurses once per nesting level
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 1, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    # past Python's digit limit for int(str) a ParseError; with the limit
    # switched off the number parses, far above the vertex cap
    with pytest.raises(MtfError):
        parse_graph_json('{"n": ' + "1" * 5_000 + ', "edges": []}')


def test_json_rejects_unordered_edges():
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 3, "edges": [[1, 0]]}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 3, "edges": [[1, 2], [0, 1]]}')
    with pytest.raises(ParseError):
        parse_graph_json('{"n": 3, "edges": [[0, 1], [0, 1]]}')


def test_json_range_errors():
    with pytest.raises(RangeError):
        parse_graph_json('{"n": -1, "edges": []}')
    with pytest.raises(RangeError):
        parse_graph_json('{"n": 3, "edges": [[1, 1]]}')
    with pytest.raises(RangeError):
        parse_graph_json('{"n": 3, "edges": [[0, 3]]}')


def test_declared_vertex_count_is_capped_before_allocation():
    # without the cap an empty 3,000,000-vertex JSON graph took 1.37 GB
    with pytest.raises(RangeError) as err:
        parse_graph_json('{"n": 3000000, "edges": []}')
    assert str(MAX_VERTICES) in str(err.value)
    with pytest.raises(RangeError):
        parse_graph(f'{{"n": {MAX_VERTICES + 1}, "edges": []}}')
    # the smallest size the eight-byte graph6 field encodes, with no body
    with pytest.raises(RangeError):
        parse_graph6(_encode_size(258048))
    with pytest.raises(RangeError):
        parse_graph6(_encode_size(MAX_VERTICES + 1))
    assert parse_graph_json(f'{{"n": {MAX_VERTICES}, "edges": []}}').n == MAX_VERTICES


# -- sniffing -----------------------------------------------------------


def test_parse_graph_sniffs_format():
    assert parse_graph("Bw").n == 3
    assert parse_graph('{"n": 1, "edges": []}').n == 1
    assert parse_graph('  {"n": 1, "edges": []}').n == 1
    assert parse_graph(b"Bw").n == 3
    assert parse_graph("Bw", fmt="graph6").n == 3
    with pytest.raises(ParseError):
        parse_graph("Bw", fmt="json")
    with pytest.raises(ParseError):
        parse_graph("Bw", fmt="dot")


def test_parse_graph_sniffs_graph6_starting_with_brace():
    # n = 60 encodes as '{'; its neighbours check the boundary
    for n in range(59, 64):
        text = to_graph6(gen_cycle(n))
        assert parse_graph(text) == gen_cycle(n)
        assert parse_graph(text + "\n") == gen_cycle(n)


# -- DOT ----------------------------------------------------------------


def test_dot_plain_graph():
    out = to_dot(gen_cycle(4))
    assert out.startswith("graph g {")
    assert out.endswith("}\n")
    assert "0 -- 1;" in out
    assert 'label="0"' in out
    assert "gold" not in out


def test_dot_with_witness_highlights_the_subdivision():
    host = gen_cycle(6)
    w = find_subdivision(complete_graph(3), host, require_induced=True)
    out = to_dot(host, witness=w, name="demo")
    assert out.startswith("graph demo {")
    assert "fillcolor=gold" in out
    assert "fillcolor=skyblue" in out
    assert "penwidth=2.5" in out
    # C_6 is fully used by the triangle subdivision, so nothing is grayed
    assert "gray70" not in out

    pet = gen_petersen()
    w2 = find_subdivision(complete_graph(3), pet, require_induced=True)
    out2 = to_dot(pet, witness=w2)
    assert "gray70" in out2


def test_dot_quotes_a_name_that_is_no_bare_identifier():
    g = gen_cycle(3)
    assert to_dot(g).startswith("graph g {\n")
    assert to_dot(g, name="_my_graph2").startswith("graph _my_graph2 {\n")
    assert to_dot(g, name="my graph").startswith('graph "my graph" {\n')
    assert to_dot(g, name='a"b\\c').startswith('graph "a\\"b\\\\c" {\n')
    # a leading digit, or a DOT keyword in any case
    assert to_dot(g, name="2g").startswith('graph "2g" {\n')
    assert to_dot(g, name="Node").startswith('graph "Node" {\n')


def test_dot_uses_stored_labels():
    g, _, _ = gen_synthetic_dsw(SyntheticDswSpec(3))
    out = to_dot(g)
    assert 'label="x0"' in out
    assert 'label="y0-1"' in out


def test_dot_escapes_quotes_and_backslashes_in_labels():
    out = to_dot(Graph(2, [(0, 1)], labels=['a"b', "c\\d"]))
    assert '0 [label="a\\"b"];' in out
    assert '1 [label="c\\\\d"];' in out


# -- report serialization -----------------------------------------------


def test_witness_to_dict_shape():
    w = find_subdivision(complete_graph(3), gen_cycle(6))
    d = witness_to_dict(w)
    assert list(d) == ["pattern", "host_n", "branch_map", "paths", "induced"]
    assert d["pattern"] == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
    assert d["host_n"] == 6
    assert set(d["paths"]) == {"0-1", "0-2", "1-2"}
    for path in d["paths"].values():
        assert isinstance(path, list) and len(path) >= 2
    json.dumps(d)


def test_canonical_json_layout():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}'
    assert canonical_json({"x": 1}) == canonical_json({"x": 1})
