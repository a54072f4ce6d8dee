"""Graph file formats and report serialization.

Supported input formats: graph6 (bit-exact, including the three length
encodings of the published format) and a JSON adjacency object
{"n": int, "edges": [[u, v], ...]} with u < v, sorted, no duplicates.
DOT is export-only.  Reports and witnesses serialize to JSON with a fixed
field order, so identical inputs give byte-identical output.  Both parsers
reject a declared vertex count above ``MAX_VERTICES`` with RangeError
before building anything.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import ParseError, RangeError
from .graphs import Graph, _is_int

if TYPE_CHECKING:
    from .subdivisions import SubdivisionWitness

__all__ = [
    "MAX_VERTICES",
    "parse_graph6",
    "to_graph6",
    "parse_graph_json",
    "to_graph_json",
    "parse_graph",
    "to_dot",
    "witness_to_dict",
    "canonical_json",
]

_HEADER = ">>graph6<<"

# Largest vertex count the parsers accept.  A graph keeps one adjacency
# bitmask per vertex, as wide as its highest neighbour id, so an edgeless
# graph costs next to nothing, but a sparse one whose edges span the id
# range costs about n²/16 bytes: gen_cycle(40000) peaks at 125 MB RSS and
# gen_cycle(100000) at 675 MB (CPython 3.11, x86-64 Linux).  That is far
# past the size any exact search in this package can finish on, while an
# unchecked header could ask for more memory still.
MAX_VERTICES = 100_000


def _check_vertex_count(n: int, source: str) -> None:
    if n > MAX_VERTICES:
        raise RangeError(
            f"{source} declares n = {n}, above the limit of {MAX_VERTICES} vertices"
        )


# -- graph6 -------------------------------------------------------------


def _decode_size(data: bytes, pos: int) -> tuple[int, int]:
    """Decode the vertex-count field at pos; return (n, next position).

    Canonical minimal-length encoding is enforced: 1 byte for n ≤ 62,
    '~' + 3 bytes for n ≤ 258047, '~~' + 6 bytes beyond.
    """
    if pos >= len(data):
        raise ParseError("empty graph6 payload", offset=pos)
    b = data[pos]
    if not 63 <= b <= 126:
        raise ParseError(f"invalid graph6 byte 0x{b:02x}", offset=pos)
    if b != 126:
        return b - 63, pos + 1
    if pos + 1 < len(data) and data[pos + 1] == 126:
        start, width, floor = pos + 2, 6, 258048
    else:
        start, width, floor = pos + 1, 3, 63
    if start + width > len(data):
        raise ParseError("truncated graph6 size field", offset=len(data))
    n = 0
    for k in range(start, start + width):
        b = data[k]
        if not 63 <= b <= 126:
            raise ParseError(f"invalid graph6 byte 0x{b:02x}", offset=k)
        n = (n << 6) | (b - 63)
    if n < floor:
        raise ParseError("non-canonical graph6 size encoding", offset=pos)
    return n, start + width


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        groups = [(n >> 12) & 63, (n >> 6) & 63, n & 63]
        return "~" + "".join(chr(g + 63) for g in groups)
    if n <= 68719476735:
        groups = [(n >> shift) & 63 for shift in (30, 24, 18, 12, 6, 0)]
        return "~~" + "".join(chr(g + 63) for g in groups)
    raise RangeError(f"graph6 cannot encode n = {n}")


def parse_graph6(text: str | bytes) -> Graph:
    """Parse one graph6 string (optional '>>graph6<<' header, optional
    trailing newline) into a Graph, enforcing exact length and zero
    padding.  Errors carry the byte offset of the offending byte.  A
    header declaring more than ``MAX_VERTICES`` vertices raises RangeError.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError("graph6 input is not ASCII", offset=exc.start) from None
    else:
        data = bytes(text)
    if data.startswith(_HEADER.encode("ascii")):
        base = len(_HEADER)
    else:
        base = 0
    while data.endswith(b"\n") or data.endswith(b"\r"):
        data = data[:-1]
    n, pos = _decode_size(data, base)
    _check_vertex_count(n, "graph6 header")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos : pos + nbytes]
    if len(body) < nbytes:
        raise ParseError(
            f"truncated graph6 body: need {nbytes} data bytes, have {len(body)}",
            offset=len(data),
        )
    if len(data) > pos + nbytes:
        raise ParseError("trailing data after graph6 body", offset=pos + nbytes)
    for k, byte in enumerate(body):
        if not 63 <= byte <= 126:
            raise ParseError(f"invalid graph6 byte 0x{byte:02x}", offset=pos + k)
    # bit k of the body is the k-th pair (i, j), i < j, column j by column
    bits = "".join([format(byte - 63, "06b") for byte in body])
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bit", offset=pos + nbytes - 1)
    edges = []
    j = start = 0  # the pairs of column j are bits start .. start + j - 1
    k = bits.find("1")
    while k >= 0:
        while k >= start + j:
            start += j
            j += 1
        edges.append((k - start, j))
        k = bits.find("1", k + 1)
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Serialize to a canonical graph6 string (no header, no newline)."""
    # column j is bits 0 .. j-1 of row j, low bit first: its last j binary digits, reversed
    bits = "".join([format(row, "b").zfill(j)[-1 : -j - 1 : -1] for j, row in enumerate(g._bits)])
    bits += "0" * (-len(bits) % 6)
    body = [chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6)]
    return _encode_size(g.n) + "".join(body)


# -- JSON adjacency -----------------------------------------------------


def _require_int(value, what: str) -> int:
    if not _is_int(value):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON adjacency format, strictly.

    Text the decoder rejects (nesting too deep for it and integers past
    Python's digit limit included) and structural violations (wrong
    keys, unsorted or duplicate edges, u ≥ v) raise ParseError; semantic
    edge violations (self-loops via u = v caught as u ≥ v upstream of
    range, endpoints outside 0..n-1) raise RangeError, as does n above
    ``MAX_VERTICES``.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", offset=exc.pos) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:
        # past Python's digit limit for int(str); the decoder's own errors are caught above
        raise ParseError("invalid JSON: an integer has too many digits") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if set(obj.keys()) != {"n", "edges"}:
        raise ParseError(
            f"expected exactly keys 'n' and 'edges', got {sorted(obj.keys())}"
        )
    n = _require_int(obj["n"], "n")
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    _check_vertex_count(n, "JSON graph")
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise ParseError("edges must be a list")
    edges: list[tuple[int, int]] = []
    for k, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"edge #{k} must be a two-element list, got {item!r}")
        u = _require_int(item[0], f"edge #{k} endpoint")
        v = _require_int(item[1], f"edge #{k} endpoint")
        if u == v:
            raise RangeError(f"edge #{k} is a self-loop on {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise RangeError(f"edge #{k} = [{u}, {v}] out of range for n = {n}")
        if u > v:
            raise ParseError(f"edge #{k} = [{u}, {v}] must satisfy u < v")
        edges.append((u, v))
    for prev, cur in zip(edges, edges[1:]):
        if cur == prev:
            raise ParseError(f"duplicate edge {list(cur)}")
        if cur < prev:
            raise ParseError("edges must be sorted lexicographically")
    return Graph(n, edges)


def to_graph_json(g: Graph) -> str:
    """Serialize to the canonical one-line JSON adjacency form."""
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def parse_graph(payload: str | bytes, fmt: str | None = None) -> Graph:
    """Parse a graph payload, sniffing the format when fmt is None: a
    payload that starts with '{' and contains '"' is JSON adjacency,
    anything else graph6.  The quote matters because '{' is also the
    graph6 size byte of a 60-vertex graph, while graph6 bytes (63..126)
    never include '"'.
    """
    text = payload.decode("ascii", errors="replace") if isinstance(payload, bytes) else payload
    if fmt is None:
        stripped = text.lstrip()
        fmt = "json" if stripped.startswith("{") and '"' in stripped else "graph6"
    if fmt == "json":
        return parse_graph_json(text)
    if fmt == "graph6":
        return parse_graph6(text.strip())
    raise ParseError(f"unknown graph format {fmt!r}")


# -- DOT export ---------------------------------------------------------


def _dot_string(text: str) -> str:
    """text as a quoted DOT string, with its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph, witness: "SubdivisionWitness | None" = None, name: str = "g") -> str:
    """Render to DOT.  With a witness, branch vertices, path interiors and
    unused vertices get distinct fill colors, and path edges are drawn
    heavy while unused edges are grayed out.
    """
    branch: set[int] = set()
    interior: set[int] = set()
    path_edges: set[tuple[int, int]] = set()
    if witness is not None:
        branch = set(witness.branch_map.values())
        interior = witness.used_vertices() - branch
        path_edges = witness.path_edges()
    # a name that is no identifier, or is a DOT keyword, is quoted
    name, keywords = str(name), ("node", "edge", "graph", "digraph", "subgraph", "strict")
    if not name.isidentifier() or name.lower() in keywords:
        name = _dot_string(name)
    lines = [f"graph {name} {{"]
    lines.append("  node [style=filled, fillcolor=white];")
    for v in range(g.n):
        attrs = [f"label={_dot_string(g.labels[v] if g.labels else str(v))}"]
        if v in branch:
            attrs.append("fillcolor=gold")
        elif v in interior:
            attrs.append("fillcolor=skyblue")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.edges():
        if (u, v) in path_edges:
            lines.append(f"  {u} -- {v} [penwidth=2.5];")
        elif witness is not None:
            lines.append(f"  {u} -- {v} [color=gray70];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- reports ------------------------------------------------------------


def witness_to_dict(w: "SubdivisionWitness") -> dict:
    """Documented JSON shape of a subdivision witness."""
    return {
        "pattern": {"n": w.pattern.n, "edges": [[u, v] for u, v in w.pattern.edges()]},
        "host_n": w.host.n,
        "branch_map": {str(k): w.branch_map[k] for k in sorted(w.branch_map)},
        "paths": {
            f"{a}-{b}": list(w.paths[(a, b)]) for (a, b) in sorted(w.paths)
        },
        "induced": w.induced,
    }


def canonical_json(obj) -> str:
    """Fixed-layout JSON used for every report: 2-space indent, insertion
    key order, no trailing newline.
    """
    return json.dumps(obj, indent=2)
