"""Graph file format and the shared element text syntax.

Graph files:  `#` comments, one `vertices:` line naming at least one
vertex, then edge lines of the form `edge <id>: <src> -> <rng>`.  Ids are
alphanumeric/underscore.

Elements: terms joined by ` + `, each `scalar monomial`; a monomial is
`real|ghost` with `.`-separated edge ids, a bare vertex written `@v`, and
the ghost part omitted when trivial.  Scalars are exact `p/q` strings.
"""

from __future__ import annotations

import re

from .errors import GraphError, ParseError, WordError
from .graph import Graph, Path
from .graph_algebra import Algebra

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_EDGE_LINE_RE = re.compile(
    r"edge\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)\Z"
)


def parse_graph(text: str) -> Graph:
    vertices = None
    edges = []
    vertices_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("second vertices: line", lineno)
            ids = line[len("vertices:"):].split()
            for v in ids:
                if not _ID_RE.match(v):
                    raise ParseError(f"bad vertex id {v!r}", lineno)
            if not ids:
                raise ParseError("a graph needs at least one vertex", lineno)
            if len(ids) != len(set(ids)):
                raise ParseError("duplicate vertex id", lineno)
            vertices = ids
            vertices_line = lineno
            continue
        m = _EDGE_LINE_RE.match(line)
        if m is None:
            raise ParseError(f"unrecognized line {line!r}", lineno)
        if vertices is None:
            raise ParseError("edge line before the vertices: line", lineno)
        edges.append((lineno, m.group(1), m.group(2), m.group(3)))
    if vertices is None:
        raise ParseError("missing vertices: line", vertices_line)
    seen, known = set(vertices), frozenset(vertices)
    triples = []
    for lineno, eid, s, r in edges:
        if eid in seen:
            raise ParseError(f"duplicate id {eid!r}", lineno)
        seen.add(eid)
        if s not in known:
            raise ParseError(f"unknown source vertex {s!r}", lineno)
        if r not in known:
            raise ParseError(f"unknown range vertex {r!r}", lineno)
        triples.append((eid, s, r))
    return Graph.build(vertices, triples)


def emit_graph(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    for e in g.edges:
        lines.append(f"edge {e}: {g.src[e]} -> {g.rng[e]}")
    return "\n".join(lines) + "\n"


# --- element text -----------------------------------------------------------


def element_to_text(el) -> str:
    """Canonical text of an element; round-trips bit-exactly through parse."""
    field = el.field
    terms = []
    for m in el.support():
        # a GMonomial's repr is its text: `real|ghost`, `@v` for a vertex
        terms.append(f"{field.text(el.coeffs[m])} {m!r}")
    return " + ".join(terms) if terms else "0"


def _parse_path_part(g: Graph, text: str) -> Path:
    text = text.strip()
    if not text:
        raise ParseError("empty path in monomial")
    if text.startswith("@"):
        v = text[1:]
        if v not in g._out:
            raise ParseError(f"unknown vertex {v!r}")
        return Path.vertex(g, v)
    edges = text.split(".")
    for e in edges:
        if e not in g.src:
            raise ParseError(f"unknown edge {e!r}")
    try:
        return Path.from_edges(g, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def parse_element(text: str, alg: Algebra):
    """Parse element text into a `GAElement` of `alg`."""
    text = text.strip()
    g, field = alg.graph, alg.field
    terms = []
    for term in [] if text == "0" else text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError("empty term in element")
        parts = term.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"term {term!r} needs a scalar and a monomial")
        try:
            coeff = field.parse(parts[0])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        mono = parts[1].strip()
        if "|" in mono:
            real_text, ghost_text = mono.split("|", 1)
        else:
            real_text, ghost_text = mono, None
        real = _parse_path_part(g, real_text)
        if ghost_text is None:
            ghost = Path.vertex(g, real.target)
        else:
            ghost = _parse_path_part(g, ghost_text)
        if real.target != ghost.target:
            raise ParseError(
                f"monomial {mono!r}: real and ghost parts end at different vertices"
            )
        terms.append((coeff, real, ghost))
    try:
        return alg.sum_of(terms)
    except WordError as exc:  # a ghost part in the path algebra
        raise ParseError(str(exc)) from exc
