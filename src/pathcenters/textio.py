"""The graph file reader and the element text writer.

Graph files:  `#` comments, one `vertices:` line naming at least one
vertex, then edge lines of the form `edge <id>: <src> -> <rng>`.  Ids are
alphanumeric/underscore.

Elements are written as terms joined by ` + `, each `scalar monomial`; a
monomial is `real|ghost` with `.`-separated edge ids, a bare vertex written
`@v`, and the ghost part omitted when trivial.  Scalars are exact `p/q`
strings.  The package reads no element text.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .graph import Graph

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


# --- element text -----------------------------------------------------------


def element_to_text(el) -> str:
    """Canonical text of an element: its terms in basis order, so equal
    elements get equal text."""
    field = el.field
    terms = []
    for m in el.support():
        # a GMonomial's repr is its text: `real|ghost`, `@v` for a vertex
        terms.append(f"{field.text(el.coeffs[m])} {m!r}")
    return " + ".join(terms) if terms else "0"

