"""Machine-readable reports: one dict shape rendered as text or JSON.

Field order is fixed by construction so both renderings are deterministic;
the JSON form validates against the schema shipped as report_schema.json.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

from .center_theory import CenterBounds, CenterStructure, SUM
from .graph import (
    Graph,
    classify_vertex,
    condition_L,
    connected_components,
    cycle_has_exit,
    enumerate_hereditary_saturated,
    exit_free_cycle_vertices,
    find_cycles,
    is_downward_directed,
)
from .textio import element_to_text

SCHEMA_VERSION = 1


def _count(n):
    return "infinite" if n == math.inf else n


def graph_block(g: Graph, source: str):
    return {
        "source": source,
        "vertices": list(g.vertices),
        "edges": [{"id": e, "src": g.src[e], "rng": g.rng[e]} for e in g.edges],
    }


def new_report(command: str, g: Graph, source: str):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "pathcenters",
        "command": command,
        "graph": graph_block(g, source),
        "sections": {},
    }


def predicates_section(g: Graph):
    # the capped enumeration first: it refuses a large graph at once
    hereditary = [sorted(h) for h in enumerate_hereditary_saturated(g)]
    kinds = [(v, classify_vertex(g, v)) for v in g.vertices]
    return {
        "sinks": [v for v, c in kinds if c.sink],
        "sources": [v for v, c in kinds if c.source],
        "regular": [v for v, c in kinds if c.regular],
        "connected_components": [sorted(b) for b in connected_components(g)],
        "cycles": [
            {"edges": list(c.edges), "has_exit": cycle_has_exit(g, c)}
            for c in find_cycles(g)
        ],
        "condition_L": condition_L(g),
        "downward_directed": is_downward_directed(g),
        "hereditary_saturated": hereditary,
        "exit_free_cycle_vertices": sorted(exit_free_cycle_vertices(g)),
    }


def primeness_section(g: Graph):
    from .center_theory import is_prime_cohn, is_prime_leavitt

    return {
        "leavitt_prime": is_prime_leavitt(g),
        "cohn_prime": is_prime_cohn(g),
    }


def structure_block(cs: CenterStructure):
    out = {"structure": cs.describe()}
    if cs.kind == SUM:
        out["components"] = [structure_block(c) for c in cs.components]
    else:
        out["generators"] = [element_to_text(x) for x in cs.generators]
    return out


def cycle_counts_block(cls):
    """Both path-count readings for the exit-free cycle of a prime graph's
    classification, if it has one, for the record."""
    if cls.cycle is None:
        return []
    return [{
        "cycle": list(cls.cycle.edges),
        "paths_ending_not_all_edges": _count(cls.path_count),
        "paths_ending_at_base": _count(cls.base_count),
    }]


def graded_primes_section(records):
    out = []
    for r in records:
        entry = {
            "H": sorted(r.H),
            "flavor": r.flavor,
            "witness": r.cls.reason,
            "quotient_vertices": list(r.quotient.vertices),
        }
        if r.cls.cycle is not None:
            entry["cycle"] = list(r.cls.cycle.edges)
            entry["path_count"] = _count(r.cls.path_count)
        out.append(entry)
    return out


def bounds_section(bounds: CenterBounds):
    lower = []
    for s in bounds.lower:
        lower.append({
            "record_index": s.record_index,
            "ideal_vertices": sorted(s.ideal_vertices),
            "improper": s.improper,
            "description": s.describe(),
            "pieces": [
                {
                    "kind": p.kind,
                    "detail": p.detail,
                    "generator": element_to_text(p.generator)
                    if p.generator is not None else None,
                }
                for p in s.pieces
            ],
        })
    return {
        "upper": list(bounds.upper),
        "upper_description": bounds.describe_upper(),
        "lower": lower,
        "lower_description": bounds.describe_lower(),
        "graded_baer_radical_vertices": sorted(bounds.radical_vertices),
    }


def oracle_section(subspace):
    w = subspace.window
    return {
        "algebra": w.kind,
        "max_len": w.max_len,
        "degrees": list(w.degrees) if w.degrees is not None else None,
        "candidates": subspace.candidate_count,
        "dimension": subspace.dim,
        # Always true: products are normalized in the full algebra, so no
        # constraint is clipped and the basis is complete for the window.
        "complete_within_window": True,
        "basis": [element_to_text(el) for el in subspace.basis],
    }


def verification_block(rep):
    return {
        "ok": rep.ok,
        "generator_failures": [
            {"generator": gen, "witness": wit}
            for gen, wit in rep.generator_failures
        ],
        "outside_span": list(rep.outside_span),
        "oracle_dimension": rep.oracle_dim,
        "span_dimension": rep.span_dim,
    }


def bounds_verification_block(rep):
    return {
        "ok": rep.ok,
        "oracle_dimension": rep.oracle_dim,
        "upper_contains_oracle": rep.upper_ok,
        "oracle_contains_lower": rep.lower_ok,
        "graded_baer_radical_zero": rep.radical_empty,
        "notes": list(rep.notes),
    }


def add_notice(report, text):
    report["sections"].setdefault("notices", []).append(text)


# --- rendering ---------------------------------------------------------------


def render_json(report) -> str:
    """`json.dumps(report, indent=2)` and a newline, byte for byte, without the
    pure-Python encoder that `indent` selects: strings are quoted in C, and a
    list of strings is written whole, by one join."""
    out = []
    _write_json(report, "\n", out)
    return "".join(out) + "\n"


def _write_json(value, pad, out):
    """Append `value` as json.dumps(…, indent=2) writes it after `pad`."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict) and value:
        inner, sep = pad + "  ", "{"
        for k, v in value.items():
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _write_json(v, inner, out)
            sep = ","
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner, sep = pad + "  ", "["
        if {*map(type, value)} == {str}:
            out.append(f"[{inner}{(',' + inner).join(map(_quote, value))}{pad}]")
            return
        for v in value:
            out.append(sep + inner)
            _write_json(v, inner, out)
            sep = ","
        out.append(pad + "]")
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    else:
        out.append(json.dumps(value))


def _scalar_line(v):
    """A list of scalars as its one line of text, else None."""
    if isinstance(v, list) and {dict, list}.isdisjoint(map(type, v)):
        return ", ".join(map(str, v)) or "(none)"
    return None


def _render_value(value, indent, lines):
    """Append `value`'s lines at `indent`; values are plain dicts, lists and
    scalars, and a list of scalars is one line, inline as a list item."""
    pad = "  " * indent
    line = _scalar_line(value)
    if line is not None:
        lines.append(pad + line)
    elif isinstance(value, dict):
        for k, v in value.items():
            line = _scalar_line(v)
            if line is None and isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render_value(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {v if line is None else line}")
    elif isinstance(value, list):
        for i, x in enumerate(value):
            lines.append(f"{pad}- [{i}]")
            line = _scalar_line(x)
            if line is None:
                _render_value(x, indent + 1, lines)
            else:
                lines.append(f"{pad}  {line}")
    else:
        lines.append(f"{pad}{value}")


def render_text(report) -> str:
    g = report["graph"]
    lines = [
        f"pathcenters {report['command']}: {g['source']}",
        f"graph: {len(g['vertices'])} vertices, {len(g['edges'])} edges",
    ]
    for name, section in report["sections"].items():
        lines.append(f"[{name}]")
        _render_value(section, 1, lines)
    return "\n".join(lines) + "\n"


def load_schema():
    with resources.files("pathcenters").joinpath("report_schema.json").open() as fh:
        return json.load(fh)
