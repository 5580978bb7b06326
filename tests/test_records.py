"""The package's records are tuple records: fields, defaults, equality,
hash, immutability, repr and validation, and an import that pulls in no
`dataclasses`."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pathcenters.center_theory import (
    SCALAR,
    BoundsVerification,
    CenterBounds,
    CenterStructure,
    GradedPrimeRecord,
    LowerSummand,
    PieceContribution,
    PrimeLeavittClassification,
)
from pathcenters.errors import AmbientError, GraphError
from pathcenters.graph import (
    Cycle,
    Graph,
    Path,
    VertexClassification,
    classify_vertex,
)
from pathcenters.graph_algebra import (
    COHN,
    LEAVITT,
    PATH,
    Algebra,
    GMonomial,
    SpecialEdgeChoice,
)
from pathcenters.oracle import (
    CentralSubspace,
    OracleWindow,
    VerificationReport,
)
from pathcenters.report import render_json, render_text
from pathcenters.scalars import QQ, field_from_characteristic

from conftest import (
    ExitFreeUniquenessReport,
    extended_graph,
    ExtendedGraph,
    special_edges_from_mapping,
    toeplitz_graph,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _run_fresh(code):
    """Run `code` in a fresh interpreter, so nothing the tests imported is
    already loaded; it writes no `__pycache__`."""
    return subprocess.run([sys.executable, "-c", code], check=True, text=True,
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC),
                               "PYTHONDONTWRITEBYTECODE": "1"})


def test_cli_import_loads_no_dataclasses_machinery():
    code = ("import sys; before = set(sys.modules); import pathcenters.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    loaded = set(_run_fresh(code).stdout.split())
    assert "pathcenters.cli" in loaded
    assert not loaded & set(HEAVY)


def test_cli_loads_argparse_only_for_help_and_usage_errors():
    code = ("import sys; import pathcenters.cli as cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules))); "
            "sys.exit(cli.main(['center', '-h']))")
    first, help_text = _run_fresh(code).stdout.split("\n", 1)
    assert first == "[]"
    assert help_text.startswith("usage: pathcenters center [-h]")
    assert "--algebra {path,cohn,leavitt}" in help_text


def test_the_package_exports_the_readme_library_api():
    # each `from .module import ...` of `__init__.py` against the README's
    # "Library API" list, module by module
    import ast
    import re

    init = ast.parse((SRC / "pathcenters" / "__init__.py").read_text())
    exported = {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            exported.setdefault(node.module, set()).update(
                alias.asname or alias.name for alias in node.names)
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = {module: set(re.findall(r"`(\w+)`", names)) for module, names
              in re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", section, re.M | re.S)}
    assert listed == exported


def _toeplitz():
    return toeplitz_graph()


def _cycle():
    return Cycle.from_edges(_toeplitz(), ("e",))


# (name, make, make a different one, hashable): `make` builds a fresh,
# equal record on every call
RECORDS = [
    ("Graph", _toeplitz,
     lambda: Graph.build(["u", "v"], [("e", "u", "u")]), False),
    ("Cycle", _cycle,
     lambda: Cycle.from_edges(Graph.build(["w"], [("d", "w", "w")]), ("d",)), True),
    ("VertexClassification", lambda: classify_vertex(_toeplitz(), "u"),
     lambda: classify_vertex(_toeplitz(), "v"), True),
    ("ExtendedGraph", lambda: extended_graph(_toeplitz()),
     lambda: extended_graph(Graph.build(["u"], [])), False),
    ("SpecialEdgeChoice", lambda: SpecialEdgeChoice((("u", "e"),)),
     lambda: SpecialEdgeChoice((("u", "f"),)), True),
    ("Algebra", lambda: Algebra(LEAVITT, _toeplitz()),
     lambda: Algebra(COHN, _toeplitz()), False),
    ("OracleWindow", lambda: OracleWindow(PATH, 3),
     lambda: OracleWindow(PATH, 3, (0, 0)), True),
    ("CentralSubspace", lambda: CentralSubspace((), OracleWindow(PATH, 1),
                                                Algebra(PATH, _toeplitz())),
     lambda: CentralSubspace((), OracleWindow(PATH, 2), Algebra(PATH, _toeplitz())),
     False),
    ("VerificationReport", lambda: VerificationReport(True),
     lambda: VerificationReport(False), True),
    ("CenterStructure", lambda: CenterStructure(SCALAR),
     lambda: CenterStructure("zero"), True),
    ("PrimeLeavittClassification",
     lambda: PrimeLeavittClassification(True, "condition_L"),
     lambda: PrimeLeavittClassification(True, "infinite_feeding"), True),
    ("ExitFreeUniquenessReport",
     lambda: ExitFreeUniquenessReport((), True, True, 0, None),
     lambda: ExitFreeUniquenessReport((), False, None, 0, None), True),
    ("GradedPrimeRecord",
     lambda: GradedPrimeRecord(frozenset(), _toeplitz(), "I",
                               PrimeLeavittClassification(True, "condition_L")),
     lambda: GradedPrimeRecord(frozenset("v"), _toeplitz(), "I",
                               PrimeLeavittClassification(True, "condition_L")),
     False),
    ("PieceContribution", lambda: PieceContribution("zero", "no corner"),
     lambda: PieceContribution("scalar", "no corner"), True),
    ("LowerSummand", lambda: LowerSummand(0, frozenset("u"), False, ()),
     lambda: LowerSummand(1, frozenset("u"), False, ()), True),
    ("CenterBounds", lambda: CenterBounds((), ("K",), (), frozenset()),
     lambda: CenterBounds((), (), (), frozenset()), True),
    ("BoundsVerification", lambda: BoundsVerification(True, 1, True, True, True),
     lambda: BoundsVerification(False, 1, True, True, True), True),
]


def test_the_table_covers_every_record():
    assert len({name for name, *_ in RECORDS}) == 17


@pytest.mark.parametrize("name,make,other,hashable", RECORDS,
                         ids=[r[0] for r in RECORDS])
def test_record_equality_hash_and_immutability(name, make, other, hashable):
    a, b, c = make(), make(), other()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a != c
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], c)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b
    assert repr(a).startswith(f"{name}(")


def test_records_with_derived_state_refuse_every_assignment():
    g = _toeplitz()
    alg = Algebra(LEAVITT, g)
    for record, attr in ((g, "_out"), (alg.special, "_edge"), (alg, "generators")):
        getattr(record, attr)
        with pytest.raises(AttributeError):
            setattr(record, attr, {})
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert g.out_edges("u") == ("e", "f")
    assert alg.special.edge_at("u") == "e" and alg.special.edge_at("v") is None


def test_record_defaults():
    g = _toeplitz()
    assert Algebra(PATH, g).special is None
    assert Algebra(PATH, g).field is QQ
    assert Algebra(COHN, g, SpecialEdgeChoice((("u", "f"),))).special is None
    assert Algebra(LEAVITT, g).special == SpecialEdgeChoice.lex_default(g)
    chosen = special_edges_from_mapping(g, {"u": "f"})
    assert Algebra(LEAVITT, g, chosen).special is chosen
    f2 = field_from_characteristic(2)
    assert Algebra(LEAVITT, g, field=f2) == Algebra(LEAVITT, g, None, f2)
    assert Algebra(LEAVITT, g, field=f2) != Algebra(LEAVITT, g)
    assert OracleWindow(PATH, 2).degrees is None
    assert CentralSubspace((), OracleWindow(PATH, 1), Algebra(PATH, g)).candidate_count == 0
    assert VerificationReport(True) == VerificationReport(True, (), (), 0, 0, ())
    assert CenterStructure(SCALAR) == CenterStructure(SCALAR, (), ())
    assert PrimeLeavittClassification(True, "condition_L")[2:] == (None, None, None)
    assert PieceContribution("zero", "").generator is None
    assert BoundsVerification(True, 0, True, True, True).notes == ()
    assert repr(VerificationReport(True)) == (
        "VerificationReport(ok=True, generator_failures=(), outside_span=(), "
        "oracle_dim=0, span_dim=0, notes=())")
    assert repr(OracleWindow(COHN, 2, (0, 1))) == (
        "OracleWindow(kind='cohn', max_len=2, degrees=(0, 1))")
    assert Graph.build(["u"], []) == Graph(("u",), (), {}, {})
    assert repr(Graph.build(["u"], [])) == "Graph(vertices=('u',), edges=(), src={}, rng={})"
    assert ExtendedGraph(g, {}) == ExtendedGraph(g, {})
    assert VertexClassification(sink=True, source=True, regular=False).sink


@pytest.mark.parametrize("args,message", [
    (("ring", 2), "unknown algebra kind"),
    ((PATH, -1), "length bound must be >= 0"),
    ((PATH, 2, (1, 0)), "empty degree window"),
    ((LEAVITT, 2, (-3, 0)), "inconsistent with the length bound"),
])
def test_oracle_window_validation(args, message):
    with pytest.raises(AmbientError, match=message):
        OracleWindow(*args)


def test_algebra_validation():
    with pytest.raises(AmbientError, match="unknown algebra kind 'ring'"):
        Algebra("ring", _toeplitz())


def test_make_and_replace_build_through_the_validating_constructor():
    g = _toeplitz()
    u, v = Path.vertex(g, "u"), Path.vertex(g, "v")
    with pytest.raises(AmbientError, match="length bound must be >= 0"):
        OracleWindow(LEAVITT, 3)._replace(max_len=-1)
    with pytest.raises(AmbientError, match="unknown algebra kind 'ring'"):
        Algebra._make(("ring", g, None, None))
    with pytest.raises(AmbientError, match="unknown algebra kind 'ring'"):
        Algebra(LEAVITT, g)._replace(kind="ring")
    with pytest.raises(GraphError, match="share their range"):
        GMonomial(u, u)._replace(ghost=v)
    assert OracleWindow._make((COHN, 2, (0, 1))) == OracleWindow(COHN, 2, (0, 1))
    assert Algebra._make((LEAVITT, g, None, QQ)) == Algebra(LEAVITT, g)
    assert Algebra(LEAVITT, g)._replace(kind=PATH) == Algebra(PATH, g)
    assert GMonomial._make((v, v)) == GMonomial(v, v)
    choice = SpecialEdgeChoice.lex_default(g)._replace(pairs=(("u", "f"),))
    assert choice == SpecialEdgeChoice._make(((("u", "f"),),))
    assert choice.edge_at("u") == "f"


# --- the writers against json.dumps and the old text walker ---------------

json_scalars = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
                | st.text(max_size=8))
# string lists, empty ones too, as often as the writers' whole-list paths
json_values = st.recursive(
    json_scalars | st.lists(st.text(max_size=3), max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=json_values)
def test_render_json_matches_json_dumps(value):
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


def test_render_json_on_edge_values():
    for value in ({}, [], "", {"": []}, {"é": {"ü\n\"\\": ["\x00", "☃"]}},
                  [[], [{}], ()], {"a": (1, 2.5, -0.0, True, None)},
                  ["a", ("b", "c"), ("d", 1)], [True, False, None, 1, 0]):
        assert render_json(value) == json.dumps(value, indent=2) + "\n"


def _render_value_by_walk(value, indent, lines):
    """The text walker as it was: every list tested item by item, and each
    list item rendered by a recursive call."""
    pad = "  " * indent
    scalar_list = (lambda v: isinstance(v, list)
                   and all(not isinstance(x, (dict, list)) for x in v))
    if isinstance(value, dict):
        for k, v in value.items():
            if scalar_list(v):
                lines.append(f"{pad}{k}: {', '.join(str(x) for x in v) or '(none)'}")
            elif isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render_value_by_walk(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        if scalar_list(value):
            lines.append(f"{pad}{', '.join(str(x) for x in value) or '(none)'}")
        else:
            for i, x in enumerate(value):
                lines.append(f"{pad}- [{i}]")
                _render_value_by_walk(x, indent + 1, lines)
    else:
        lines.append(f"{pad}{value}")


@settings(max_examples=300, deadline=None)
@given(sections=st.dictionaries(st.text(max_size=6), json_values, max_size=4))
def test_render_text_matches_the_old_walker(sections):
    report = {"command": "analyze", "sections": sections,
              "graph": {"source": "g.graph", "vertices": ["v"], "edges": []}}
    lines = ["pathcenters analyze: g.graph", "graph: 1 vertices, 0 edges"]
    for name, section in sections.items():
        lines.append(f"[{name}]")
        _render_value_by_walk(section, 1, lines)
    assert render_text(report) == "\n".join(lines) + "\n"
