"""Layer tracing from outside the package.

``install`` wraps public functions of ``pathcenters`` and rebinds each
wrapped name in every ``pathcenters.*`` module that holds it, so calls made
inside the package go through the wrapper too.  Each wrapper records a span
(name, start, end, parent span, request id) and adds the span's duration to
its parent's child time; self time is duration minus child time.

Two functions are called hundreds of thousands of times per request, so
their spans are kept as one aggregate per (name, parent span) instead of
one record per call.  Field operations are counted, not timed.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute): functions that get a span.
SPANNED = [
    ("graph.enumerate_hereditary_saturated", "graph", "enumerate_hereditary_saturated"),
    ("graph.hereditary_saturated_closure", "graph", "hereditary_saturated_closure"),
    ("graph.find_cycles", "graph", "find_cycles"),
    ("graph.paths_into", "graph", "paths_into"),
    ("graph.all_paths_up_to", "graph", "all_paths_up_to"),
    ("graph.is_downward_directed", "graph", "is_downward_directed"),
    ("center_theory.graded_prime_ideals", "center_theory", "graded_prime_ideals"),
    ("center_theory.center_bounds", "center_theory", "center_bounds"),
    ("center_theory.laurent_generator", "center_theory", "laurent_generator"),
    ("center_theory.verify_bounds", "center_theory", "verify_bounds"),
    ("oracle.central_subspace", "oracle", "central_subspace"),
    ("oracle.enumerate_candidates", "oracle", "enumerate_candidates"),
    ("oracle.centrality_witness", "oracle", "centrality_witness"),
    ("oracle.verify_structure", "oracle", "verify_structure"),
    ("graph_algebra.mul_monomials", "graph_algebra", "mul_monomials"),
    ("graph_algebra.normal_form", "graph_algebra", "normal_form"),
    ("graph_algebra.enumerate_ga_monomials", "graph_algebra", "enumerate_ga_monomials"),
    ("linalg.sparse_nullspace", "linalg", "sparse_nullspace"),
    ("textio.parse_graph", "textio", "parse_graph"),
    ("textio.element_to_text", "textio", "element_to_text"),
    ("report.render", "report", "render_json"),
    ("report.render", "report", "render_text"),
]
# (metric prefix, module, class, method): methods that get a span.
SPANNED_METHODS = [
    ("graph_algebra.GAElement.mul", "graph_algebra", "GAElement", "__mul__"),
    ("path_algebra.KEElement.mul", "path_algebra", "KEElement", "__mul__"),
    ("linalg.LinearSpan", "linalg", "LinearSpan", "add"),
    ("linalg.LinearSpan", "linalg", "LinearSpan", "contains"),
    ("linalg.LinearSpan", "linalg", "LinearSpan", "residue"),
]
AGGREGATED = {"graph_algebra.mul_monomials", "graph.hereditary_saturated_closure"}
FIELD_OPS = ("add", "sub", "mul", "neg", "div")
ROOT = "cli.main"
LAYERS = ("cli", "textio", "report", "graph", "center_theory", "oracle",
          "graph_algebra", "linalg")


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, request)
        self.aggregates = {}     # (name, parent id, request) -> [calls, seconds]
        self.stack = []          # open frames: [id, name, start, child seconds]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.request = 0
        self.requests = []       # argv of each request, by id - 1
        self._next_id = 0
        self._solved = set()

    def begin_request(self, argv):
        self.request += 1
        self.requests.append(list(argv))
        self._solved = set()

    def open(self, name):
        self._next_id += 1
        frame = [self._next_id, name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        parent_id = parent[0] if parent else None
        if parent:
            parent[3] += duration
        if name in AGGREGATED:
            agg = self.aggregates.setdefault((name, parent_id, self.request), [0, 0.0])
            agg[0] += 1
            agg[1] += duration
        else:
            self.spans.append((span_id, name, start, end, parent_id, self.request))

    def note_solve(self, g, window, field):
        key = (g.vertices, tuple(sorted(g.src.items())),
               tuple(sorted(g.rng.items())), window, field)
        if key in self._solved:
            self.counts["solve_repeats"] += 1
        self._solved.add(key)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for request, argv in enumerate(self.requests, 1):
                fh.write(json.dumps({"request": request, "argv": argv}) + "\n")
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")
            for (name, parent, request), (calls, secs) in self.aggregates.items():
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "request": request, "calls": calls,
                                     "total_s": secs}) + "\n")


def _observe(tracer, name, args, result):
    """Counts taken from a wrapped call's arguments and result."""
    c = tracer.counts
    if name == "graph.enumerate_hereditary_saturated":
        c["hereditary_sets"] += len(result)
    elif name == "graph.find_cycles":
        c["cycles"] += len(result)
    elif name == "graph.paths_into" and result is not None:
        c["feeding_paths"] += len(result)
    elif name == "center_theory.graded_prime_ideals":
        c["graded_primes"] += len(result)
    elif name == "oracle.enumerate_candidates":
        c["candidates"] += len(result)
    elif name == "graph_algebra.mul_monomials" and not result:
        c["zero_products"] += 1
    elif name == "linalg.sparse_nullspace":
        c["cols"] += args[1]
        c["nullity"] += len(result)
    elif name == "report.render":
        c["render_bytes"] += len(result.encode("utf-8"))


def _wrap(tracer, name, fn, cap_error):
    def counted_rows(rows):
        for row in rows:
            tracer.counts["rows"] += 1
            yield row

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == "linalg.sparse_nullspace":
            args = (counted_rows(args[0]),) + args[1:]
        elif name == "oracle.central_subspace":
            tracer.note_solve(args[0], args[1], kwargs.get("field"))
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except cap_error:
            if name == "oracle.enumerate_candidates":
                tracer.counts["cap_refusals"] += 1
            raise
        finally:
            tracer.close(frame)
        _observe(tracer, name, args, result)
        return result

    return wrapper


def _count(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    return wrapper


def install(tracer):
    """Wrap every traced name; returns a function that undoes it."""
    from pathcenters.errors import ResourceCapExceeded

    modules = [m for n, m in sys.modules.items()
               if n == "pathcenters" or n.startswith("pathcenters.")]
    undo = []

    def rebind(owner, key, wrapped):
        undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    for name, mod_name, attr in SPANNED:
        fn = getattr(sys.modules[f"pathcenters.{mod_name}"], attr)
        wrapped = _wrap(tracer, name, fn, ResourceCapExceeded)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    rebind(mod, key, wrapped)
    for name, mod_name, cls_name, meth in SPANNED_METHODS:
        cls = getattr(sys.modules[f"pathcenters.{mod_name}"], cls_name)
        rebind(cls, meth, _wrap(tracer, name, vars(cls)[meth], ResourceCapExceeded))
    scalars = sys.modules["pathcenters.scalars"]
    for cls in (scalars.RationalField, scalars.PrimeField):
        for op in FIELD_OPS:
            rebind(cls, op, _count(tracer.counts, "field_ops", vars(cls)[op]))
        rebind(cls, "inv", _count(tracer.counts, "inv_ops", vars(cls)["inv"]))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def per_layer(tracer):
    """The per-layer metrics; every key listed in BENCHMARK.json."""
    s, n, c = tracer.self_s, tracer.calls, tracer.counts
    secs = lambda v: {"value": v, "unit": "s"}
    count = lambda v: {"value": v, "unit": "count"}
    share = lambda num, den: {"value": num / den if den else 0.0, "unit": "share"}
    solves = n["oracle.central_subspace"]
    rank = c["cols"] - c["nullity"]
    layer = lambda prefix: secs(sum(v for k, v in s.items() if k.startswith(prefix)))
    return {
        **{f"layer.{name}.self_s": layer(name + ".") for name in LAYERS},
        "cli.main.self_s": secs(s[ROOT]),
        "graph.enumerate_hereditary_saturated.self_s": secs(s["graph.enumerate_hereditary_saturated"]),
        "graph.hereditary_saturated_closure.calls": count(n["graph.hereditary_saturated_closure"]),
        "graph.hereditary_saturated_closure.self_s": secs(s["graph.hereditary_saturated_closure"]),
        "graph.hereditary_sets": count(c["hereditary_sets"]),
        "graph.find_cycles.self_s": secs(s["graph.find_cycles"]),
        "graph.cycles": count(c["cycles"]),
        "graph.paths_into.self_s": secs(s["graph.paths_into"]),
        "graph.feeding_paths": count(c["feeding_paths"]),
        "graph.all_paths_up_to.self_s": secs(s["graph.all_paths_up_to"]),
        "graph.is_downward_directed.self_s": secs(s["graph.is_downward_directed"]),
        "center_theory.graded_prime_ideals.self_s": secs(s["center_theory.graded_prime_ideals"]),
        "center_theory.graded_primes": count(c["graded_primes"]),
        "center_theory.center_bounds.self_s": secs(s["center_theory.center_bounds"]),
        "center_theory.laurent_generator.calls": count(n["center_theory.laurent_generator"]),
        "center_theory.laurent_generator.self_s": secs(s["center_theory.laurent_generator"]),
        "center_theory.verify_bounds.self_s": secs(s["center_theory.verify_bounds"]),
        "oracle.central_subspace.calls": count(solves),
        "oracle.central_subspace.self_s": secs(s["oracle.central_subspace"]),
        "oracle.candidates": count(c["candidates"]),
        "oracle.enumerate_candidates.self_s": secs(s["oracle.enumerate_candidates"]),
        "oracle.centrality_witness.calls": count(n["oracle.centrality_witness"]),
        "oracle.centrality_witness.self_s": secs(s["oracle.centrality_witness"]),
        "oracle.verify_structure.self_s": secs(s["oracle.verify_structure"]),
        "oracle.cap_refusals": count(c["cap_refusals"]),
        "oracle.solve_repeat_ratio": share(c["solve_repeats"], solves),
        "graph_algebra.mul_monomials.calls": count(n["graph_algebra.mul_monomials"]),
        "graph_algebra.mul_monomials.self_s": secs(s["graph_algebra.mul_monomials"]),
        "graph_algebra.mul_monomials.zero_ratio": share(c["zero_products"], n["graph_algebra.mul_monomials"]),
        "graph_algebra.normal_form.calls": count(n["graph_algebra.normal_form"]),
        "graph_algebra.normal_form.self_s": secs(s["graph_algebra.normal_form"]),
        "graph_algebra.enumerate_ga_monomials.self_s": secs(s["graph_algebra.enumerate_ga_monomials"]),
        "graph_algebra.GAElement.mul.self_s": secs(s["graph_algebra.GAElement.mul"]),
        "path_algebra.KEElement.mul.calls": count(n["path_algebra.KEElement.mul"]),
        "linalg.sparse_nullspace.self_s": secs(s["linalg.sparse_nullspace"]),
        "linalg.rows": count(c["rows"]),
        "linalg.cols": count(c["cols"]),
        "linalg.nullity": count(c["nullity"]),
        "linalg.rank_ratio": share(rank, c["rows"]),
        "linalg.LinearSpan.self_s": secs(s["linalg.LinearSpan"]),
        "scalars.field_ops": count(c["field_ops"]),
        "scalars.inv_ops": count(c["inv_ops"]),
        "textio.parse_graph.self_s": secs(s["textio.parse_graph"]),
        "textio.element_to_text.self_s": secs(s["textio.element_to_text"]),
        "report.render.self_s": secs(s["report.render"]),
        "report.render.bytes": count(c["render_bytes"]),
    }
