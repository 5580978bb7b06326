"""Graph families and request pools for the three benchmark workloads.

Every graph is generated here as graph-file text, so the benchmark depends
on nothing in the repository but the package under test.  A request is an
argv list for ``pathcenters.cli.main`` whose graph path points into the
work directory; the path is part of the report, so it is fixed.
"""

from __future__ import annotations

import os
import random

WORK_DIR = ".perfbench_work"
GRAPH_DIR = f"{WORK_DIR}/graphs"
MODP = 65521

# The fixture graphs of the paper's examples: name -> (vertices, edges).
FIXTURES = {
    "rose_1": (["v"], [("f1", "v", "v")]),
    "rose_2": (["v"], [("f1", "v", "v"), ("f2", "v", "v")]),
    "rose_3": (["v"], [("f1", "v", "v"), ("f2", "v", "v"), ("f3", "v", "v")]),
    "toeplitz": (["u", "v"], [("e", "u", "u"), ("f", "u", "v")]),
    "feeder_loop": (["u", "v"], [("f", "u", "v"), ("c", "v", "v")]),
    "cycle_feeds_loop": (["u", "v"], [("d", "u", "u"), ("g", "u", "v"),
                                      ("c", "v", "v")]),
    "fork_sink_loop": (["u", "v", "w"], [("f", "u", "v"), ("g", "u", "w"),
                                         ("c", "v", "v")]),
    "cycle2_plus_vertex": (["u1", "u2", "w"], [("f1", "u1", "u2"),
                                               ("f2", "u2", "u1")]),
    "two_loops": (["u1", "u2"], [("c", "u1", "u1"), ("d", "u2", "u2")]),
    "cycle_2": (["u1", "u2"], [("f1", "u1", "u2"), ("f2", "u2", "u1")]),
    "cycle_3": (["u1", "u2", "u3"], [("f1", "u1", "u2"), ("f2", "u2", "u3"),
                                     ("f3", "u3", "u1")]),
    "cycle_4": (["u1", "u2", "u3", "u4"], [("f1", "u1", "u2"), ("f2", "u2", "u3"),
                                           ("f3", "u3", "u4"), ("f4", "u4", "u1")]),
    "line_2": (["u1", "u2"], [("f1", "u1", "u2")]),
    "line_3": (["u1", "u2", "u3"], [("f1", "u1", "u2"), ("f2", "u2", "u3")]),
}


def graph_text(vertices, edges) -> str:
    lines = ["vertices: " + " ".join(vertices)]
    lines += [f"edge {e}: {s} -> {r}" for e, s, r in edges]
    return "\n".join(lines) + "\n"


def line(n):
    vs = [f"u{i}" for i in range(1, n + 1)]
    return vs, [(f"f{i}", f"u{i}", f"u{i + 1}") for i in range(1, n)]


def loops(k):
    vs = [f"u{i}" for i in range(1, k + 1)]
    return vs, [(f"c{i}", f"u{i}", f"u{i}") for i in range(1, k + 1)]


def ladder(rungs):
    """A line of doubled edges into an exit-free loop: 2^(rungs+1) - 1
    feeding paths."""
    vs = [f"x{i}" for i in range(rungs + 1)]
    es = []
    for i in range(rungs):
        es += [(f"a{i}", f"x{i}", f"x{i + 1}"), (f"b{i}", f"x{i}", f"x{i + 1}")]
    es.append(("c", f"x{rungs}", f"x{rungs}"))
    return vs, es


def complete(n, loop=False):
    vs = [f"u{i}" for i in range(1, n + 1)]
    es = [(f"e{i}_{j}", f"u{i}", f"u{j}")
          for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if loop:
        es.append(("c", "u1", "u1"))
    return vs, es


def random_graph(n, graph_seed):
    """Sparse random digraph: each vertex emits 0-2 edges to random targets,
    loops included.  ``graph_seed`` fixes it; the pool holds a fixed set."""
    r = random.Random(f"random-graph-{n}-{graph_seed}")
    vs = [f"u{i}" for i in range(1, n + 1)]
    es = []
    for v in vs:
        for k in range(r.choice((0, 1, 1, 2))):
            es.append((f"e{v[1:]}_{k}", v, r.choice(vs)))
    return vs, es


def all_graphs():
    """Every graph any workload may use, by name."""
    out = dict(FIXTURES)
    for n in (8, 10, 12, 14, 16, 17):
        out[f"line_{n}"] = line(n)
    for k in (4, 6, 8, 10, 12):
        out[f"loops_{k}"] = loops(k)
    for r in (2, 3, 4, 8):
        out[f"ladder_{r}"] = ladder(r)
    for n in (3, 4, 5, 6):
        out[f"complete_{n}"] = complete(n)
    out["complete_2"] = complete(2)
    out["complete_3_loop"] = complete(3, loop=True)
    for n in (10, 12, 14):
        for s in range(4 if n < 14 else 2):
            out[f"random_{n}_{s}"] = random_graph(n, s)
    return out


def graph_path(name) -> str:
    return f"{GRAPH_DIR}/{name}.graph"


def write_graphs():
    os.makedirs(GRAPH_DIR, exist_ok=True)
    for name, (vertices, edges) in all_graphs().items():
        with open(graph_path(name), "w", encoding="utf-8") as fh:
            fh.write(graph_text(vertices, edges))


def _oracle_items(char):
    """Windows for the oracle workloads: (graph, algebra, max_len, degree
    filter or None)."""
    items = []
    for name in ("rose_1", "rose_2"):
        for alg in ("leavitt", "cohn"):
            items += [(name, alg, n, None) for n in (2, 3, 4)]
            items += [(name, alg, 3, ["--deg", "0"]), (name, alg, 3, ["--deg", "1"])]
    # rose_3 stops at window 3: window 4 takes seconds per request.
    items += [("rose_3", alg, n, None) for alg in ("leavitt", "cohn") for n in (2, 3)]
    items += [("rose_3", alg, 3, ["--deg", "0"]) for alg in ("leavitt", "cohn")]
    for name in ("toeplitz", "feeder_loop", "cycle_feeds_loop", "fork_sink_loop",
                 "cycle2_plus_vertex", "two_loops", "complete_2"):
        items += [(name, "leavitt", n, None) for n in (2, 3, 4)]
        items += [(name, "leavitt", 3, ["--deg", d]) for d in ("-1", "0", "1")]
        items.append((name, "leavitt", 4, ["--deg-window", "-1", "1"]))
    for name in ("cycle_2", "cycle_3", "cycle_4", "line_2", "line_3", "complete_2",
                 "complete_3"):
        items += [(name, "path", n, None) for n in (2, 3, 4)]
        items += [(name, "path", 3, ["--deg", "1"]), (name, "path", 4, ["--deg", "2"])]
    items += [("complete_3_loop", "leavitt", 2, None),
              ("complete_3_loop", "leavitt", 2, ["--deg", "0"])]
    out = []
    for name, alg, n, degrees in items:
        argv = ["oracle", graph_path(name), "--algebra", alg, "--max-len", str(n)]
        argv += (degrees or []) + ["--verify", "--format", "json"]
        if char:
            argv += ["--char", str(char)]
        out.append(argv)
    return out


def _structure_items():
    """Every command in both formats on the cheap graphs; one or two commands
    on the graphs where one request takes a large share of a pass."""
    commands = [["analyze"], ["center", "--algebra", "path"],
                ["center", "--algebra", "cohn"], ["center", "--algebra", "leavitt"],
                ["gprimes"]]
    cheap = (["toeplitz", "feeder_loop", "cycle_feeds_loop", "fork_sink_loop",
              "cycle2_plus_vertex", "two_loops", "rose_2", "cycle_3"]
             + [f"line_{n}" for n in (8, 10, 12)]
             + [f"loops_{k}" for k in (4, 6, 8, 10)]
             + [f"ladder_{r}" for r in (2, 3, 4)]
             + [f"complete_{n}" for n in (3, 4, 5, 6)]
             + [f"random_10_{s}" for s in range(4)])
    out = []
    for name in cheap:
        for fmt in ("text", "json"):
            for cmd in commands:
                out.append([cmd[0], graph_path(name), *cmd[1:], "--format", fmt])
    heavy = [("line_14", ["gprimes"], "json"), ("line_16", ["analyze"], "text"),
             ("line_16", ["gprimes"], "json"),
             ("loops_12", ["gprimes"], "json"), ("random_12_0", ["analyze"], "text"),
             ("random_12_1", ["center", "--algebra", "leavitt"], "json"),
             ("random_12_2", ["analyze"], "json"), ("random_12_3", ["gprimes"], "text"),
             ("random_14_0", ["analyze"], "text"), ("random_14_0", ["gprimes"], "json"),
             ("random_14_1", ["center", "--algebra", "leavitt"], "json"),
             ("random_14_1", ["analyze"], "json"), ("loops_12", ["analyze"], "text"),
             # Edge cases that end in exit 3 (resource cap) at the seed commit.
             ("line_17", ["gprimes"], "json"),
             ("ladder_8", ["center", "--algebra", "leavitt"], "json"),
             ("ladder_8", ["gprimes"], "json")]
    for name, cmd, fmt in heavy:
        out.append([cmd[0], graph_path(name), *cmd[1:], "--format", fmt])
    # One small check of each verification path, so no traced layer is idle.
    for name in ("feeder_loop", "two_loops"):
        out.append(["oracle", graph_path(name), "--algebra", "leavitt",
                    "--max-len", "2", "--verify", "--format", "json"])
    return out


POOLS = {
    "oracle-qq": lambda: _oracle_items(0),
    "oracle-modp": lambda: _oracle_items(MODP),
    "structure-scale": _structure_items,
}


def request_key(argv) -> str:
    return " ".join(argv)


def request_stream(workload, seed):
    """Endless closed-loop request sequence: the pool shuffled by the seed,
    pass after pass, so every run sees the same mix in another order."""
    pool = POOLS[workload]()
    rng = random.Random(f"{workload}-{seed}")
    while True:
        deck = list(pool)
        rng.shuffle(deck)
        yield from deck
