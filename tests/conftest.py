import pathlib
from unittest.mock import patch

import pytest

from pathcenters import Graph, oracle
from pathcenters.linalg import sparse_nullspace

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.graph"


def two_loops() -> Graph:
    return Graph.build(["u1", "u2"], [("c", "u1", "u1"), ("d", "u2", "u2")])


def feeder_loop() -> Graph:
    # u -> v plus an exit-free loop at v
    return Graph.build(["u", "v"], [("f", "u", "v"), ("c", "v", "v")])


def cycle_feeds_loop() -> Graph:
    # loop-with-exit d at u feeding the exit-free loop c at v
    return Graph.build(
        ["u", "v"],
        [("d", "u", "u"), ("g", "u", "v"), ("c", "v", "v")],
    )


def fork_sink_loop() -> Graph:
    # u feeds both a sink w and an exit-free loop at v
    return Graph.build(
        ["u", "v", "w"],
        [("f", "u", "v"), ("g", "u", "w"), ("c", "v", "v")],
    )


def solver_calls(g, window, field):
    """`oracle.central_subspace`'s result and the (rows, ncols) of every
    system its solver received."""
    calls = []

    def recording(rows, ncols, field):
        rows = list(rows)
        calls.append((rows, ncols))
        return sparse_nullspace(rows, ncols, field)

    with patch.object(oracle, "sparse_nullspace", recording):
        sub = oracle.central_subspace(g, window, field=field)
    return sub, calls
