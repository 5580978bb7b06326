"""Every benchmark request still gives its recorded output.

`perfbench/reference.json` holds the exit code and stdout sha256 of each
request in the pools of `perfbench/workloads.py`.  This test replays all
of them through `cli.main` in a temporary directory, with the default
monomial cap.  It only reads `perfbench/`."""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys

from pathcenters import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_pool_request_matches_the_benchmark_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PATHCENTERS_MAX_MONOMIALS", raising=False)
    workloads.write_graphs()
    replayed, differing = 0, []
    for pool in workloads.POOLS.values():
        for argv in pool():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            key = workloads.request_key(argv)
            if reference[key] != {"exit": code, "sha256": digest}:
                differing.append(key)
            replayed += 1
    assert replayed == 502 and differing == []
