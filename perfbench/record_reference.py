"""Record the reference exit code and stdout sha256 of every pool request.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``.  The benchmark counts a request
as failed when its exit code or output hash differs from this file.
"""

from __future__ import annotations

import json

import worker
import workloads


def main():
    workloads.write_graphs()
    cli, _ = worker.timed_import()
    reference = {}
    for make_pool in workloads.POOLS.values():
        for argv in make_pool():
            code, stdout, _ = worker.call(cli.main, argv)
            reference[workloads.request_key(argv)] = {
                "exit": code, "sha256": worker.sha256(stdout)}
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} requests recorded")


if __name__ == "__main__":
    main()
