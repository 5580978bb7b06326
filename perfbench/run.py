"""Benchmark of the pathcenters command line; run from the repository root.

    python3 perfbench/run.py --workload oracle-qq --seed 1 --seconds 32 --trace 0

Each workload is a closed loop with one client and no think time: the next
request goes out when the previous one has returned, as for a user waiting
on each verdict.  Requests are in-process calls to
``pathcenters.cli.main(argv)`` in a fresh child process; see ``README.md``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Lines before it give
the same figures for a reader, with diagnostics that are not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
IMPORT_SAMPLES = 7
TIME_LIMIT_S = 170


class Children:
    """Starts worker children one at a time, within one overall deadline."""

    def __init__(self, limit_s):
        self.deadline = time.monotonic() + limit_s

    def run(self, args, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            sys.exit("perfbench: out of time before the next child")
        proc = subprocess.run([sys.executable, WORKER, *args], env=env,
                              capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            sys.exit(f"perfbench: worker {args[0]} failed:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(result, import_samples):
    passes = result["passes"]
    latencies = sorted(x for p in passes for x in p["latencies"])
    wall = sum(p["wall_s"] for p in passes)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "requests_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(import_samples), "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024, "unit": "MiB"},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "pathcenters", "cli.py")):
        sys.exit("perfbench: run from the repository root; src/pathcenters is missing")

    children = Children(TIME_LIMIT_S)
    workloads.write_graphs()
    children.run(["import"], 0)  # compiles bytecode; not a sample
    import_samples = [children.run(["import"], 0)["import_s"]
                      for _ in range(IMPORT_SAMPLES)]
    spans = os.path.join(workloads.WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    result = children.run(["run", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--spans", spans], 0)
    import_samples.append(result["import_s"])

    # A seeded sample under another hash seed must give the same bytes.
    hash_seed = 1 + args.seed % 1000
    det = children.run(["determinism", "--workload", args.workload,
                        "--seed", str(args.seed)], hash_seed)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"requests attempted {attempted}  failed {failed}  "
          f"failed_share {failed / attempted:.6f} share")
    print(f"determinism: {det['checked']} requests under PYTHONHASHSEED="
          f"{hash_seed}, {len(det['differ'])} differ {det['differ']}")
    before, after = result["calibration_s"]
    print(f"diagnostic calibration_loop_s before {before:.4f} after {after:.4f}")
    if args.trace:
        metrics = result["metrics"]
        print(f"tracing: untraced pass {result['untraced_s']:.3f} s, traced pass "
              f"{result['traced_s']:.3f} s, overhead "
              f"{result['traced_s'] - result['untraced_s']:.3f} s; "
              f"{result['spans']} spans written to {spans}")
    else:
        metrics = end_to_end(result, import_samples)
        walls = [p["wall_s"] for p in result["passes"]]
        print(f"samples: {attempted} requests in {len(walls)} passes of "
              f"{' '.join(f'{w:.2f}' for w in walls)} s, "
              f"{len(import_samples)} imports")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")

    with open(os.path.join(workloads.WORK_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "attempted": attempted,
                             "failed": failed, "calibration_s": [before, after],
                             "metrics": metrics}) + "\n")
    print(json.dumps({"correct": failed == 0 and not det["differ"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
