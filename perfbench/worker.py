"""One benchmark child process; ``run.py`` starts it and reads its last line.

Modes:
  import       time ``import pathcenters.cli`` in this fresh interpreter
  run          the closed loop for one workload (``--trace`` adds a traced pass)
  determinism  hash the outputs of a seeded sample of requests

Requests are in-process calls to ``pathcenters.cli.main(argv)`` with stdout
and stderr captured, so interpreter start is paid once, by set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
MIN_PASSES = 2
DETERMINISM_SAMPLE = 8


def calibration_loop():
    """A fixed pure-Python loop; its time shows host speed, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(list(argv))
        t1 = time.perf_counter()
    return code, out.getvalue(), t1 - t0


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def timed_import():
    t0 = time.perf_counter()
    import pathcenters.cli as cli
    return cli, time.perf_counter() - t0


class Checker:
    """Compares every request with the reference; keeps one copy of each
    distinct output for the schema and verification checks."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.outputs = {}  # (key, sha) -> [argv, stdout, requests]

    def record(self, argv, code, stdout):
        key = workloads.request_key(argv)
        digest = sha256(stdout)
        ref = self.reference.get(key)
        self.attempted += 1
        if ref is None or ref["exit"] != code or ref["sha256"] != digest:
            self.failed += 1
            return
        entry = self.outputs.setdefault((key, digest), [argv, stdout, 0])
        entry[2] += 1

    def check_outputs(self, schema):
        """Schema and ``--verify`` checks, once per distinct output."""
        import jsonschema

        validator = jsonschema.Draft202012Validator(schema)
        for argv, stdout, requests in self.outputs.values():
            if "json" not in argv or not stdout:
                continue
            report = json.loads(stdout)
            bad = not validator.is_valid(report)
            if "--verify" in argv:
                block = report["sections"].get("oracle-verification", {})
                bad = bad or block.get("verification", {}).get("ok") is not True
            if bad:
                self.failed += requests


def run_requests(main, argvs, checker):
    latencies = []
    for argv in argvs:
        code, stdout, secs = call(main, argv)
        latencies.append(secs)
        checker.record(argv, code, stdout)
    return latencies


def closed_loop(main, workload, seed, seconds, checker):
    """Whole passes over the seeded deck until `seconds` have elapsed and at
    least MIN_PASSES passes are done, so every pool item runs equally often.
    Returns each pass's wall time and request latencies."""
    stream = workloads.request_stream(workload, seed)
    pass_len = len(workloads.POOLS[workload]())
    passes = []
    t0 = time.perf_counter()
    while True:
        deck = [next(stream) for _ in range(pass_len)]
        p0 = time.perf_counter()
        latencies = run_requests(main, deck, checker)
        passes.append({"wall_s": time.perf_counter() - p0, "latencies": latencies})
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            return passes


def traced_run(main, args, checker):
    """One untraced and one traced pass over the same seeded deck."""
    import tracing

    stream = workloads.request_stream(args.workload, args.seed)
    deck = [next(stream) for _ in workloads.POOLS[args.workload]()]
    t0 = time.perf_counter()
    run_requests(main, deck, checker)
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        for argv in deck:
            tracer.begin_request(argv)
            frame = tracer.open(tracing.ROOT)
            try:
                code, stdout, _ = call(main, argv)
            finally:
                tracer.close(frame)
            checker.record(argv, code, stdout)
        traced = time.perf_counter() - t0
    finally:
        uninstall()
    tracer.write(args.spans)
    metrics = tracing.per_layer(tracer)
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return {"metrics": metrics, "untraced_s": untraced, "traced_s": traced,
            "spans": len(tracer.spans)}


def mode_run(args):
    cli, import_s = timed_import()
    from pathcenters.report import load_schema

    checker = Checker(load_reference())
    calib_before = calibration_loop()
    result = {"import_s": import_s}
    if args.trace:
        result.update(traced_run(cli.main, args, checker))
    else:
        passes = closed_loop(cli.main, args.workload, args.seed, args.seconds,
                             checker)
        result.update(passes=passes,
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    calib_after = calibration_loop()
    checker.check_outputs(load_schema())
    result.update(attempted=checker.attempted, failed=checker.failed,
                  calibration_s=[calib_before, calib_after])
    return result


def mode_determinism(args):
    """Hashes of a seeded pool sample that differ from the reference."""
    import random

    pool = workloads.POOLS[args.workload]()
    sample = random.Random(f"determinism-{args.seed}").sample(pool, DETERMINISM_SAMPLE)
    reference = load_reference()
    cli, _ = timed_import()
    differ = [workloads.request_key(argv) for argv in sample
              if sha256(call(cli.main, argv)[1])
              != reference[workloads.request_key(argv)]["sha256"]]
    return {"checked": len(sample), "differ": differ}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["import", "run", "determinism"])
    p.add_argument("--workload", choices=sorted(workloads.POOLS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int)
    p.add_argument("--spans")
    args = p.parse_args()
    if args.mode == "import":
        result = {"import_s": timed_import()[1]}
    elif args.mode == "run":
        result = mode_run(args)
    else:
        result = mode_determinism(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
