"""Command-line surface: analyze, center, gprimes, oracle.

Exit codes: 0 success, 1 usage or parse error, 2 a requested theorem's
hypotheses fail (still reported structurally), 3 resource cap exceeded,
4 an internal invariant failed (a bug: a theorem, a constructed generator or
the oracle disagreed with a consistency check).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import center_theory as ct
from . import report as rpt
from .errors import (
    GraphError,
    HypothesisNotMet,
    InvariantViolation,
    ParseError,
    PathcentersError,
    ResourceCapExceeded,
    WordError,
)
from .graph import Graph
from .graph_algebra import Algebra
from .oracle import OracleWindow, central_subspace, verify_structure
from .scalars import field_from_characteristic
from .textio import parse_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(rpt.render_json(report))
    else:
        sys.stdout.write(rpt.render_text(report))


def cmd_analyze(args):
    g = _load_graph(args.file)
    report = rpt.new_report("analyze", g, args.file)
    report["sections"]["graph-predicates"] = rpt.predicates_section(g)
    report["sections"]["primeness"] = rpt.primeness_section(g)
    return report, EXIT_OK


def _leavitt_classification(g):
    """The prime Leavitt classification of the graph, or None if not prime."""
    return ct.classify_prime_leavitt(g) if ct.is_prime_leavitt(g) else None


def _prime_claim(alg, cls=None):
    """The structural center claim in `alg` when it is prime, else None.

    KE always has one; Cohn and Leavitt algebras only when prime.  `cls` is
    the Leavitt classification when the caller already has it."""
    if alg.kind == "path":
        return ct.center_structure_KE(alg)
    if alg.kind == "cohn":
        return ct.center_prime_cohn(alg) if ct.is_prime_cohn(alg.graph) else None
    cls = cls or _leavitt_classification(alg.graph)
    return ct.center_prime_leavitt(alg, cls) if cls else None


def cmd_center(args):
    g = _load_graph(args.file)
    alg = Algebra(args.algebra, g, field=field_from_characteristic(args.char))
    report = rpt.new_report("center", g, args.file)
    code = EXIT_OK
    cls = _leavitt_classification(g) if args.algebra == "leavitt" else None
    claim = _prime_claim(alg, cls)
    if claim is not None:
        block = {"algebra": args.algebra, **rpt.structure_block(claim)}
        if cls is not None:
            block["exit_free_cycle_counts"] = rpt.cycle_counts_block(cls)
        report["sections"]["center-structure"] = block
    elif args.algebra == "cohn":
        rpt.add_notice(report, "Cohn path algebra is not prime "
                               "(|E^0| != 1); no structure theorem applies")
        code = EXIT_HYPOTHESIS
    else:
        rpt.add_notice(report, "Leavitt path algebra is not prime "
                               "(not downward directed); reporting the "
                               "center bounds instead")
        bounds = ct.center_bounds(alg)
        report["sections"]["graded-primes"] = rpt.graded_primes_section(
            bounds.records)
        report["sections"]["bounds"] = rpt.bounds_section(bounds)
        code = EXIT_HYPOTHESIS
    return report, code


def cmd_gprimes(args):
    g = _load_graph(args.file)
    alg = Algebra("leavitt", g, field=field_from_characteristic(args.char))
    report = rpt.new_report("gprimes", g, args.file)
    bounds = ct.center_bounds(alg)
    report["sections"]["graded-primes"] = rpt.graded_primes_section(bounds.records)
    report["sections"]["bounds"] = rpt.bounds_section(bounds)
    return report, EXIT_OK


def cmd_oracle(args):
    g = _load_graph(args.file)
    field = field_from_characteristic(args.char)
    if args.deg is not None:
        degrees = (args.deg, args.deg)
    elif args.deg_window is not None:
        degrees = tuple(args.deg_window)
    else:
        degrees = None
    try:
        window = OracleWindow(args.algebra, args.max_len, degrees)
    except PathcentersError as exc:
        raise ParseError(str(exc)) from exc
    report = rpt.new_report("oracle", g, args.file)
    code = EXIT_OK
    subspace = central_subspace(g, window, field=field)
    section = rpt.oracle_section(subspace)
    if args.verify:
        claim = _prime_claim(subspace.algebra)
        if claim is not None:
            section["verification"] = rpt.verification_block(
                verify_structure(claim, subspace))
        elif args.algebra == "cohn":
            rpt.add_notice(report, "no structural claim to verify: "
                                   "Cohn path algebra is not prime")
            code = EXIT_HYPOTHESIS
        else:
            section["verification"] = rpt.bounds_verification_block(
                ct.verify_bounds(subspace))
    report["sections"]["oracle-verification"] = section
    return report, code


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing a command line
    keeps no state in it, so every call to `main` can reuse it."""
    parser = _Parser(prog="pathcenters",
                     description="Exact centers of path, Cohn and Leavitt "
                                 "path algebras of finite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="graph file")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("analyze", help="graph predicates")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("center", help="structural center via the matching theorem")
    common(p)
    p.add_argument("--algebra", choices=["path", "cohn", "leavitt"],
                   required=True)
    p.add_argument("--char", type=int, default=0,
                   help="field characteristic (0 = exact rationals)")
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("gprimes", help="graded prime ideals and center bounds")
    common(p)
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(func=cmd_gprimes)

    p = sub.add_parser("oracle", help="bounded brute-force centralizer")
    common(p)
    p.add_argument("--algebra", choices=["path", "cohn", "leavitt"],
                   required=True)
    p.add_argument("--max-len", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--deg", type=int)
    group.add_argument("--deg-window", type=int, nargs=2, metavar=("A", "B"))
    p.add_argument("--verify", action="store_true",
                   help="check the structural claim against the oracle")
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        report, code = args.func(args)
    except ResourceCapExceeded as exc:
        print(f"pathcenters: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except HypothesisNotMet as exc:
        print(f"pathcenters: hypothesis not met: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InvariantViolation as exc:
        print(f"pathcenters: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ParseError, GraphError, WordError, ValueError) as exc:
        print(f"pathcenters: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
