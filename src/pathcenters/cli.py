"""Command-line surface: analyze, center, gprimes, oracle, declared once in
`COMMANDS`.  `_parse` reads plain command lines; argparse, built from the same
table and imported only then, reads help, usage errors and every other form.

Exit codes: 0 success, 1 usage or parse error, 2 a requested theorem's
hypotheses fail (still reported structurally), 3 resource cap exceeded,
4 an internal invariant failed (a bug: a theorem, a constructed generator or
the oracle disagreed with a consistency check).
"""

from __future__ import annotations

import functools
import re
import sys
from types import SimpleNamespace

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


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_ALGEBRA = ("--algebra", {"choices": ("path", "cohn", "leavitt"), "required": True})
_CHAR = ("--char", {"type": int, "default": 0})
_EXCLUSIVE = {"--deg", "--deg-window"}

# The option table: command -> (handler, help, options), an option being
# (name, argparse keywords); every command also takes `file` and `--format`.
COMMANDS = {
    "analyze": (cmd_analyze, "graph predicates", ()),
    "center": (cmd_center, "structural center via the matching theorem", (
        _ALGEBRA, ("--char", {**_CHAR[1], "help":
                              "field characteristic (0 = exact rationals)"}))),
    "gprimes": (cmd_gprimes, "graded prime ideals and center bounds", (_CHAR,)),
    "oracle": (cmd_oracle, "bounded brute-force centralizer", (
        _ALGEBRA, ("--max-len", {"type": int, "required": True}),
        ("--deg", {"type": int}),
        ("--deg-window", {"type": int, "nargs": 2, "metavar": ("A", "B")}),
        ("--verify", {"action": "store_true", "default": False, "help":
                      "check the structural claim against the oracle"}),
        _CHAR)),
}
# what argparse reads as a value: no leading `-`, a lone `-`, or a negative number
_VALUE = re.compile(r"(?!-)|-\Z|^-\d+$|^-\d*\.\d+$")


def _parse(argv):
    """The namespace argparse gives for a plain command line, else None: a
    command, one file and exact option names, each once, with `_VALUE` values.
    Help, abbreviations, `--opt=value`, repeats, `--` and errors are argparse's."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    table = dict((_FORMAT, *options))
    given, tokens = {}, iter(argv[1:])  # "file" and option names
    for tok in tokens:
        kw = table.get(tok)
        if kw is None and "file" not in given and _VALUE.match(tok):
            given["file"] = tok
            continue
        if kw is None or tok in given:
            return None
        count = kw.get("nargs", 0 if "action" in kw else 1)
        values = [next(tokens, "--") for _ in range(count)]  # "--" if missing
        if not all(map(_VALUE.match, values)):
            return None
        try:
            values = [kw.get("type", str)(v) for v in values]
        except ValueError:
            return None
        if "choices" in kw and values[0] not in kw["choices"]:
            return None
        given[tok] = values if "nargs" in kw else values[0] if values else True
    if "file" not in given or _EXCLUSIVE <= given.keys() or any(
            kw.get("required") and name not in given for name, kw in table.items()):
        return None
    return SimpleNamespace(command=argv[0], file=given["file"], func=func, **{
        name[2:].replace("-", "_"): given.get(name, kw.get("default"))
        for name, kw in table.items()})


@functools.cache
def build_parser():
    """The argparse parser of the option table, built once per process:
    parsing a command line keeps no state in it, so every call to `main`
    can reuse it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = _Parser(prog="pathcenters",
                     description="Exact centers of path, Cohn and Leavitt "
                                 "path algebras of finite graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("file", help="graph file")
        group = (p.add_mutually_exclusive_group()
                 if _EXCLUSIVE & {name for name, _ in options} else None)
        for name, kw in (_FORMAT, *options):
            (group if name in _EXCLUSIVE else p).add_argument(name, **kw)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
