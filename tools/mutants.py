"""Mutation runner: which one-operator changes of a module the tests miss.

    python tools/mutants.py src/pathcenters/graph.py --only paths_into \\
        --fast tests/test_graph.py --out survivors.txt

Each mutant changes one operator of the module: a comparison flipped (==
and !=, < and <=, > and >=, in and not in, is and is not), `and` and `or`
swapped, a `not` dropped, an int constant plus 1, or + and - swapped (in
`+=` and `-=` too).  `--only` limits the changes to the named functions
or classes; a class covers its methods, and `Class.method` names one.

The repository is copied once into a temporary directory, and each mutant
is written into that copy, never into the working tree.  A mutant first
runs the `--fast` pytest arguments (default: the whole suite), and if
they pass, the whole suite; a failure, an error or a timeout kills it.
The mutants that pass both are written to `--out`, one a line, as
`path:line:col  description  [enclosing definition]`.  Runs are
sequential, under a fixed Hypothesis seed, with an address-space limit on
each pytest child.  Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "fixtures", "perfbench", "pyproject.toml", "README.md")
FLIPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SIGNS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
           ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
           ast.IsNot: "is not", ast.And: "and", ast.Or: "or", ast.Add: "+",
           ast.Sub: "-"}
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
MEMORY_LIMIT = 4 << 30


def mutations(node):
    """(description, mutated copy of `node`) for each change of `node` itself."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIPS:
                new = copy.deepcopy(node)
                new.ops[i] = FLIPS[type(op)]()
                out.append((f"{SYMBOLS[type(op)]} -> {SYMBOLS[type(new.ops[i])]}", new))
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        out.append((f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[type(new.op)]}", new))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        out.append(("not dropped", copy.deepcopy(node.operand)))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out.append((f"{node.value} -> {node.value + 1}", ast.Constant(node.value + 1)))
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SIGNS:
        new = copy.deepcopy(node)
        new.op = SIGNS[type(node.op)]()
        out.append((f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[type(new.op)]}", new))
    return out


def sites(source, only):
    """(line, col, end_line, end_col, description, replacement, scope) for
    every mutation inside the definitions named in `only` (all if empty)."""
    found = []

    def visit(node, scope, inside):
        if isinstance(node, ast.JoinedStr):
            return  # f-string parts carry no usable positions
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            inside = inside or scope in only or node.name in only
        elif inside and hasattr(node, "end_col_offset"):
            for description, new in mutations(node):
                text = ast.unparse(new)
                if not isinstance(node, ast.stmt):
                    text = f"({text})"
                found.append((node.lineno, node.col_offset, node.end_lineno,
                              node.end_col_offset, description, text, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, inside)

    visit(ast.parse(source), "", not only)
    return found


def splice(source, site):
    """`source` with the site's span replaced; columns count UTF-8 bytes."""
    line, col, end_line, end_col, _, text, _ = site
    lines = source.encode().splitlines(keepends=True)
    start = sum(map(len, lines[:line - 1])) + col
    end = sum(map(len, lines[:end_line - 1])) + end_col
    data = source.encode()
    return (data[:start] + text.encode() + data[end:]).decode()


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(workdir, args, timeout):
    """True when pytest passes on `args` in `workdir` within `timeout` s."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(PYTEST + args, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    if proc.returncode == 5:
        sys.exit(f"mutants: pytest collected no tests from {args}")
    return proc.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module path, relative to the repository")
    parser.add_argument("--only", action="append", default=[],
                        help="a function, class or Class.method to mutate")
    parser.add_argument("--fast", nargs="+", default=["tests"],
                        help="pytest arguments of the fast subset")
    parser.add_argument("--out", required=True, help="file for the survivors")
    args = parser.parse_args(argv)

    path = os.path.normpath(args.module)
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        original = fh.read()
    found = sites(original, set(args.only))
    print(f"{len(found)} mutants in {path}", flush=True)
    survivors, fast_kills, full_kills = [], 0, 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(tmp, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            elif os.path.exists(src):
                shutil.copy(src, dst)
        target = os.path.join(tmp, path)
        limits = {}
        for key, tests in (("fast", args.fast), ("full", ["tests"])):
            t0 = time.monotonic()
            if not run_tests(tmp, tests, None):
                sys.exit(f"mutants: the unmutated copy fails {tests}")
            limits[key] = 5 * (time.monotonic() - t0) + 30
        for site in found:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(splice(original, site))
            line, col, _, _, description, _, scope = site
            label = f"{path}:{line}:{col}  {description}  [{scope}]"
            if not run_tests(tmp, args.fast, limits["fast"]):
                fast_kills += 1
            elif not run_tests(tmp, ["tests"], limits["full"]):
                full_kills += 1
            else:
                survivors.append(label)
                print("survived:", label, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\n" for s in survivors)
    print(f"{len(found)} mutants: {fast_kills} killed by the fast subset, "
          f"{full_kills} more by the whole suite, {len(survivors)} survived")


if __name__ == "__main__":
    main()
