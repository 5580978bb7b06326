"""The option table's plain-line reader against argparse.

`cli._parse` reads plain command lines straight from `cli.COMMANDS`; the
argparse parser built from the same table reads everything else.  Wherever
`_parse` answers, argparse must give the same namespace; the benchmark's
traffic must never fall back to argparse; and help and usage errors keep
their bytes."""

import contextlib
import importlib.util
import io
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from pathcenters import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILE = "rose_1.graph"
OPTIONS = sorted({name for _, _, options in cli.COMMANDS.values()
                  for name, _ in (cli._FORMAT, *options)})
PLAIN = ["text", "json", "path", "cohn", "leavitt", "0", "1", "2", "65521",
         "-1", "-3", FILE, "-"]
# what only argparse reads, or what neither accepts
HOSTILE = ["", "-h", "--help", "--", "--max", "--ver", "--form", "--max-len=2",
           "--format=json", "--deg=-1", "--bogus", "-x", "-x y", "-1_0", "-1\n",
           "-.5", "-0.5", "0x10", "0o7", "1_000", " 7 ", "+3", "\u0663", "lie",
           "extra.graph"]
TOKENS = st.sampled_from([*cli.COMMANDS, *OPTIONS, *PLAIN, *HOSTILE])


def _argparse_vars(argv):
    """`vars` of argparse's namespace for `argv`, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@st.composite
def command_lines(draw):
    """Mostly a command, then shuffled chunks: the file and the command's
    options with good values, sometimes repeated, missing or hostile; else
    a list of any tokens."""
    if not draw(st.integers(0, 5)):
        return draw(st.lists(TOKENS, max_size=8))
    command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    _, _, options = cli.COMMANDS.get(command, (None, None, ()))
    files = [FILE] if draw(st.integers(0, 3)) else [*PLAIN, *HOSTILE]
    chunks = [[draw(st.sampled_from(files))]] if draw(st.integers(0, 7)) else []
    for name, kw in (cli._FORMAT, *options):
        times = [1] * 7 + [0, 2] if kw.get("required") else [0, 0, 0, 1, 1, 1, 2]
        for _ in range(draw(st.sampled_from(times))):
            good = kw.get("choices") or ["0", "2", "-1", "65521"]
            count = kw.get("nargs", 0 if "action" in kw else 1)
            chunks.append([name, *(draw(st.sampled_from(
                good if draw(st.integers(0, 5)) else HOSTILE)) for _ in range(count))])
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        chunks.append(draw(st.lists(TOKENS, min_size=1, max_size=2)))
    argv = [command, *(tok for chunk in draw(st.permutations(chunks))
                       for tok in chunk)]
    if len(argv) > 1 and not draw(st.integers(0, 7)):
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example(["analyze", "-x"])
@example(["gprimes", FILE, "--char", "-1_0"])
@example(["center", FILE, "--algebra", "lie"])
@example(["center", FILE, "--char", "2"])
@example(["oracle", FILE, "--algebra", "path", "--max-len", "2", "--deg", "1",
          "--deg-window", "0", "1"])
def test_the_table_reader_agrees_with_argparse_whenever_it_answers(argv):
    fast = cli._parse(argv)
    if fast is not None:
        assert vars(fast) == _argparse_vars(argv)


@pytest.mark.parametrize("tail", [
    ["--max", "2"],
    ["--max-len=2"],
    ["--max-len", "2", "--max-len", "3"],
    ["--max-len", "2", "--verify", "--verify"],
    ["--max-len", "2", "--format", "json", "--format", "text"],
    ["--max-len", "2", "--deg", "1", "--deg", "1"],
])
def test_other_spellings_are_left_to_argparse(tail):
    argv = ["oracle", FILE, "--algebra", "leavitt", *tail]
    assert _argparse_vars(argv) is not None
    assert cli._parse(argv) is None
    argv = ["oracle", "--algebra", "leavitt", *tail, "--", FILE]
    assert _argparse_vars(argv) is not None
    assert cli._parse(argv) is None


def test_the_table_reader_takes_every_benchmark_request():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [argv for pool in workloads.POOLS.values() for argv in pool()]
    assert len(argvs) == 502
    for argv in argvs:
        fast = cli._parse(argv)
        assert fast is not None, argv
        assert vars(fast) == _argparse_vars(argv)


USAGE = "usage: pathcenters [-h] {analyze,center,gprimes,oracle} ...\n"
CENTER_USAGE = ("usage: pathcenters center [-h] [--format {text,json}] --algebra\n"
                "                          {path,cohn,leavitt} [--char CHAR]\n"
                "                          file\n")
ORACLE_USAGE = ("usage: pathcenters oracle [-h] [--format {text,json}] --algebra\n"
                "                          {path,cohn,leavitt} --max-len MAX_LEN\n"
                "                          [--deg DEG | --deg-window A B] [--verify]\n"
                "                          [--char CHAR]\n"
                "                          file\n")
# (argv, exit code, stdout, stderr), run in `fixtures/` at 80 columns; the
# bytes are those of the parser before the option table existed
PINNED = [
    ([], 1,
     "",
     (USAGE +
      "pathcenters: error: the following arguments are required: command\n")),
    (["-h"], 0,
     (USAGE +
      "\n"
      "Exact centers of path, Cohn and Leavitt path algebras of finite graphs\n"
      "\n"
      "positional arguments:\n"
      "  {analyze,center,gprimes,oracle}\n"
      "    analyze             graph predicates\n"
      "    center              structural center via the matching theorem\n"
      "    gprimes             graded prime ideals and center bounds\n"
      "    oracle              bounded brute-force centralizer\n"
      "\n"
      "options:\n"
      "  -h, --help            show this help message and exit\n"),
     ""),
    (["analyze", "-h"], 0,
     ("usage: pathcenters analyze [-h] [--format {text,json}] file\n"
      "\n"
      "positional arguments:\n"
      "  file                  graph file\n"
      "\n"
      "options:\n"
      "  -h, --help            show this help message and exit\n"
      "  --format {text,json}\n"),
     ""),
    (["center", "-h"], 0,
     (CENTER_USAGE +
      "\n"
      "positional arguments:\n"
      "  file                  graph file\n"
      "\n"
      "options:\n"
      "  -h, --help            show this help message and exit\n"
      "  --format {text,json}\n"
      "  --algebra {path,cohn,leavitt}\n"
      "  --char CHAR           field characteristic (0 = exact rationals)\n"),
     ""),
    (["gprimes", "-h"], 0,
     ("usage: pathcenters gprimes [-h] [--format {text,json}] [--char CHAR] "
      "file\n"
      "\n"
      "positional arguments:\n"
      "  file                  graph file\n"
      "\n"
      "options:\n"
      "  -h, --help            show this help message and exit\n"
      "  --format {text,json}\n"
      "  --char CHAR\n"),
     ""),
    (["oracle", "-h"], 0,
     (ORACLE_USAGE +
      "\n"
      "positional arguments:\n"
      "  file                  graph file\n"
      "\n"
      "options:\n"
      "  -h, --help            show this help message and exit\n"
      "  --format {text,json}\n"
      "  --algebra {path,cohn,leavitt}\n"
      "  --max-len MAX_LEN\n"
      "  --deg DEG\n"
      "  --deg-window A B\n"
      "  --verify              check the structural claim against the oracle\n"
      "  --char CHAR\n"),
     ""),
    (["frobnicate", "rose_1.graph"], 1,
     "",
     (USAGE +
      "pathcenters: error: argument command: invalid choice: 'frobnicate' "
      "(choose from 'analyze', 'center', 'gprimes', 'oracle')\n")),
    (["center", "rose_1.graph"], 1,
     "",
     (CENTER_USAGE +
      "pathcenters center: error: the following arguments are required: "
      "--algebra\n")),
    (["center", "rose_1.graph", "--algebra", "lie"], 1,
     "",
     (CENTER_USAGE +
      "pathcenters center: error: argument --algebra: invalid choice: 'lie' "
      "(choose from 'path', 'cohn', 'leavitt')\n")),
    (["center", "rose_1.graph", "--algebra", "path", "--char", "x"], 1,
     "",
     (CENTER_USAGE +
      "pathcenters center: error: argument --char: invalid int value: 'x'\n")),
    (["oracle", "rose_1.graph", "--algebra", "leavitt", "--max-len", "2",
      "--deg", "1", "--deg-window", "0", "1"], 1,
     "",
     (ORACLE_USAGE +
      "pathcenters oracle: error: argument --deg-window: not allowed with "
      "argument --deg\n")),
    (["analyze", "rose_1.graph", "rose_1.graph"], 1,
     "",
     (USAGE +
      "pathcenters: error: unrecognized arguments: rose_1.graph\n")),
    (["analyze", "rose_1.graph", "--bogus"], 1,
     "",
     (USAGE +
      "pathcenters: error: unrecognized arguments: --bogus\n")),
    (["oracle", "rose_1.graph", "--algebra", "leavitt", "--max", "2",
      "--ver"], 0,
     ("pathcenters oracle: rose_1.graph\n"
      "graph: 1 vertices, 1 edges\n"
      "[oracle-verification]\n"
      "  algebra: leavitt\n"
      "  max_len: 2\n"
      "  degrees: None\n"
      "  candidates: 5\n"
      "  dimension: 5\n"
      "  complete_within_window: True\n"
      "  basis: 1 @v, 1 @v|f1, 1 @v|f1.f1, 1 f1, 1 f1.f1\n"
      "  verification:\n"
      "    ok: True\n"
      "    generator_failures: (none)\n"
      "    outside_span: (none)\n"
      "    oracle_dimension: 5\n"
      "    span_dimension: 5\n"),
     ""),
    (["oracle", "rose_1.graph", "--algebra", "leavitt", "--max-len=2"], 0,
     ("pathcenters oracle: rose_1.graph\n"
      "graph: 1 vertices, 1 edges\n"
      "[oracle-verification]\n"
      "  algebra: leavitt\n"
      "  max_len: 2\n"
      "  degrees: None\n"
      "  candidates: 5\n"
      "  dimension: 5\n"
      "  complete_within_window: True\n"
      "  basis: 1 @v, 1 @v|f1, 1 @v|f1.f1, 1 f1, 1 f1.f1\n"),
     ""),
]


@pytest.mark.parametrize("argv, code, out, err", PINNED,
                         ids=[" ".join(row[0]) or "(empty)" for row in PINNED])
def test_help_and_usage_errors_keep_their_bytes(argv, code, out, err,
                                                monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT / "fixtures")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == code
    assert (stdout.getvalue(), stderr.getvalue()) == (out, err)
