"""Pin the argparse surface of the command line byte for byte.

The ``--help`` output of ``shrinkbraid`` and of each subcommand, and the
usage error of each subcommand called without its arguments.  ``COLUMNS``
is fixed so that argparse wraps the same way on any terminal.
"""

import pytest

from shrinkbraid.cli import run

OPTIONS = "options:\n  -h, --help  show this help message and exit\n"

HELP = {
    (): """\
usage: shrinkbraid [-h] {eq,cmp,sx,canon,act,ld,laver,color,env} ...

Shrinking-braid monoid computations

positional arguments:
  {eq,cmp,sx,canon,act,ld,laver,color,env}
    eq                  semantic equality of two words in R
    cmp                 compare two words in the left-invariant order
    sx                  braid times x-part decomposition
    canon               canonical ascending form and S sequence of an x word
    act                 image of a free-group word under a word of R
    ld                  realize an LD term as a word of R
    laver               compare two LD terms
    color               color a multi-braid word on N strands
    env                 envelope operations over an LD table file

options:
  -h, --help            show this help message and exit
""",
    ("eq",): """\
usage: shrinkbraid eq [-h] w1 w2

positional arguments:
  w1
  w2

""" + OPTIONS,
    ("cmp",): """\
usage: shrinkbraid cmp [-h] w1 w2

positional arguments:
  w1
  w2

""" + OPTIONS,
    ("sx",): """\
usage: shrinkbraid sx [-h] w

positional arguments:
  w

""" + OPTIONS,
    ("canon",): """\
usage: shrinkbraid canon [-h] xword

positional arguments:
  xword

""" + OPTIONS,
    ("act",): """\
usage: shrinkbraid act [-h] w fword

positional arguments:
  w
  fword

""" + OPTIONS,
    ("ld",): """\
usage: shrinkbraid ld [-h] term

positional arguments:
  term

""" + OPTIONS,
    ("laver",): """\
usage: shrinkbraid laver [-h] t1 t2

positional arguments:
  t1
  t2

""" + OPTIONS,
    ("color",): """\
usage: shrinkbraid color [-h] strands w

positional arguments:
  strands
  w

""" + OPTIONS,
    ("env",): """\
usage: shrinkbraid env [-h] --op {dot,circ,eq} [--depth DEPTH] table seq1 seq2

positional arguments:
  table
  seq1
  seq2

options:
  -h, --help          show this help message and exit
  --op {dot,circ,eq}
  --depth DEPTH       search budget for --op eq (default: exact closure)
""",
}

MISSING = {
    "": "command",
    "eq": "w1, w2",
    "cmp": "w1, w2",
    "sx": "w",
    "canon": "xword",
    "act": "w, fword",
    "ld": "term",
    "laver": "t1, t2",
    "color": "strands, w",
    "env": "table, seq1, seq2, --op",
}


@pytest.fixture
def capout(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "shrinkbraid")
def test_help(capout, command):
    assert capout(*command, "--help") == (0, HELP[command], "")


@pytest.mark.parametrize("command", list(MISSING), ids=lambda c: c or "shrinkbraid")
def test_missing_arguments_are_a_usage_error(capout, command):
    usage = HELP[(command,) if command else ()].split("\n", 1)[0]
    prog = f"shrinkbraid {command}".rstrip()
    err = f"{usage}\n{prog}: error: the following arguments are required: {MISSING[command]}\n"
    assert capout(*filter(None, [command])) == (1, "", err)

