"""Command-line front end.

Exit codes: 0 on success, 1 on parse/usage errors, 2 on domain errors,
which share the base ``freegroup.DomainError`` (x letter where a braid is
required, invalid strand index, non-LD table, sigma position out of range,
and the budget errors, which share the base ``freegroup.BudgetError``: term
nested past its bracket budget, realized term word over its letter budget,
free-group image or color over its letter budget, the image scan of ``cmp``
or ``laver`` on x words over more indices than that letter budget (``eq``
decides from coordinates and scans nothing), S sequence over its index
budget, coloring over its strand budget, envelope orbit search over its
state budget, LD table over its size budget, ``sx`` over its rewrite-step
budget).  A parse error (``freegroup.ParseError``) names the offset and
text of the offending token; ``canon`` reports the first sigma letter of
its x word that way.
Integer arguments (the strand count and ``--depth``), like sequence
entries and table files, take ASCII digits only.
Each subcommand is one row of ``_COMMANDS``: its name, its help, its
arguments (``add_argument`` keywords by name, options included) and its
action, which takes the arguments in that order and returns the text to
print.  The argument parser is built from the rows once, at import, and
every ``run`` call reuses it; ``run`` is the one place that maps errors to
exit codes.
Output is deterministic, LF-terminated UTF-8.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .coloring import color
from .envelope import _ascii_int, load_table
from .freegroup import Cmp, DomainError, _raise_first, parse_fword
from .ldops import eval_term, laver_cmp, parse_term
from .representation import apply_word, cmp_L, morphism_eq
from .words import RWordParseError, parse_rword, sx_decompose
from .xmonoid import XWord, _s_of_canonical, x_canonicalize


_CMP_TEXT = {Cmp.LESS: "LT", Cmp.EQUAL: "EQ", Cmp.GREATER: "GT"}


def _canon(text: str) -> str:
    """Canonical form and S sequence of an x word; a sigma letter is an error at its own offset."""
    word = parse_rword(text)
    sigmas = ["expected a word in x letters only" if type(c) is int else c for c in word.codes]
    _raise_first(text, text.split(), sigmas, RWordParseError)
    canon = x_canonicalize(XWord.from_rword(word))
    return f"{canon} | S={_s_of_canonical(canon.indices)}"


def _parse_env_seq(text: str) -> tuple[int, ...]:
    """The entries of ``text``; the table's ``_check_seq`` rejects an empty one."""
    try:
        return tuple(_ascii_int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"sequence must be comma-separated integers, got {text!r}")


def _env(path: str, seq1: str, seq2: str, op: str, depth: int | None) -> str:
    table = load_table(path)
    u, v = _parse_env_seq(seq1), _parse_env_seq(seq2)
    if op == "eq":
        return str(table.orbit_eq(u, v, depth))
    return ",".join(map(str, (table.env_dot if op == "dot" else table.env_circ)(u, v)))


def _int_argument(text: str) -> int:
    """``_ascii_int`` as an argparse type: its message becomes the usage error."""
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_COMMANDS = {  # name: (help, {argument: add_argument keywords}, action)
    "eq": ("semantic equality of two words in R", {"w1": {}, "w2": {}},
           lambda u, v: "true" if morphism_eq(parse_rword(u), parse_rword(v)) else "false"),
    "cmp": ("compare two words in the left-invariant order", {"w1": {}, "w2": {}},
            lambda u, v: _CMP_TEXT[cmp_L(parse_rword(u), parse_rword(v))]),
    "sx": ("braid times x-part decomposition", {"w": {}},
           lambda w: " | ".join(map(str, sx_decompose(parse_rword(w))))),
    "canon": ("canonical ascending form and S sequence of an x word", {"xword": {}}, _canon),
    "act": ("image of a free-group word under a word of R", {"w": {}, "fword": {}},
            lambda w, f: str(apply_word(parse_rword(w), parse_fword(f)))),
    "ld": ("realize an LD term as a word of R", {"term": {}},
           lambda t: str(eval_term(parse_term(t)))),
    "laver": ("compare two LD terms", {"t1": {}, "t2": {}},
              lambda t1, t2: _CMP_TEXT[laver_cmp(parse_term(t1), parse_term(t2))]),
    "color": ("color a multi-braid word on N strands",
              {"strands": {"type": _int_argument}, "w": {}},
              lambda n, w: "\n".join(
                  f"e{k} -> {image}" for k, image in enumerate(color(parse_rword(w), n).images, 1))),
    "env": ("envelope operations over an LD table file",
            {"table": {}, "seq1": {}, "seq2": {},
             "--op": {"choices": ("dot", "circ", "eq"), "required": True},
             "--depth": {"type": _int_argument, "default": None,
                         "help": "search budget for --op eq (default: exact closure)"}},
            _env),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkbraid",
        description="Shrinking-braid monoid computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for argument, keywords in arguments.items():
            p.add_argument(argument, **keywords)
    return parser


_PARSER = _build_parser()


def run(argv: Sequence[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    _, arguments, action = _COMMANDS[args.command]
    try:
        print(action(*[getattr(args, argument.lstrip("-")) for argument in arguments]))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
