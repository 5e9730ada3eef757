"""Command-line front end.

Exit codes: 0 on success, 1 on parse/usage errors, 2 on domain errors,
which share the base ``freegroup.DomainError`` (x letter where a braid is
required, invalid strand index, non-LD table, sigma position out of range,
and the budget errors, which share the base ``freegroup.BudgetError``: term
nested past its bracket budget, realized term word over its letter budget,
free-group image or color over its letter budget, S sequence over its index
budget, coloring over its strand budget, envelope orbit search over its
state budget, LD table over its size budget, ``sx`` over its rewrite-step
budget).  A parse error (``freegroup.ParseError``) names the offset and
text of the offending token; ``canon`` reports the first sigma letter of
its x word that way.
Integer arguments (the strand count and ``--depth``), like sequence
entries and table files, take ASCII digits only.  The argument parser is
built once, at import, and every ``run`` call reuses it.
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
from .xmonoid import XWord, s_of, x_canonicalize


_CMP_TEXT = {Cmp.LESS: "LT", Cmp.EQUAL: "EQ", Cmp.GREATER: "GT"}


def _parse_xword(text: str) -> XWord:
    """Parse an x word; a sigma letter is an error at its own offset."""
    word = parse_rword(text)
    sigmas = ["expected a word in x letters only" if type(c) is int else c for c in word.codes]
    _raise_first(text, text.split(), sigmas, RWordParseError)
    return XWord.from_rword(word)


def _parse_env_seq(text: str) -> tuple[int, ...]:
    """The entries of ``text``; the table's ``_check_seq`` rejects an empty one."""
    try:
        return tuple(_ascii_int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"sequence must be comma-separated integers, got {text!r}")


def _int_argument(text: str) -> int:
    """``_ascii_int`` as an argparse type: its message becomes the usage error."""
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkbraid",
        description="Shrinking-braid monoid computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eq", help="semantic equality of two words in R")
    p.add_argument("w1")
    p.add_argument("w2")

    p = sub.add_parser("cmp", help="compare two words in the left-invariant order")
    p.add_argument("w1")
    p.add_argument("w2")

    p = sub.add_parser("sx", help="braid times x-part decomposition")
    p.add_argument("w")

    p = sub.add_parser("canon", help="canonical ascending form and S sequence of an x word")
    p.add_argument("xword")

    p = sub.add_parser("act", help="image of a free-group word under a word of R")
    p.add_argument("w")
    p.add_argument("fword")

    p = sub.add_parser("ld", help="realize an LD term as a word of R")
    p.add_argument("term")

    p = sub.add_parser("laver", help="compare two LD terms")
    p.add_argument("t1")
    p.add_argument("t2")

    p = sub.add_parser("color", help="color a multi-braid word on N strands")
    p.add_argument("strands", type=_int_argument)
    p.add_argument("w")

    p = sub.add_parser("env", help="envelope operations over an LD table file")
    p.add_argument("table")
    p.add_argument("seq1")
    p.add_argument("seq2")
    p.add_argument("--op", choices=("dot", "circ", "eq"), required=True)
    p.add_argument("--depth", type=_int_argument, default=None,
                   help="search budget for --op eq (default: exact closure)")
    return parser


_PARSER = _build_parser()


def run(argv: Sequence[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        if args.command == "eq":
            result = morphism_eq(parse_rword(args.w1), parse_rword(args.w2))
            print("true" if result else "false")
        elif args.command == "cmp":
            print(_CMP_TEXT[cmp_L(parse_rword(args.w1), parse_rword(args.w2))])
        elif args.command == "sx":
            braid_part, x_part = sx_decompose(parse_rword(args.w))
            print(f"{braid_part} | {x_part}")
        elif args.command == "canon":
            word = _parse_xword(args.xword)
            canon = x_canonicalize(word)
            print(f"{canon} | S={s_of(word)}")
        elif args.command == "act":
            image = apply_word(parse_rword(args.w), parse_fword(args.fword))
            print(str(image))
        elif args.command == "ld":
            print(str(eval_term(parse_term(args.term))))
        elif args.command == "laver":
            print(_CMP_TEXT[laver_cmp(parse_term(args.t1), parse_term(args.t2))])
        elif args.command == "color":
            morphism = color(parse_rword(args.w), args.strands)
            for k, image in enumerate(morphism.images, start=1):
                print(f"e{k} -> {image}")
        elif args.command == "env":
            table = load_table(args.table)
            u = _parse_env_seq(args.seq1)
            v = _parse_env_seq(args.seq2)
            if args.op == "dot":
                print(",".join(str(a) for a in table.env_dot(u, v)))
            elif args.op == "circ":
                print(",".join(str(a) for a in table.env_circ(u, v)))
            else:
                print(str(table.orbit_eq(u, v, args.depth)))
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
