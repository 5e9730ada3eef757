"""Argument checks that no other test reaches, each with its exact message."""

import pytest

from shrinkbraid.envelope import LDTable
from shrinkbraid.freegroup import FLetter, FWord, reduce
from shrinkbraid.ldops import enumerate_terms
from shrinkbraid.representation import stabilizes_x_power
from shrinkbraid.words import Generator, Kind, RWord, apply_relation, parse_rword, sigma, x
from shrinkbraid.xmonoid import XSeq, XWord, p_eval, sf_eval

CHECKS = {
    "empty table": (lambda: LDTable([]), "table must be nonempty"),
    "x word from sigma": (
        lambda: XWord.from_rword(parse_rword("x1 s1")),
        "word contains non-x letters",
    ),
    "sf_eval at 0": (lambda: sf_eval(RWord(), 0), "argument must be >= 1"),
    "stabilized power 0": (lambda: stabilizes_x_power(RWord(), 0), "m must be >= 1"),
    "generator 0": (lambda: FWord.generator(0), "generator index must be >= 1"),
    "negative shift": (lambda: FWord.generator(1).shift(-1), "shift amount must be nonnegative"),
    "generator sign 5": (lambda: FWord.generator(1, 5), "letter sign must be +1 or -1, got 5"),
    "generator sign 0": (lambda: FWord.generator(1, 0), "letter sign must be +1 or -1, got 0"),
    "terms of depth -1": (lambda: enumerate_terms(-1), "max_depth must be >= 0"),
    "sequence entry 0": (lambda: XSeq((3, 2)).entry(0), "argument must be >= 1"),
    "sequence entry -4": (lambda: XSeq((3, 2)).entry(-4), "argument must be >= 1"),
    # A letter index is an int: its text would be refused by every grammar.
    "sigma 1.5": (lambda: sigma(1.5), "generator index must be >= 1, got 1.5"),
    "x 2.0": (lambda: x(2.0), "generator index must be >= 1, got 2.0"),
    "generator 1.5 in a word": (
        lambda: RWord([Generator(Kind.SIGMA, 1.5)]),
        "generator index must be >= 1, got 1.5",
    ),
    "free generator 1.5": (lambda: FWord.generator(1.5), "letter index must be >= 0, got 1.5"),
    "free letter 1.5": (lambda: reduce([FLetter(1.5, 1)]), "letter index must be >= 0, got 1.5"),
    "free letter 0.0": (lambda: reduce([FLetter(0.0, 1)]), "letter index must be >= 0, got 0.0"),
    "x word of 1.5": (lambda: XWord((1.5,)), "x indices must be >= 1"),
    "p_eval at 1.5": (lambda: p_eval(XWord((1,)), 1.5), "argument must be >= 1"),
    "sf_eval at 1.5": (lambda: sf_eval(RWord(), 1.5), "argument must be >= 1"),
    "direction l2r": (
        lambda: apply_relation(parse_rword("x1"), 1, 0, "l2r"),
        "direction must be 'L2R' or 'R2L', got 'l2r'",
    ),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_rejects_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
