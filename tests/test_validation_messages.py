"""Argument checks that no other test reaches, each with its exact message."""

import pytest

from shrinkbraid.envelope import LDTable
from shrinkbraid.freegroup import FWord
from shrinkbraid.ldops import enumerate_terms
from shrinkbraid.representation import stabilizes_x_power
from shrinkbraid.words import RWord, parse_rword
from shrinkbraid.xmonoid import XSeq, XWord, sf_eval

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
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_rejects_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
