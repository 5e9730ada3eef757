"""Argument checks that no other test reaches, each with its exact message.

Every integer argument goes through ``freegroup._int_at_least``, so a float
or ``Fraction`` is refused with its site's message, and a bool is stored as
a plain int.
"""

from fractions import Fraction

import pytest

from shrinkbraid.coloring import color
from shrinkbraid.envelope import LDTable, cyclic_table
from shrinkbraid.freegroup import FLetter, FWord, parse_fword, reduce
from shrinkbraid.ldops import BElement, enumerate_terms
from shrinkbraid.representation import stabilizes_x_power
from shrinkbraid.words import Generator, Kind, RWord, apply_relation, parse_rword, shift, sigma, x
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
    # Every other integer argument is an int too: a float once built a word or answered.
    "word shift 0.5": (lambda: shift(parse_rword("s1 x2"), 0.5), "shift amount must be nonnegative"),
    "free shift 1.5": (lambda: parse_fword("e1").shift(1.5), "shift amount must be nonnegative"),
    "stabilized power 2.5": (lambda: stabilizes_x_power(parse_rword("s1"), 2.5), "m must be >= 1"),
    "stabilized power 1.5": (lambda: stabilizes_x_power(parse_rword("s1"), 1.5), "m must be >= 1"),
    "element power 1.5": (lambda: BElement(RWord(), 1.5), "power must be >= 1"),
    "element power Fraction(1)": (lambda: BElement(RWord(), Fraction(1)), "power must be >= 1"),
    "sequence of 1.5": (lambda: XSeq((1.5,)), "sequence entries must be >= 1"),
    "sequence of 2.0": (lambda: XSeq((2.0,)), "sequence entries must be >= 1"),
    "sequence entry 1.5": (lambda: XSeq((3, 2)).entry(1.5), "argument must be >= 1"),
    "color from 2.5 strands": (lambda: color(parse_rword("s1"), 2.5), "need at least one strand"),
    "terms of depth 1.5": (lambda: enumerate_terms(1.5), "max_depth must be >= 0"),
    "orbit depth 0.5": (lambda: cyclic_table(9).orbit((1, 2, 3), depth=0.5), "depth must be >= 0"),
    "rule 1.5": (lambda: apply_relation(parse_rword("s1 x1"), 1.5, 0, "L2R"), "rule must be 1..7, got 1.5"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_rejects_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


STORED = {
    "FWord ints": lambda: reduce([FLetter(True, 1), FLetter(2, -1.0)]).ints,
    "RWord codes": lambda: RWord([sigma(True), Generator(Kind.SIGMA_INV, True), x(True)]).codes,
    "XWord indices": lambda: XWord((True, 2)).indices,
    "XSeq prefix": lambda: XSeq((3, True, 2)).prefix,
    "BElement power": lambda: (BElement(RWord(), True).n,),
    "color target rank": lambda: (color(RWord(), True).target_rank,),
    "LDTable entries": lambda: LDTable([[True]]).table[0],
}


@pytest.mark.parametrize("stored", STORED.values(), ids=STORED.keys())
def test_a_bool_is_stored_as_an_int(stored):
    values = [c[0] if type(c) is tuple else c for c in stored()]
    assert values and all(type(v) is int for v in values)


def test_table_entries_and_products_are_ints():
    table = LDTable([[True, 2], [True, 2]])
    assert all(type(entry) is int for row in table.table for entry in row)
    assert all(type(entry) is int for entry in table.env_dot((1,), (1, 2)))
