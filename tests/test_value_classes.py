"""The value methods of the library are written in one base class.

``freegroup._Frozen`` gives every immutable value class its guard against
assignment and deletion, its equality, hashing and pickling, and its repr.
The kernel words ``FWord``, ``RWord`` and ``LDTerm`` are values on it too;
they define only ``__reduce__``, because their constructors do not take
their fields (the kernels build them raw, through ``_word``, ``_rword`` and
``_term``), and a text repr.  The ``value-methods`` row of
``test_homes.HOMES`` keeps every other class from defining one of those
methods in the source; here the classes are checked as they run, and the
words every public entry point returns are checked as values.
"""

import copy
import pickle

import pytest

from shrinkbraid import (
    BElement, ColoredMorphism, FWord, LDTerm, RWord, XSeq, XWord, apply_word, color, sigma, x,
)
from shrinkbraid.freegroup import _Frozen, parse_fword
from shrinkbraid.ldops import LEAF, dot, eval_term, parse_term
from shrinkbraid.words import parse_rword, sx_decompose

GUARDED = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"}
KERNEL_WORDS = [FWord, RWord, LDTerm]


@pytest.mark.parametrize("cls", [BElement, ColoredMorphism, XWord, XSeq])
def test_value_classes_take_every_value_method_from_the_base(cls):
    assert issubclass(cls, _Frozen)
    assert not (GUARDED | {"__repr__"}) & set(vars(cls))


@pytest.mark.parametrize("cls", KERNEL_WORDS)
def test_kernel_words_take_all_but_pickling_from_the_base(cls):
    assert issubclass(cls, _Frozen)
    assert GUARDED & set(vars(cls)) == {"__reduce__"}


# Each word as the library hands it out, with the parser that builds an
# equal word afresh from its text.
WORDS = {
    "parse_fword": (lambda: parse_fword("e1 e2^-1 e3"), parse_fword),
    "apply_word": (lambda: apply_word(parse_rword("s1 x2 s2^-1"), parse_fword("e2")), parse_fword),
    "color image": (lambda: color(parse_rword("s1 s2^-1 x1"), 3).images[0], parse_fword),
    "RWord(letters)": (lambda: RWord([sigma(1), x(2), sigma(3)]), parse_rword),
    "parse_rword": (lambda: parse_rword("s1 x2 s3^-1"), parse_rword),
    "eval_term": (lambda: eval_term(parse_term("((j . j) o (j . j))")), parse_rword),
    "sx_decompose braid": (lambda: sx_decompose(parse_rword("x1 s1 s2^-1"))[0], parse_rword),
    "sx_decompose x": (lambda: sx_decompose(parse_rword("x2 s1 x1"))[1], parse_rword),
    "parse_term": (lambda: parse_term("((j . j) o j)"), parse_term),
    "dot": (lambda: dot(LEAF, dot(LEAF, LEAF)), parse_term),
}


@pytest.fixture(params=list(WORDS))
def word(request):
    make, parse = WORDS[request.param]
    return make(), parse


def test_fields_refuse_assignment_and_deletion(word):
    w, parse = word
    assert type(w) in KERNEL_WORDS and str(w)
    for name in type(w).__slots__:
        before = getattr(w, name)
        with pytest.raises(AttributeError):
            setattr(w, name, ())
        with pytest.raises(AttributeError):
            delattr(w, name)
        assert getattr(w, name) == before
    assert w == parse(str(w))


def test_pickle_and_deepcopy_give_an_equal_word(word):
    w, _ = word
    for other in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
        assert type(other) is type(w) and other == w


def test_hash_is_that_of_an_equal_word_built_afresh(word):
    w, parse = word
    fresh = parse(str(w))
    assert fresh is not w and fresh == w
    assert hash(fresh) == hash(w)
    assert {w: 1}[fresh] == 1
