"""The value methods of the library are written in one base class.

``freegroup._Frozen`` gives the immutable value classes their guard against
assignment and deletion, their equality, hashing and pickling, and their
repr.  ``FWord``, ``RWord`` and ``LDTerm`` keep their own methods, because
their kernels build one on every call and compare one stored tuple.  This
guard reads the source and fails on any other class that defines one of
those methods.
"""

import ast
from pathlib import Path

import pytest

import shrinkbraid
from shrinkbraid import BElement, ColoredMorphism, XSeq, XWord
from shrinkbraid.freegroup import _Frozen

SOURCES = sorted(Path(shrinkbraid.__file__).parent.glob("*.py"))
GUARDED = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"}
ALLOWED = {"_Frozen", "RWord", "FWord", "LDTerm"}


def value_method_classes(tree: ast.AST) -> dict[str, list[str]]:
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = [
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in GUARDED
            ]
            if names:
                found[node.name] = names
    return found


def test_only_the_base_and_the_kernel_words_define_value_methods():
    assert SOURCES
    found = {}
    for path in SOURCES:
        found.update(value_method_classes(ast.parse(path.read_text(encoding="utf-8"))))
    assert ALLOWED <= set(found)
    assert {name: methods for name, methods in found.items() if name not in ALLOWED} == {}


@pytest.mark.parametrize("cls", [BElement, ColoredMorphism, XWord, XSeq])
def test_value_classes_take_every_value_method_from_the_base(cls):
    assert issubclass(cls, _Frozen)
    assert not (GUARDED | {"__repr__"}) & set(vars(cls))


def test_guard_sees_methods_in_any_class():
    source = """
class Plain:
    def __len__(self):
        return 0


class Value(Base):
    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0

    class Inner:
        def __reduce__(self):
            return Inner, ()
"""
    assert value_method_classes(ast.parse(source)) == {
        "Value": ["__eq__", "__hash__"],
        "Inner": ["__reduce__"],
    }
