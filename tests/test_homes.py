"""Where each fact of the library lives, in one table, checked against the source.

The library states each fact once: the relations in ``words._RELATIONS``,
the signed-int kernels in ``freegroup``, the sigma step in
``LDTable._steps`` and so on.  ``uses`` walks a module once and lists every
use in it as (kind, name, place), where the place is the dotted path of the
enclosing scope (``envelope.LDTable._grow``) and a definition's place is its
own path.  ``HOMES`` has one row per fact: the kinds of use it covers, the
names (None for any), the places such a use may lie in, and whether each of
those places must hold one.  One test checks every row against the package,
and one checks every row against a sample module that breaks them all.

Kinds of use:

- ``def``: a def or class, or a name assigned at module or class level;
- ``bind``: a name assigned or a parameter inside a function;
- ``read``: a name read; ``attr``: an attribute, read or assigned;
- ``import``: a name imported; ``call``: a call, named by its callee;
- ``loop``: a ``for`` or comprehension, named by what it iterates over;
- ``recurse``: a call of an enclosing function, by its name or through ``self``;
- ``top``: a module-level statement other than the docstring and
  ``from … import`` lines, named by its type.
"""

import ast
from pathlib import Path

import pytest

import shrinkbraid

SOURCES = sorted(Path(shrinkbraid.__file__).parent.glob("*.py"))
MODULES = tuple(path.stem for path in SOURCES)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
NAMED = ("def", "bind", "read", "attr", "import")
KERNELS = {"_reduced", "_mul", "_inv", "_shifted", "_inverse_shifted"}
VALUE_METHODS = ("__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__")

HOMES = {
    # Braid codes and free-group ints go through one set of signed-int kernels.
    "kernels": (("def", "bind"), KERNELS, ("freegroup",), False),
    # The free-group budgets are tested in representation, by ``_over_budget``.
    "image-budget": (("call",), {"ImageBudgetError"}, ("representation",), False),
    # ``apply_relation`` and the tests' oracle read the rows through ``_rewrite``.
    "relations": (("read", "bind", "attr"), {"_RELATIONS"}, ("words._rewrite",), True),
    # The one cache maps a token to its code.
    "cache": (("read", "attr"), {"lru_cache", "cache"}, ("words._letter",), True),
    # The sigma step is built once and applied by the layer and the absorbing walk.
    "sigma-step": (
        ("attr",),
        {"_steps"},
        ("envelope.LDTable.__init__", "envelope.LDTable._grow", "envelope.LDTable._absorbs"),
        True,
    ),
    # ``sigma_action`` is the public single step and the tests' reference.
    "sigma-action": (("call",), {"sigma_action"}, (), False),
    # Depth, text and values of a term all go through the one fold.
    "term-fold": (("loop",), {"postfix"}, ("ldops._fold",), True),
    # The letter types are the public boundary: codes inside, letters outside.
    "letter-kinds": (NAMED, {"Kind", "_generator"}, ("words", "__init__"), False),
    "letter-views": (("attr",), {"letters"}, (), False),
    "free-letters": (("call",), {"FLetter"}, ("freegroup",), False),
    # Every walk is a loop with a stack, bounded by a typed budget.
    "recursion": (("recurse",), None, (), False),
    # ``_Frozen`` writes the value methods; the kernel words only say how they pickle.
    "value-methods": (
        ("def",),
        set(VALUE_METHODS),
        tuple(f"freegroup._Frozen.{name}" for name in VALUE_METHODS)
        + ("freegroup.FWord.__reduce__", "words.RWord.__reduce__", "ldops.LDTerm.__reduce__"),
        True,
    ),
    # The package's ``__init__`` only re-exports.
    "init": (("top",), None, tuple(module for module in MODULES if module != "__init__"), False),
    # An integer argument is tested by ``_int_at_least``; table entries and elements by ``LDTable``.
    "int-args": (("call",), {"isinstance"}, ("freegroup._int_at_least", "envelope.LDTable"), True),
}


def name_of(node: ast.AST):
    """The name a callee or an iterable is known by, or None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def uses(module: str, tree: ast.Module) -> list[tuple[str, str, str]]:
    """Every use in a module's tree as (kind, name, place), in one walk."""
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    found = [("top", type(node).__name__, module) for node in body if not isinstance(node, ast.ImportFrom)]
    stack = [(tree, module, (), False)]  # node, place, enclosing function names, in a function body
    while stack:
        node, place, functions, local = stack.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            place = f"{place}.{node.name}"
            found.append(("def", node.name, place))
            local = isinstance(node, FUNCTIONS)
            if local:
                functions += (node.name,)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            found.append(("bind", node.id, place) if local else ("def", node.id, f"{place}.{node.id}"))
        elif isinstance(node, ast.Name):
            found.append(("read", node.id, place))
        elif isinstance(node, ast.arg):
            found.append(("bind", node.arg, place))
        elif isinstance(node, ast.Attribute):
            found.append(("attr", node.attr, place))
        elif isinstance(node, ast.alias):
            found.append(("import", node.asname or node.name, place))
        elif isinstance(node, ast.Call) and name_of(node.func):
            callee = name_of(node.func)
            found.append(("call", callee, place))
            through_self = isinstance(node.func, ast.Name) or getattr(node.func.value, "id", None) == "self"
            if callee in functions and through_self:
                found.append(("recurse", callee, place))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and name_of(node.iter):
            found.append(("loop", name_of(node.iter), place))
        stack.extend((child, place, functions, local) for child in ast.iter_child_nodes(node))
    return found


def lies_in(place: str, home: str) -> bool:
    return place == home or place.startswith(home + ".")


def faults(row, found) -> tuple[list[str], list[str]]:
    """The uses a row covers that lie outside its places, and the places that must hold one but hold none."""
    kinds, names, places, exact = row
    hits = [use for use in found if use[0] in kinds and (names is None or use[1] in names)]
    strays = {
        f"{kind} {name} in {place}" for kind, name, place in hits if not any(lies_in(place, h) for h in places)
    }
    empty = [home for home in places if exact and not any(lies_in(place, home) for *_, place in hits)]
    return sorted(strays), empty


PACKAGE = [use for path in SOURCES for use in uses(path.stem, ast.parse(path.read_text(encoding="utf-8")))]


@pytest.mark.parametrize("row", HOMES.values(), ids=HOMES.keys())
def test_each_fact_stays_home(row):
    assert PACKAGE and faults(row, PACKAGE) == ([], [])


SAMPLE = '''
"""A module that puts each fact in the wrong place."""
import functools
from functools import cache
from .words import Kind, RWord


def _shifted(codes, k):
    return [c + k for c in codes if isinstance(k, int)]


_inv = reversed


@cache
def color(w: RWord):
    for g in w.letters:
        if g.kind is Kind.X:
            return FLetter(g.index, 1)
    raise ImageBudgetError("too long")


@functools.lru_cache(maxsize=4)
def rows(table, tokens):
    postfix = [token for token in tokens]
    for row in _RELATIONS:
        yield table.sigma_action(1, row), _generator(1)
    return words._RELATIONS, postfix


class Table(Base):
    def __init__(self):
        super().__init__()

    def __eq__(self, other):
        return self._steps == other._steps

    def walk(self, t):
        def inner(n):
            return inner(n - 1) + walk(n)
        return self.walk(t) + other.walk(t) + [token for token in t.postfix]
'''


SAMPLE_USES = uses("stray", ast.parse(SAMPLE))
SAMPLE_STRAYS = {
    "kernels": ["def _inv in stray._inv", "def _shifted in stray._shifted"],
    "image-budget": ["call ImageBudgetError in stray.color"],
    "relations": ["attr _RELATIONS in stray.rows", "read _RELATIONS in stray.rows"],
    "cache": ["attr lru_cache in stray.rows", "read cache in stray.color"],
    "sigma-step": ["attr _steps in stray.Table.__eq__"],
    "sigma-action": ["call sigma_action in stray.rows"],
    "term-fold": ["loop postfix in stray.Table.walk"],
    "letter-kinds": ["import Kind in stray", "read Kind in stray.color", "read _generator in stray.rows"],
    "letter-views": ["attr letters in stray.color"],
    "free-letters": ["call FLetter in stray.color"],
    "recursion": [
        "recurse inner in stray.Table.walk.inner",
        "recurse walk in stray.Table.walk",
        "recurse walk in stray.Table.walk.inner",
    ],
    "value-methods": ["def __eq__ in stray.Table.__eq__"],
    "init": [f"top {kind} in stray" for kind in ("Assign", "ClassDef", "FunctionDef", "Import")],
    "int-args": ["call isinstance in stray._shifted"],
}


@pytest.mark.parametrize("key", HOMES)
def test_the_sample_breaks_every_row(key):
    # The sample strays from every row and holds none of the places an exact row asks for.
    *_, places, exact = row = HOMES[key]
    assert SAMPLE_STRAYS.keys() == HOMES.keys()
    assert faults(row, SAMPLE_USES) == (SAMPLE_STRAYS[key], list(places if exact else ()))
