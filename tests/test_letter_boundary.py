"""Letter codes from text to answer: the letter types stay at the boundary.

Inside the library a word of R is a tuple of letter codes and a free-group
word a tuple of signed ints (see ``words`` and ``freegroup``).  ``Generator``,
``Kind`` and ``FLetter`` exist only as public constructors and as the
read-only ``letters`` views.  This guard reads the source and fails when a
module other than ``words`` names ``Kind`` or ``_generator``, when any module
reads ``.letters``, or when a module other than ``freegroup`` builds an
``FLetter``.  The package's ``__init__`` only re-exports names, and the guard
holds it to that.
"""

import ast
from pathlib import Path

import shrinkbraid

SOURCES = sorted(Path(shrinkbraid.__file__).parent.glob("*.py"))


def names(node: ast.AST) -> set[str]:
    """Every name a tree binds, reads or imports, and every attribute it reads."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.asname or sub.name)
    return found


def crossings(module: str, tree: ast.AST) -> list[str]:
    """What a module does across the boundary: forbidden names, then uses by line."""
    found = []
    if module != "words.py":
        found += [f"names {name}" for name in ("Kind", "_generator") if name in names(tree)]
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "letters":
            uses.append((node.lineno, "reads .letters"))
        if module != "freegroup.py" and isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "FLetter":
                uses.append((node.lineno, "builds an FLetter"))
    return found + [f"{use} (line {line})" for line, use in sorted(uses)]


def test_letter_types_stay_at_the_boundary():
    assert SOURCES
    found = {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        calls = crossings(path.name, ast.parse(path.read_text(encoding="utf-8")))
        if calls:
            found[path.name] = calls
    assert found == {}


def test_package_init_only_re_exports():
    init = Path(shrinkbraid.__file__)
    body = ast.parse(init.read_text(encoding="utf-8")).body
    docstring = body[:1] if isinstance(body[0], ast.Expr) else []
    assert all(isinstance(node, ast.ImportFrom) for node in body[len(docstring):])


def test_guard_sees_each_kind_of_crossing():
    source = """
from .words import Kind, RWord


def decode(w: RWord):
    for g in reversed(w.letters):
        if g.kind is Kind.X:
            return FLetter(g.index, 1)
    return freegroup.FLetter(1, -1), _generator(1)
"""
    assert crossings("representation.py", ast.parse(source)) == [
        "names Kind",
        "names _generator",
        "reads .letters (line 6)",
        "builds an FLetter (line 8)",
        "builds an FLetter (line 9)",
    ]
    assert crossings("words.py", ast.parse(source)) == [
        "reads .letters (line 6)",
        "builds an FLetter (line 8)",
        "builds an FLetter (line 9)",
    ]
    assert crossings("freegroup.py", ast.parse(source)) == [
        "names Kind",
        "names _generator",
        "reads .letters (line 6)",
    ]
