"""Each word-layer fact has one home, and this guard reads the source to keep it there.

The kernels on signed-int words, ``_reduced``, ``_mul``, ``_inv``,
``_shifted`` and ``_inverse_shifted``, are defined in ``freegroup`` only;
braid codes and free-group ints both go through them.  The two free-group
budgets are tested in ``representation`` and named by its ``_over_budget``,
so no other module builds an ``ImageBudgetError``.
"""

import ast

from conftest import SOURCES

KERNELS = ("_reduced", "_mul", "_inv", "_shifted", "_inverse_shifted")


def strays(module: str, tree: ast.AST) -> list[str]:
    """What a module states that belongs to another: kernels it defines, budget errors it builds."""
    found = []
    for node in ast.walk(tree):
        if module != "freegroup.py":
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in KERNELS:
                found.append((node.lineno, f"defines {node.name}"))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in KERNELS:
                found.append((node.lineno, f"binds {node.id}"))
        if module != "representation.py" and isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "ImageBudgetError":
                found.append((node.lineno, "builds an ImageBudgetError"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_kernels_and_budget_errors_stay_home():
    assert SOURCES
    found = {}
    for path in SOURCES:
        calls = strays(path.name, ast.parse(path.read_text(encoding="utf-8")))
        if calls:
            found[path.name] = calls
    assert found == {}


def test_guard_sees_each_kind_of_stray():
    source = """
from . import representation


def _shifted(codes, k):
    return [c + k for c in codes]


_inv = reversed


def color(w):
    raise representation.ImageBudgetError("too long")


def scan(w):
    raise ImageBudgetError("too long")
"""
    assert strays("words.py", ast.parse(source)) == [
        "defines _shifted (line 5)",
        "binds _inv (line 9)",
        "builds an ImageBudgetError (line 13)",
        "builds an ImageBudgetError (line 17)",
    ]
    assert strays("freegroup.py", ast.parse(source)) == [
        "builds an ImageBudgetError (line 13)",
        "builds an ImageBudgetError (line 17)",
    ]
    assert strays("representation.py", ast.parse(source)) == [
        "defines _shifted (line 5)",
        "binds _inv (line 9)",
    ]
