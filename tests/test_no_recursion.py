"""No function in the library calls itself.

Every walk over a term, a word or a search in ``shrinkbraid`` is a loop with
an explicit stack, so how deep an input may go is set by the library's typed
budgets, never by Python's recursion limit.  This guard reads the source and
fails on a function that calls itself by its bare name, or on a method that
calls ``self.<its own name>``.
"""

import ast
from pathlib import Path

import shrinkbraid

SOURCES = sorted(Path(shrinkbraid.__file__).parent.glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                found.append(f"{func.name} (line {node.lineno})")
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                found.append(f"self.{func.name} (line {node.lineno})")
    return found


def test_no_function_calls_itself():
    assert SOURCES
    found = {path.name: self_calls(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_guard_sees_both_kinds_of_self_call():
    source = """
def f(n):
    def helper():
        return helper()
    return f(n - 1)


class C(Base):
    def __init__(self):
        super().__init__()

    def g(self):
        return self.g() + other.g()
"""
    assert sorted(self_calls(ast.parse(source))) == [
        "f (line 5)",
        "helper (line 4)",
        "self.g (line 13)",
    ]
