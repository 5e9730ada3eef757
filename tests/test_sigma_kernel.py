"""The sigma step of the envelope is written once, in ``LDTable._steps``.

``LDTable.__init__`` builds the step table, ``_grow`` applies it to one
breadth-first layer of codes for both ``orbit`` and ``orbit_eq``, and
``_absorbs`` walks sigma_1 through it.  ``sigma_action`` stays the public
single step and the tests' reference, so no library code calls it.  This
guard reads the source and fails on any other function that touches
``_steps`` or calls ``sigma_action``.
"""

import ast

from conftest import SOURCES, functions_using, package_functions_using

STEP_READERS = {"__init__", "_grow", "_absorbs"}


def reads_steps(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_steps"


def calls_sigma_action(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "sigma_action") or (
        isinstance(func, ast.Name) and func.id == "sigma_action"
    )


def test_only_the_builder_the_layer_and_the_absorbing_walk_read_steps():
    assert SOURCES
    assert package_functions_using(reads_steps) == STEP_READERS


def test_no_library_function_calls_sigma_action():
    assert package_functions_using(calls_sigma_action) == set()


def test_guard_sees_reads_and_calls_in_any_function():
    source = """
class Table:
    def plain(self):
        return self.size

    def orbit(self, s):
        return [self.sigma_action(1, s)]

    def layer(self, code):
        def inner(p):
            return p + self._steps[p]
        return inner(code)


def step(table, s):
    return sigma_action(1, s)
"""
    tree = ast.parse(source)
    assert functions_using(tree, reads_steps) == {"layer", "inner"}
    assert functions_using(tree, calls_sigma_action) == {"orbit", "step"}
