"""A term's postfix tokens are read by one loop, ``ldops._fold``.

``LDTerm.depth``, ``LDTerm.__str__`` and ``eval_term_b`` each call the fold
with a table of what a leaf and each operator make, so none of them keeps a
stack loop of its own.  This guard reads the source and fails on any other
function with a loop over a ``postfix``.
"""

import ast

from conftest import SOURCES, functions_using, package_functions_using


def loops_over_postfix(node: ast.AST) -> bool:
    if not isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        return False
    source = node.iter
    return (isinstance(source, ast.Name) and source.id == "postfix") or (
        isinstance(source, ast.Attribute) and source.attr == "postfix"
    )


def test_only_the_fold_loops_over_a_postfix():
    assert SOURCES
    assert package_functions_using(loops_over_postfix) == {"_fold"}


def test_guard_sees_loops_and_comprehensions_over_a_postfix():
    source = """
def depth(self):
    for token in self.postfix:
        pass


def text(t):
    return [token for token in t.postfix]


def fold(postfix):
    for token in postfix:
        pass


def builds(tokens):
    postfix = []
    for token in tokens:
        postfix.append(token)
    return tuple(postfix)
"""
    assert functions_using(ast.parse(source), loops_over_postfix) == {"depth", "text", "fold"}
