"""The defining relations are written once, in ``words._RELATIONS``.

``words._rewrite`` is the one function that reads the rows: ``apply_relation``
and the tests' table-driven oracle go through it.  ``sx_decompose`` moves an
x letter by the closed rule and reads no table, so it needs no cache either;
the one ``lru_cache`` left in the package is ``words._letter``, which maps a
token to its code.  This guard reads the source and fails on any other
reader of ``_RELATIONS`` or any other cached function.
"""

import ast

from conftest import SOURCES, functions_using, package_functions_using

CACHES = {"lru_cache", "cache"}


def reads_relations(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "_RELATIONS") or (
        isinstance(node, ast.Attribute) and node.attr == "_RELATIONS"
    )


def cached_functions(tree: ast.AST) -> set[str]:
    """The names of the functions with a decorator that names a cache."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            (isinstance(inner, ast.Name) and inner.id in CACHES)
            or (isinstance(inner, ast.Attribute) and inner.attr in CACHES)
            for decorator in node.decorator_list
            for inner in ast.walk(decorator)
        )
    }


def test_only_rewrite_reads_the_relations():
    assert SOURCES
    assert package_functions_using(reads_relations) == {"_rewrite"}


def test_only_the_token_reader_is_cached():
    cached = {
        (path.stem, name)
        for path in SOURCES
        for name in cached_functions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert cached == {("words", "_letter")}


def test_guard_sees_reads_and_caches_in_any_function():
    source = """
import functools
from functools import cache, lru_cache


@lru_cache(maxsize=4096)
def step(x, s):
    for row in _RELATIONS:
        pass


@functools.lru_cache
def plain(x):
    return x


@cache
def rows(rule):
    def inner():
        return words._RELATIONS[rule]
    return inner()


def uncached():
    return 1
"""
    tree = ast.parse(source)
    assert functions_using(tree, reads_relations) == {"step", "rows", "inner"}
    assert cached_functions(tree) == {"step", "plain", "rows"}
