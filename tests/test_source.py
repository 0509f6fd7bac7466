"""Checks on the source of src/chamberkit, read with ast.

Invariants are explicit checks that raise, never assert, which python -O
strips.  No nested function calls itself: the closure would refer to its own
cell, so every call would leave a reference cycle for the collector;
recursions are module-level functions instead.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "chamberkit")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def self_calling_closures(tree):
    """(line, name) of each function nested in another function whose body
    names the nested function itself."""
    found = set()
    for outer in _functions(tree):
        for inner in _functions(outer):
            if inner is not outer and any(
                    isinstance(node, ast.Name) and node.id == inner.name
                    for stmt in inner.body for node in ast.walk(stmt)):
                found.add((inner.lineno, inner.name))
    return sorted(found)


def test_scan_finds_a_self_calling_closure():
    tree = ast.parse("def outer(xs):\n"
                     "    def walk(x):\n"
                     "        return [walk(y) for y in x]\n"
                     "    def leaf(x):\n"
                     "        return x\n"
                     "    return walk(xs)\n")
    assert self_calling_closures(tree) == [(2, "walk")]


def test_no_assert_and_no_self_calling_closure():
    modules = list(_modules())
    assert len(modules) > 1
    asserts = [(name, node.lineno) for name, tree in modules
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []
    closures = [(name,) + hit for name, tree in modules
                for hit in self_calling_closures(tree)]
    assert closures == []
