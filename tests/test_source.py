"""Checks on the source of src/chamberkit, read with ast.

Invariants are explicit checks that raise, never assert, which python -O
strips.  No nested function calls itself: the closure would refer to its own
cell, so every call would leave a reference cycle for the collector;
recursions are module-level functions instead.  No json.dump or json.dumps
call takes an indent, which makes json leave its C encoder.  The README's
table of enumeration guards quotes each cap as the constant in the code.
A public top-level name that no module of the library uses is library API
named in LIBRARY_API, so that a helper only the tests call lives under
tests/, and only hypersimplex imports the exact LP module.
"""

import ast
import importlib
import os
import re

from chamberkit import hypersimplex as hs
from chamberkit import series as se
from chamberkit import strata as st
from chamberkit import weights as wt

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "chamberkit")

# each row of the README's "Enumeration guards" table, with the constants
# its caps quote, in the order the row gives them
GUARDS = {
    "chamber complex `n`": (hs.MAX_CHAMBER_N,),
    "admissible polytopes / omega `n`": (hs.MAX_N, hs.MAX_CHAMBER_N),
    "weight-domain fine chambers `n`": (wt.MAX_FINE_N,),
    "`xi` / facet covers, walls through the cell": (wt.MAX_XI_PAIRS,),
    "semistable profile `n`": (wt.MAX_PROFILE_N,),
    "reduction divisors / stability classification `n`":
        (st.MAX_DIVISOR_N, wt.MAX_CLASSIFY_N),
    "listed nodal trees and chain strata `n` (`strata --list`)":
        (st.MAX_TREE_N,),
    "counted nodal and chain censuses `n` (`strata`, `census`)":
        (st.MAX_CENSUS_N,),
    "permutohedron faces `m`": (st.MAX_PERM_M,),
    "series order (direct / permutohedral / strata)":
        (se.MAX_ORDER, se.MAX_PERM_ORDER, se.MAX_ORDER),
}


# the public top-level names that no module of the library uses: the
# constraint builders and polytope queries of exactgeom, and queries that
# the CLI answers through other functions (stability_report, _xi_pass) or
# not at all
LIBRARY_API = {
    "exactgeom": {"affine_dimension", "eq", "ge", "gt", "le", "lt",
                  "relative_interior_point"},
    "strata": {"degeneration_label"},
    "weights": {"PAIR_OPTIONS", "facet_cover_count", "has_unit_subset",
                "locate_weight", "stability"},
}


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


def indented_json_calls(tree):
    """Line of each json.dump or json.dumps call given an indent: json then
    leaves its C encoder for the pure-Python one."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and any(kw.arg == "indent" for kw in node.keywords)]


def test_scan_finds_an_indented_json_call():
    tree = ast.parse("json.dumps(x, sort_keys=True)\n"
                     "json.dump(x, fh, indent=2)\n"
                     "text = json.dumps(x,\n    indent=None)\n")
    assert indented_json_calls(tree) == [2, 3]


def test_no_indented_json_call():
    calls = [(name, line) for name, tree in _modules()
             for line in indented_json_calls(tree)]
    assert calls == []


def readme_guards():
    """{quantity: caps} from the README's "Enumeration guards" table, the
    caps being the slash-separated integers that open the cap column."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Enumeration guards", 1)[1].split("\n## ", 1)[0]
    out = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("quantity", "---"):
            continue
        caps = re.match(r"\d+(?: / \d+)*", cells[1])
        out[cells[0]] = tuple(int(c) for c in caps.group().split(" / "))
    return out


def test_readme_guard_table_matches_the_caps():
    assert readme_guards() == GUARDS


def tracer_targets():
    """TRACED and MODULES of perfbench/tracer.py, read with ast: the
    (module, attribute) pairs the tracer patches by name, and the modules it
    patches them in."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("TRACED", "MODULES")}


def test_traced_names_resolve():
    # a refactor that moves or renames a traced function fails here, not in
    # a traced benchmark run
    targets = tracer_targets()
    missing = []
    for module in targets["MODULES"]:
        importlib.import_module("chamberkit." + module)
    for module, attribute in targets["TRACED"]:
        obj = importlib.import_module("chamberkit." + module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((module, attribute))
    assert len(targets["TRACED"]) > 1
    assert missing == []


def unused_public_names(modules):
    """{module: names} of the public top-level functions, classes and
    assigned names that no module of the given (name, tree) pairs loads,
    reaches as an attribute or imports by name."""
    defined = {}
    used = set()
    for name, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            for public in names:
                if not public.startswith("_"):
                    defined.setdefault(public, []).append(name[:-3])
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    out = {}
    for public, owners in defined.items():
        if public not in used:
            for owner in owners:
                out.setdefault(owner, set()).add(public)
    return out


def test_scan_finds_an_unused_public_name():
    tree = ast.parse("X = 1\n_Y = 2\n"
                     "def used():\n    return X\n"
                     "def unused():\n    return used()\n"
                     "class Kept:\n    pass\n")
    other = ast.parse("from .one import Kept\n")
    assert unused_public_names([("one.py", tree), ("two.py", other)]) == {
        "one": {"unused"}}


def test_unused_public_names_are_library_api():
    assert unused_public_names(list(_modules())) == LIBRARY_API


def exactgeom_importers(modules):
    """Names of the modules that import exactgeom, relatively or by its
    full name."""
    found = set()
    for name, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                targets = [node.module or ""]
                if node.level and not node.module:
                    targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                continue
            if any(t.split(".")[-1] == "exactgeom" for t in targets):
                found.add(name[:-3])
    return found


def test_scan_finds_exactgeom_imports():
    modules = [(name + ".py", ast.parse(text)) for name, text in (
        ("a", "from .exactgeom import lp_feasible\n"),
        ("b", "from . import exactgeom\n"),
        ("c", "import chamberkit.exactgeom as eg\n"),
        ("d", "from .ratutil import _rank\n"))]
    assert exactgeom_importers(modules) == {"a", "b", "c"}


def test_only_hypersimplex_imports_exactgeom():
    assert exactgeom_importers(list(_modules())) == {"hypersimplex"}
