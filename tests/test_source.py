"""Checks on the source of src/chamberkit, read with ast.

Invariants are explicit checks that raise, never assert, which python -O
strips.  No nested function calls itself: the closure would refer to its own
cell, so every call would leave a reference cycle for the collector;
recursions are module-level functions instead.  No json.dump or json.dumps
call takes an indent, which makes json leave its C encoder.  The README's
table of enumeration guards quotes each cap as the constant in the code.
A public top-level name that no module of the library uses is library API
named in LIBRARY_API: a load counts as a use only where no enclosing
function binds the name, and an attribute only on a module imported with a
relative `from . import`.  A public method, property or annotated field of
a public class that no module of the library reads as an attribute, matched
by name, is one named in LIBRARY_MEMBERS, each with its reason; so a helper
only the tests call lives under tests/ (tests/helpers.py), with the object
it queried as its first argument.  The README's library layout table names exactly the
modules of the package, and only hypersimplex imports the exact LP module.
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
# constraint builders and polytope queries of exactgeom, the word builder
# and differential of the facet differential algebra, which tests exercise
# and no command calls, and queries that the CLI answers through other
# functions (stability_report, _xi_pass) or not at all
LIBRARY_API = {
    "exactgeom": {"affine_dimension", "eq", "ge", "gt", "le", "lt",
                  "relative_interior_point"},
    "series": {"differential", "word"},
    "strata": {"degeneration_label"},
    "weights": {"facet_cover_count", "locate_weight", "stability"},
}

# the public members of public classes that no module of the library reads,
# as Class.member, each with the reason it stays in the library
LIBRARY_MEMBERS = {
    "exactgeom": {
        "LinConstraint.holds": "checks a point against one constraint; it "
                               "leaves with the rest of the exact LP module",
    },
    "hypersimplex": {
        "ChamberComplex.adjacency": "the facet incidences of the complex, "
                                    "for certificates across its walls",
    },
    "strata": {
        "BuildingLattice.generators": "the triple coincidences the building "
                                      "set is closed from",
    },
    "weights": {
        "WeightLocation." + field: "part of the result of the library call "
                                   "locate_weight"
        for field in ("cell_id", "wall", "one_contacts", "chamber")
    },
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


def readme_table(heading):
    """The rows of the table under the README's given heading, as lists of
    stripped cells, its header row and rule left out."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## " + heading + "\n", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    return rows[2:]


def readme_guards():
    """{quantity: caps} from the README's "Enumeration guards" table, the
    caps being the slash-separated integers that open the cap column."""
    out = {}
    for cells in readme_table("Enumeration guards"):
        caps = re.match(r"\d+(?: / \d+)*", cells[1])
        out[cells[0]] = tuple(int(c) for c in caps.group().split(" / "))
    return out


def test_readme_guard_table_matches_the_caps():
    assert readme_guards() == GUARDS


def test_readme_layout_table_names_every_module():
    listed = [cells[0] for cells in readme_table("Library layout")]
    modules = {"`chamberkit.%s`" % name[:-3] for name, _ in _modules()
               if name != "__init__.py"}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules


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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope):
    """The names a function, lambda or comprehension binds in its own
    scope: its parameters or loop targets, and what its body assigns,
    imports or defines, less the names it declares global.  Nested scopes
    bind their own."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        bound = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
                 + [a.vararg, a.kwarg] if arg}
        todo = (list(scope.body) if isinstance(scope.body, list)
                else [scope.body])
    else:
        bound = set()
        todo = [gen.target for gen in scope.generators]
    declared = set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def free_loads(node, bound=frozenset()):
    """The names loaded under node where no enclosing function, lambda or
    comprehension binds them."""
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in bound:
            yield node.id
        return
    if isinstance(node, _SCOPES):
        bound = bound | _local_names(node)
    for child in ast.iter_child_nodes(node):
        yield from free_loads(child, bound)


def unused_public_names(modules):
    """{module: names} of the public top-level functions, classes and
    assigned names that no module of the given (name, tree) pairs loads
    unshadowed, reaches as an attribute of a module imported with a relative
    `from . import` or imports by name.  A local variable or an attribute of
    any other object that shares a public name's spelling is no use of it."""
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
        used.update(free_loads(tree))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)]
        aliases = {alias.asname or alias.name for node in imports
                   if node.level and not node.module for alias in node.names}
        used.update(alias.name for node in imports for alias in node.names)
        used.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases)
    out = {}
    for public, owners in defined.items():
        if public not in used:
            for owner in owners:
                out.setdefault(owner, set()).add(public)
    return out


def test_scan_finds_an_unused_public_name():
    # word is only ever a loop variable, differential only a method of some
    # object and walk only a parameter; COUNT is assigned under a global
    # statement, and bump is reached through the module alias o
    tree = ast.parse("X = 1\n_Y = 2\nCOUNT = 0\n"
                     "def used():\n    return X\n"
                     "def unused():\n    return used()\n"
                     "class Kept:\n    pass\n"
                     "def word():\n    return 0\n"
                     "def walk(xs):\n    return [w for word in xs for w in word]\n"
                     "def differential(p):\n    return p.differential()\n"
                     "def bump():\n    global COUNT\n"
                     "    for word in range(3):\n"
                     "        COUNT = COUNT + word\n")
    other = ast.parse("from .one import Kept\nfrom . import one as o\n"
                      "def _call(walk):\n    return o.bump(), walk\n")
    assert unused_public_names([("one.py", tree), ("two.py", other)]) == {
        "one": {"unused", "word", "walk", "differential"}}


def test_unused_public_names_are_library_api():
    assert unused_public_names(list(_modules())) == LIBRARY_API


def unused_public_members(modules):
    """{module: names} of the methods, properties and annotated fields, as
    Class.member, of the public classes of the given (name, tree) pairs
    that no module reads as an attribute, matched by member name alone.
    Dunders and other private members are left out."""
    defined = {}
    read = set()
    for name, tree in modules:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    member = node.name
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    member = node.target.id
                else:
                    continue
                if not member.startswith("_"):
                    defined.setdefault(member, []).append(
                        (name[:-3], cls.name + "." + member))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    out = {}
    for member, owners in defined.items():
        if member not in read:
            for owner, qualified in owners:
                out.setdefault(owner, set()).add(qualified)
    return out


def test_scan_finds_an_unused_public_member():
    tree = ast.parse("@dataclass\n"
                     "class Shape:\n"
                     "    size: int\n"
                     "    label: str\n"
                     "    def grow(self):\n        return 1\n"
                     "    @property\n"
                     "    def area(self):\n        return 0\n"
                     "    def __len__(self):\n        return 0\n"
                     "class _Hidden:\n"
                     "    def walk(self):\n        return 0\n")
    other = ast.parse("def name(shape):\n    return shape.label\n")
    assert unused_public_members([("one.py", tree), ("two.py", other)]) == {
        "one": {"Shape.size", "Shape.grow", "Shape.area"}}


def test_unused_public_members_are_library_members():
    assert unused_public_members(list(_modules())) == {
        module: set(reasons) for module, reasons in LIBRARY_MEMBERS.items()}


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
