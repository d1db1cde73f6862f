"""The package's modules import one another in one order, and the instance
model is defined in one of them.

``core`` comes first, then ``instances``, which owns the instance model and
the ids of graph solutions.  ``solvers`` and ``oracles`` each build on those
two and on nothing else, so the ground truth shares no code with the
weighted-sum kernels or with the algorithms.  ``algorithms`` adds
``solvers``, and ``cli`` may use them all.
"""

import ast
import pathlib

import wsapprox

PACKAGE = pathlib.Path(wsapprox.__file__).parent

# Each module of the package and the package modules it may import.
ALLOWED = {
    "core": set(),
    "instances": {"core"},
    "solvers": {"core", "instances"},
    "oracles": {"core", "instances"},
    "algorithms": {"core", "instances", "solvers"},
    "cli": {"core", "instances", "solvers", "oracles", "algorithms"},
    "__init__": {"core", "instances", "solvers", "oracles", "algorithms"},
    "__main__": {"cli"},
}

MODEL = {
    "Solution", "ExplicitInstance", "GraphKind", "Arc", "GraphInstance", "Instance",
    "UnreachableTarget", "DisconnectedGraph", "path_id", "tree_id",
}


def package_imports(tree):
    """The package modules that the imports anywhere in ``tree`` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("wsapprox."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "wsapprox"):
            if node.module in (None, "wsapprox"):  # from . import solvers
                yield from (a.name for a in node.names)
            else:
                yield node.module.removeprefix("wsapprox.")


def top_level_names(tree):
    """The classes, functions and names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_modules_import_in_one_order_and_only_instances_defines_the_model():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert set(trees) == set(ALLOWED)
    assert {name: set(package_imports(tree)) - ALLOWED[name] for name, tree in trees.items()} == {
        name: set() for name in trees
    }
    defined = {name: set(top_level_names(tree)) & MODEL for name, tree in trees.items()}
    assert defined == {name: MODEL if name == "instances" else set() for name in trees}
