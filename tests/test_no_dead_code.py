"""Every function, class and method of the package is reached from the package.

A definition that only its own unit tests call is code that no scenario
runs.  The check is by name: each top-level function and class, and each
method, must be named somewhere in src/semiflat outside its own
definition, as a name, an attribute or a string (checks look some of
their callees up by name).  Imports do not count: an imported name must
also be used.  Dunder methods are called by the language and are skipped.
Names are not resolved, so a method that shares its name with another
attribute or method anywhere in the package passes; the package keeps
such names apart (`_PanelTable.cum_dist` is not `BaseProfile.dist`).
"""

import ast
from pathlib import Path

import semiflat

SRC = Path(semiflat.__file__).parent

# name -> why it stays although nothing in the package names it; each entry
# must still be unreferenced, so the list cannot outlive its reason
ALLOWED = {
    "positivity": "the acceptance gate calls it",
    "finite_kinds": "the acceptance gate calls it",
    "elliptic_metric_at": "the acceptance gate calls it",
    "ricci_scalar_residual": "test oracle; the jet Ricci-flatness check revives it",
    "euclidean_profile": "test oracle: the flat R^4 profile of the growth and SOB tests",
    "BaseProfile.dist": "the benchmark tracer wraps it; the tests use it as the "
                        "distance oracle of invert_dist",
}


def _definitions(tree: ast.Module):
    """(qualified name, plain name, node) of each top-level def, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """(name, node) of every name, attribute and string constant in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def _unreferenced() -> set[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))]
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    unreferenced = set()
    for tree in trees:
        for qualname, name, node in _definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(id(n) not in own for n in refs.get(name, ())):
                unreferenced.add(qualname)
    return unreferenced


def test_every_definition_is_referenced():
    assert _unreferenced() - ALLOWED.keys() == set()


def test_every_allowance_is_needed():
    assert ALLOWED.keys() - _unreferenced() == set()
