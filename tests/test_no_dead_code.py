"""Every function, class and method of the package is reached from the package,
every parameter and field is set or read there, and every module-level
constant is read there (the later sections of the file).

A definition that only its own unit tests call is code that no scenario
runs.  The check is by name: each top-level function and class, and each
method, must be named somewhere in src/semiflat outside its own
definition, as a name, an attribute or a string (checks look some of
their callees up by name).  Imports do not count: an imported name must
also be used.  Dunder methods are called by the language and are skipped.
Names are not resolved, so a method that shares its name with another
attribute or method anywhere in the package passes; the package keeps
such names apart (`_PanelTable.cum_dist` is not `BaseProfile.dist`).
Where it does not, the guard is blind: `LocalModel.label`, whose one caller
is the acceptance gate, passes on the `label` calls of `FiberType` and
`ProductModel`.
"""

import ast
from pathlib import Path

import semiflat

SRC = Path(semiflat.__file__).parent

# name -> why it stays although nothing in the package names it; each entry
# must still be unreferenced, so the list cannot outlive its reason
ALLOWED = {
    "finite_kinds": "the acceptance gate calls it",
    "ProductModel.deck_multipliers": "the acceptance gate calls it",
    "ricci_scalar_residual": "test oracle; the jet Ricci-flatness check revives it",
    "first_partial": "test oracle: the pointwise formula closedness_residual reproduces "
                     "bit for bit",
    "eisenstein_g4_g6": "the acceptance gate calls it; the checks take G_4 and G_6 "
                        "from EllipticData.lattice",
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


# ---------------------------------------------------------------------------
# parameters and fields
# ---------------------------------------------------------------------------
#
# A parameter with a default that no call in the package passes, or a
# dataclass field that nothing reads, is a setting no scenario can change:
# it doubles the configurations to test and serves none.  Calls are matched
# to definitions by name, as above; a call passes a parameter by position,
# by keyword, or through *args / **kwargs.  A class is called by its own
# name: its dataclass fields or its __init__ parameters.

# "function.param" or "Class.field" -> why it stays although no call in the
# package passes it; each entry must still be unpassed
ALLOWED_PARAMS = {
    "wp.radius": "test oracle: test_weierstrass doubles the cut radius to check the "
                 "Laurent tail",
    "run_scenario.log": "the tests capture the per-check status lines",
    "Report.results": "an accumulator: run_scenario appends each check's result",
    "CheckResult.wall_time": "set by run_scenario once the check has run",
    "main.argv": "the tests pass the argument list; the console script passes none",
    "ricci_scalar_residual.scales": "test oracle (ALLOWED above); its tests pass the "
                                    "chart scales",
}

# "Class.field" -> why it stays although nothing in the package reads it
ALLOWED_FIELDS = {
    "SiegelData.S": "the acceptance gate reads the symplectic basis change",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _set_after_init(value: ast.expr | None) -> bool:
    """Whether a field's value is `field(init=False)`: the class sets it,
    so it is no parameter."""
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _fields(node: ast.ClassDef, params_only: bool = False):
    """(name, has default) of each field of a dataclass, in order; with
    params_only, of each field its constructor takes."""
    for item in node.body:
        if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and not (params_only and _set_after_init(item.value))):
            yield item.target.id, item.value is not None


def _signatures(tree: ast.Module):
    """(qualified name, callee name, [(param, positional index or None, has default)])
    of each function, method, nested function and dataclass constructor."""

    def params(fn: ast.FunctionDef, skip: int):
        a = fn.args
        positional = a.posonlyargs + a.args
        first_default = len(positional) - len(a.defaults)
        out = [(p.arg, i - skip, i >= first_default)
               for i, p in enumerate(positional) if i >= skip]
        out += [(p.arg, None, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
        return out

    def visit(node: ast.AST, owner: ast.ClassDef | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    yield child.name, child.name, [(f, i, d) for i, (f, d)
                                                   in enumerate(_fields(child, True))]
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                if child.name == "__init__" and owner is not None:
                    yield owner.name, owner.name, params(child, 1)
                elif not (child.name.startswith("__") and child.name.endswith("__")):
                    qual = f"{owner.name}.{child.name}" if owner is not None else child.name
                    yield qual, child.name, params(child, 1 if method else 0)
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


def _calls(trees):
    """callee name -> [(positional count, keywords, splat)] of each call."""
    calls: dict[str, list] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            star = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords if k.arg is not None},
                 star or any(k.arg is None for k in node.keywords)))
    return calls


def _trees():
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))]


def _unpassed() -> set[str]:
    trees = _trees()
    calls = _calls(trees)
    unpassed = set()
    for tree in trees:
        for qualname, name, params in _signatures(tree):
            for param, index, default in params:
                if not default:
                    continue
                if not any(splat or param in keywords
                           or (index is not None and index < npos)
                           for npos, keywords, splat in calls.get(name, ())):
                    unpassed.add(f"{qualname}.{param}")
    return unpassed


def _unread_fields() -> set[str]:
    trees = _trees()
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread |= {f"{node.name}.{f}" for f, _ in _fields(node) if f not in read}
    return unread


def test_every_defaulted_parameter_is_passed():
    assert _unpassed() - ALLOWED_PARAMS.keys() == set()


def test_every_parameter_allowance_is_needed():
    assert ALLOWED_PARAMS.keys() - _unpassed() == set()


def test_every_dataclass_field_is_read():
    assert _unread_fields() - ALLOWED_FIELDS.keys() == set()


def test_every_field_allowance_is_needed():
    assert ALLOWED_FIELDS.keys() - _unread_fields() == set()


# ---------------------------------------------------------------------------
# module-level constants
# ---------------------------------------------------------------------------
#
# A module-level name that nothing in the package reads is a table or a
# setting that no scenario consults: a leftover once its readers derive the
# value.  Dunders (`__version__`) are read by tools, not the package.


def _constants(tree: ast.Module):
    """Each name a module-level assignment binds, dunders skipped."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not (name.id.startswith("__")
                                                       and name.id.endswith("__")):
                    yield name.id


def test_every_module_constant_is_read():
    trees = _trees()
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert {name for tree in trees for name in _constants(tree)} - read == set()


# ---------------------------------------------------------------------------
# the reasons of the allowances
# ---------------------------------------------------------------------------
#
# A reason that names the code reaching an entry holds only while that code
# names it: the acceptance gate, or the benchmark tracer (which the package
# does not import).

CALLERS = {
    "the acceptance gate": Path(__file__).with_name("test_acceptance.py"),
    "the benchmark tracer": Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py",
}


def _names_in(path: Path) -> set[str]:
    return {name for name, _ in _references(ast.parse(path.read_text(encoding="utf-8")))}


def test_every_named_caller_names_its_entry():
    named = {caller: _names_in(path) for caller, path in CALLERS.items()}
    # the name each entry needs: a definition's or a field's own name, and
    # the function of a parameter
    entries = [(key, key.rsplit(".", 1)[-1], reason)
               for key, reason in (*ALLOWED.items(), *ALLOWED_FIELDS.items())]
    entries += [(key, key.rsplit(".", 1)[0], reason) for key, reason in ALLOWED_PARAMS.items()]
    unnamed = {key for key, name, reason in entries for caller in CALLERS
               if caller in reason and name not in named[caller]}
    assert unnamed == set()
