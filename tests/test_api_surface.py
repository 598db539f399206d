"""Every public name of the package has a caller inside the package.

A public function that only tests call is a second path to the same number
that nothing else keeps honest.  So each module's public names (its
`__all__` plus every top-level definition without a leading underscore) and
the public methods, properties and annotated fields of its classes must
be referenced somewhere in `src/lyapdisp` outside their own definition,
with no exceptions.  The reference implementations the tests check the package
against live in `tests/oracles.py`, outside the package.

References are found by name in the syntax tree: a bare name or an
attribute read.  An import, a string in `__all__` or a keyword argument is
not a reference.  Methods and fields are matched by attribute name alone,
so one sharing its name with another object's attribute passes unnoticed.
"""

import ast
import importlib
import pathlib
from collections import Counter

import pytest

import lyapdisp

SRC = pathlib.Path(lyapdisp.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
TREES = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}


def _references(node) -> Counter:
    """Names loaded and attributes read anywhere below node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
    return found


TOTAL = sum((_references(tree) for tree in TREES.values()), Counter())


def _module(name):
    package = "lyapdisp" if name == "__init__" else f"lyapdisp.{name}"
    return importlib.import_module(package)


def _definitions(tree):
    """(name, node) for every top-level definition of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _callers(name, definition) -> int:
    own = _references(definition)[name] if definition is not None else 0
    return TOTAL[name] - own


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = _module(module)
    names = getattr(mod, "__all__", ())
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing: {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_callers(module):
    definitions = dict(_definitions(TREES[module]))
    public = set(getattr(_module(module), "__all__", ())) | set(definitions)
    uncalled = sorted(
        name for name in public
        if not name.startswith("_")
        and _callers(name, definitions.get(name)) == 0
    )
    assert not uncalled, f"public names of {module} nothing in src calls: {uncalled}"


def _class_members(module, kind):
    """(class, name, node) for each public member of type kind of the
    module's public classes."""
    for node in TREES[module].body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for member in node.body:
            if not isinstance(member, kind):
                continue
            if isinstance(member, ast.FunctionDef):
                name = member.name
            elif isinstance(member.target, ast.Name):
                name = member.target.id
            else:
                continue
            if not name.startswith("_"):
                yield node.name, name, member


@pytest.mark.parametrize("module", MODULES)
def test_public_methods_have_callers(module):
    uncalled = [f"{cls}.{name}"
                for cls, name, member in _class_members(module, ast.FunctionDef)
                if _callers(name, member) == 0]
    assert not uncalled, f"methods in {module} nothing in src calls: {uncalled}"


@pytest.mark.parametrize("module", MODULES)
def test_public_fields_are_read(module):
    """An annotated class field (a dataclass field) nothing reads is data
    the package carries for no one."""
    unread = [f"{cls}.{name}"
              for cls, name, member in _class_members(module, ast.AnnAssign)
              if _callers(name, member) == 0]
    assert not unread, f"fields in {module} nothing in src reads: {unread}"
