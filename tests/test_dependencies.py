"""Every module the package imports is standard library, lyapdisp, or declared.

An import of an installed but undeclared package works on a development
machine and fails on a clean install.  This test reads
`[project].dependencies` from pyproject.toml and checks every import
statement in `src/lyapdisp` (at any depth, not only at module level)
against it.  Declared names are matched as import names after lowercasing
and mapping '-' to '_', which holds for every dependency declared so far.
"""

import ast
import pathlib
import re
import sys

import pytest

import lyapdisp

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

SRC = pathlib.Path(lyapdisp.__file__).parent
PYPROJECT = SRC.parent.parent / "pyproject.toml"


def declared_dependencies() -> set[str]:
    with PYPROJECT.open("rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def imported_modules() -> dict[str, set[str]]:
    """Top-level module name -> files of src/lyapdisp that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    return found


def test_every_import_is_stdlib_lyapdisp_or_declared():
    declared = declared_dependencies()
    imports = imported_modules()
    # both readers see the one dependency the package has today
    assert "numpy" in declared and "numpy" in imports
    allowed = set(sys.stdlib_module_names) | {"lyapdisp"} | declared
    undeclared = {name: sorted(files) for name, files in imports.items()
                  if name not in allowed}
    assert undeclared == {}
