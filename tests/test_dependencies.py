"""The package imports nothing but the standard library, itself and the
dependencies ``pyproject.toml`` declares, so installing it installs all it needs."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def declared_dependencies():
    """The names in ``pyproject.toml``'s ``[project] dependencies`` list. Each
    is also the name its package is imported by."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    return set(re.findall(r'"([A-Za-z0-9_]+)', listed))


def imported_modules(path):
    """The top-level name of every module an ``import`` in ``path`` names;
    a relative import is the package's own."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | declared_dependencies() | {"popgraph"}
    modules = sorted((ROOT / "src" / "popgraph").glob("*.py"))
    assert modules
    undeclared = [(path.name, name) for path in modules for name in imported_modules(path)
                  if name not in allowed]
    assert undeclared == []
