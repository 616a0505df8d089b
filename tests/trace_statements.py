"""Run the tier-1 tests and list every statement of ``src/popgraph`` that never ran.

    python tests/trace_statements.py

The tests run in this process under the standard library's ``trace`` module,
its hook set for new threads too, which counts each line that runs. A
statement is taken from the package's syntax tree and counts as run when any
of its lines ran.
Docstrings and ``def``, ``class`` and ``import`` statements are left out: they
run when a module is imported, whatever the tests do. The script exits
non-zero when a statement never ran or a test failed. Line events differ
between Python versions; the listing is exact on Python 3.11.
"""

import ast
import os
import sys
import threading
import trace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "popgraph")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(path):
    """(first line, last line) of every statement of the module at ``path``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED)
                  and node not in docstrings)


def main():
    # No ignoredirs: trace caches its ignore decision by a module's base name,
    # so ignoring site-packages would also ignore the package's data.py and
    # __init__.py, which share their names with hypothesis and numpy modules.
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)
    try:
        status = tracer.runfunc(
            pytest.main, ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        threading.settrace(None)
    modules = {os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py")}
    ran = {path: set() for path in modules}
    for name, line in tracer.results().counts:
        path = os.path.realpath(name)
        if path in ran:
            ran[path].add(line)
    missed = [f"{os.path.relpath(path, ROOT)}:{first}"
              + (f"-{last}" if last > first else "")
              for path in sorted(modules)
              for first, last in statements(path)
              if not ran[path].intersection(range(first, last + 1))]
    for where in missed:
        print(f"never ran: {where}")
    print(f"{len(missed)} statements of src/popgraph never ran")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
