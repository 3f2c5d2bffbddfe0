"""Code hygiene: every name a module of the package imports is used there,
every module-level function of the package is used, and importing the
package loads none of its modules."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "inversive"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names imported by a module's source that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("import math, os.path\nfrom fractions import Fraction\n"
              "from operator import truediv as div\nmath.sqrt(2)\n")
    assert unused_imports(source) == ["Fraction", "div", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _references(node):
    """How often each name is read under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unused_functions(sources, test_sources):
    """Module-level functions of the package sources that are read nowhere
    in them outside their own definition, nor anywhere in the tests."""
    trees = [ast.parse(source) for source in sources]
    used = sum(map(_references, trees), Counter())
    tested = sum((_references(ast.parse(s)) for s in test_sources), Counter())
    return sorted(
        node.name for tree in trees for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and used[node.name] == _references(node)[node.name]
        and not tested[node.name])


def test_unused_functions_are_found():
    source = ("def called(): return recursive(1)\n"
              "def recursive(n): return recursive(n - 1) if n else 0\n"
              "def alone(n): return alone(n - 1) if n else 0\n"
              "def tested(): pass\n"
              "TABLE = {'f': called}\n")
    assert unused_functions([source], ["m.tested()"]) == ["alone"]


def test_every_function_is_used():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unused_functions(sources, tests) == []


def test_importing_the_package_loads_no_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = ("import sys, inversive; print(sorted(m for m in sys.modules "
            "if m.startswith('inversive.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
