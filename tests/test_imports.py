"""Code hygiene: every name a module of the package imports is used there,
every module-level function and class of the package is used by the
package, the benchmark or the README, every option of a public function is
set by some call, and importing the package loads none of its modules."""

import ast
import itertools
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "inversive"
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
README = TESTS.parent / "README.md"
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
    """How often each name is read under node: as a name, as an attribute,
    or as a string constant equal to it, as a table may name a function."""
    return Counter(n.id if isinstance(n, ast.Name) else
                   n.attr if isinstance(n, ast.Attribute) else n.value
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   or isinstance(n, ast.Constant) and isinstance(n.value, str))


def unused_functions(sources, bench_sources, readme):
    """Module-level functions and classes of the package sources that are
    read nowhere in them outside their own definition, nowhere in the bench
    sources, and are no word of the README text.  A call from the tests is
    no use: what only tests call belongs with them."""
    trees = [ast.parse(source) for source in sources]
    used = sum(map(_references, trees), Counter())
    benched = sum((_references(ast.parse(s)) for s in bench_sources),
                  Counter())
    words = set(re.findall(r"\w+", readme))
    return sorted(
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and used[node.name] == _references(node)[node.name]
        and not benched[node.name] and node.name not in words)


def test_unused_functions_are_found():
    source = ("def called(): return recursive(1)\n"
              "def recursive(n): return recursive(n - 1) if n else 0\n"
              "def alone(n): return alone(n - 1) if n else 0\n"
              "def named(): pass\n"
              "def benched(): pass\n"
              "def documented(): pass\n"
              "def tested(): pass\n"
              "class Alone:\n    def m(self): return Alone()\n"
              "class Kept: pass\n"
              "TABLE = {'f': called, 'g': 'named', 'k': Kept}\n")
    # a test calls tested(), which the guard does not read
    assert unused_functions([source], ["m.benched()"],
                            "Call `m.documented()`.") == [
        "Alone", "alone", "tested"]


def test_every_function_is_used():
    sources = [p.read_text() for p in MODULES]
    bench = [p.read_text() for p in sorted(BENCH.rglob("*.py"))]
    assert unused_functions(sources, bench, README.read_text()) == []


def _public_functions(tree):
    """(qualified name, definition, whether a method) of each public
    module-level function and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield f"{node.name}.{f.name}", f, True


def _defaulted(function, method):
    """(position or None, name) of each defaulted parameter; a method's
    positions leave out its self or cls, a keyword-only one has none."""
    args = function.args
    positional = args.posonlyargs + args.args
    if method and not any(getattr(d, "id", None) == "staticmethod"
                          for d in function.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    return ([(i, p.arg) for i, p in enumerate(positional) if i >= first]
            + [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def unused_options(sources, other_sources):
    """The defaulted parameters of the public functions and methods of the
    package sources that no call in them or in the other sources passes, by
    keyword or by position, as "function(parameter)".  A call is matched by
    the name it calls; arguments from *args or **kwargs pass nothing, as
    their length and keys are not known."""
    calls = defaultdict(list)  # name -> (positional count, keywords) per call
    for source in itertools.chain(sources, other_sources):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                count = sum(1 for _ in itertools.takewhile(
                    lambda a: not isinstance(a, ast.Starred), node.args))
                calls[name].append((count, {k.arg for k in node.keywords}))
    return sorted(
        f"{qualified}({name})"
        for source in sources
        for qualified, function, method in _public_functions(ast.parse(source))
        for position, name in _defaulted(function, method)
        if not any(name in keywords or (position is not None and position < count)
                   for count, keywords in calls[function.name]))


def test_unused_options_are_found():
    source = ("def f(a, b=1, c=2, *, d=3): pass\n"
              "def _private(x=1): pass\n"
              "class C:\n"
              "    def m(self, x, y=0, z=0): pass\n"
              "    @staticmethod\n"
              "    def s(x=0): pass\n"
              "f(1, 2)\n"
              "C().m(1, 2)\n")
    calls = ["f(0, d=4)", "C.s(*args)", "C().m(0, **kw)"]
    assert unused_options([source], calls) == ["C.m(z)", "C.s(x)", "f(c)"]


def test_every_option_is_used():
    sources = [p.read_text() for p in MODULES]
    others = [p.read_text() for p in sorted(TESTS.glob("*.py"))
              + sorted(BENCH.rglob("*.py"))]
    assert unused_options(sources, others) == []


def test_importing_the_package_loads_no_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = ("import sys, inversive; print(sorted(m for m in sys.modules "
            "if m.startswith('inversive.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
