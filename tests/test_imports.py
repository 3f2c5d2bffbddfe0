"""Code hygiene: every name a module of the package imports is used there,
every module-level function and class of the package is used by the
package, the benchmark or the README, every option of a public function is
set by some call, importing the package loads none of its modules, only
linalg._compiled builds code at run time, and the lines that tell
the two scalar modes apart and the public module-level names stay within
their bounds."""

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


def code_builders(source):
    """The name of the innermost function around each use of eval or exec
    in a module's source, in source order, or "<module>" outside any
    function.  A use is a call, a reference, or a string constant naming
    one, as getattr may."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.value if isinstance(node, ast.Constant) else None)
        if name in ("eval", "exec"):
            sites.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sites


def test_code_builders_are_found():
    source = ("def kernels():\n    return eval('lambda: 0')\n"
              "def outer():\n    def inner():\n        exec('x = 1')\n"
              "    return inner\n"
              "run = getattr(__builtins__, 'exec')\n"
              "doc = 'eval and exec are named here, not called'\n")
    assert code_builders(source) == ["kernels", "inner", "<module>"]


def test_generated_code_comes_from_the_row_kernels_alone():
    # the only code the package builds at run time is the kernels that
    # linalg generates from ints, each through linalg._compiled
    sites = {(path.name, function) for path in MODULES
             for function in code_builders(path.read_text())}
    assert sites == {("linalg.py", "_compiled")}


# a line that tells the exact and float modes apart, as ROADMAP aim 2
# counts them: grep -c "mode == EXACT\|mode != EXACT\|__class__ is float\|
# mode_of(\|all_exact(\|is_exact(\|== FLOAT" over src/inversive/*.py
MODE_BRANCH = re.compile(r"mode == EXACT|mode != EXACT|__class__ is float|"
                         r"mode_of\(|all_exact\(|is_exact\(|== FLOAT")
# the count may fall; a change that needs a new branch raises this bound in
# its own diff and says why
MODE_BRANCH_BOUND = 45


def mode_branches(source):
    """The number of lines of a module's source that match MODE_BRANCH,
    each line once, as grep -c counts them."""
    return sum(1 for line in source.splitlines() if MODE_BRANCH.search(line))


def test_mode_branches_are_counted():
    source = ("if mode == EXACT and is_exact(x):\n"
              "    y = mode_of(v) if m.__class__ is float else FLOAT\n"
              "mode = EXACT\nexact = all_exact\n")
    assert mode_branches(source) == 2


def test_mode_branches_stay_within_their_bound():
    counts = {path.name: mode_branches(path.read_text()) for path in MODULES}
    assert sum(counts.values()) <= MODE_BRANCH_BOUND, counts


# the count may fall; a change that adds a public name raises this bound in
# its own diff and says why
PUBLIC_NAME_BOUND = 82


def public_names(source):
    """The module-level names of a module's source without a leading
    underscore, as ROADMAP aim 2 counts them: functions, classes and the
    names that assignments bind."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_public_names_are_counted():
    source = ("A = _B = 1\nC, (D, _e) = 2, (3, 4)\nF: int = 5\n"
              "def g(): h = 6\ndef _i(): pass\nclass J: K = 7\n"
              "if A:\n    L = 8\nimport m\n")
    assert public_names(source) == ["A", "C", "D", "F", "g", "J"]


def test_public_names_stay_within_their_bound():
    counts = {path.name: len(public_names(path.read_text()))
              for path in MODULES}
    assert sum(counts.values()) <= PUBLIC_NAME_BOUND, counts
