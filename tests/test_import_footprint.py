"""What the library's modules import.

Importing the entry points loads no numpy.  Every checking pipeline is
pure Python, so a user's ``repro`` invocation should not pay numpy's
import time and memory.  Only the Fig. 6 analysis helpers use numpy,
and they import it inside the functions that need it.  The check runs
in a fresh interpreter: this test process has usually imported numpy
already through other suites.

The non-graph oracle family imports no graph module.  The feasibility
enumerator and the poly frontier closure decide acyclicity without a
constraint graph; a disagreement with the graph family is evidence
only while neither of them uses ``repro.graph``.  The one exception is
display and comparison only: ``PolySignatureSource.builder`` makes a
graph builder on first use, to render a witness cycle or to feed the
conventional baseline.
"""

import ast
import os
import pathlib
import subprocess
import sys

import repro

ENTRY_POINTS = ("repro.cli", "repro.harness", "repro.io", "repro.mutate",
                "repro.serve")


def test_entry_points_import_without_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "".join("import %s\n" % name for name in ENTRY_POINTS) + (
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: the non-graph oracle family, relative to the package directory
NON_GRAPH_FAMILY = ("feasible/enumerator.py", "checker/poly.py")


def _graph_imports(path):
    """(enclosing scope, inside a function) of each ``repro.graph`` import."""
    hits = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), True)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), in_function)
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module:
                names = [child.module] + ["%s.%s" % (child.module, alias.name)
                                          for alias in child.names]
            if any(name == "repro.graph" or name.startswith("repro.graph.")
                   for name in names):
                hits.append((".".join(scope), in_function))
            visit(child, scope, in_function)

    visit(ast.parse(path.read_text()), (), False)
    return hits


def test_non_graph_family_imports_no_graph_module():
    package = pathlib.Path(repro.__file__).parent
    module_level, in_functions = [], []
    for relative in NON_GRAPH_FAMILY:
        for scope, in_function in _graph_imports(package / relative):
            (in_functions if in_function else module_level).append(
                (relative, scope))
    assert module_level == []
    assert in_functions == [("checker/poly.py", "PolySignatureSource.builder")]
