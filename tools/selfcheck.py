#!/usr/bin/env python3
"""Determinism self-check for run-scope modules (CI gate).

Signatures, constraint graphs and checker verdicts must be bit-stable
across runs, machines and sharding layouts: the fleet merges shard
results by value, the serve daemon dedups signatures across clients,
and the bench harness diffs count snapshots exactly.  A stray
``random`` call, a wall-clock read, or iteration over an unordered
``set`` in those modules can silently break all of that.

This tool AST-scans the run-scope packages

    src/repro/checker/  src/repro/graph/  src/repro/instrument/
    src/repro/mcm/

(the order of a model's ``ppo_edges`` fixes every template graph's
adjacency order, and through it the collective checker's counts)
and fails on:

* ``import random`` / ``from random import ...`` — randomness belongs
  to the executors and samplers, which must take an explicit seed and
  live outside the checking core (seeded uses elsewhere go through the
  allowlist below);
* ``import time`` / ``from time import ...`` — wall-clock reads make
  output depend on the machine; timing belongs to ``repro.obs`` spans;
* iterating an unordered set: a ``for`` loop or comprehension whose
  iterable is a set literal, a set comprehension, or a direct
  ``set(...)`` / ``frozenset(...)`` call — and the same expressions
  passed straight to ``list`` / ``tuple`` / ``enumerate`` / ``iter``.
  Wrap them in ``sorted(...)`` instead; iteration order then stops
  depending on hash seeds.

Exit code 0 when clean, 1 with one ``path:line: message`` per
violation otherwise.  ``--json`` emits the violations as a document.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

#: packages whose output must be bit-stable (relative to the repo root)
RUN_SCOPE = ("src/repro/checker", "src/repro/graph", "src/repro/instrument",
             "src/repro/mcm")

#: modules whose import run-scope code may never need
BANNED_MODULES = ("random", "time")

#: consumers that freeze the iteration order of their argument
ORDER_SENSITIVE_CALLS = ("list", "tuple", "enumerate", "iter")

#: relative path -> rule names exempted there (e.g. a seeded sampler
#: that documents its determinism); currently empty on purpose
ALLOWLIST: dict = {}

#: rule identifiers
BANNED_IMPORT = "banned-import"
SET_ITERATION = "set-iteration"


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra (a | b, a - b, ...) stays a set
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def check_source(source: str, path: str) -> list:
    """Scan one module's source; returns ``(rule, line, message)`` rows."""
    tree = ast.parse(source, filename=path)
    violations = []

    def note(rule: str, line: int, message: str) -> None:
        violations.append((rule, line, message))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BANNED_MODULES:
                    note(BANNED_IMPORT, node.lineno,
                         "import of %r in run-scope code" % alias.name)
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root in BANNED_MODULES:
                note(BANNED_IMPORT, node.lineno,
                     "import from %r in run-scope code" % node.module)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                note(SET_ITERATION, node.lineno,
                     "for-loop over an unordered set; wrap in sorted(...)")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    note(SET_ITERATION, gen.iter.lineno,
                         "comprehension over an unordered set; wrap in "
                         "sorted(...)")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ORDER_SENSITIVE_CALLS and node.args \
                    and _is_set_expr(node.args[0]):
                note(SET_ITERATION, node.lineno,
                     "%s(...) over an unordered set; wrap in sorted(...)"
                     % node.func.id)
    return violations


def check_tree(root: Path) -> list:
    """Scan every run-scope module; returns ``(path, rule, line, msg)``."""
    rows = []
    for scope in RUN_SCOPE:
        base = root / scope
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            allowed = ALLOWLIST.get(rel, ())
            for rule, line, message in check_source(
                    path.read_text(), str(path)):
                if rule in allowed:
                    continue
                rows.append((rel, rule, line, message))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="determinism self-check for run-scope modules")
    parser.add_argument("--root", default=str(Path(__file__).parent.parent),
                        help="repository root (default: tools/..)")
    parser.add_argument("--json", action="store_true",
                        help="emit violations as one JSON document")
    args = parser.parse_args(argv)
    rows = check_tree(Path(args.root))
    if args.json:
        json.dump({"schema": "repro.selfcheck", "version": 1,
                   "scopes": list(RUN_SCOPE),
                   "violations": [{"path": p, "rule": r, "line": ln,
                                   "message": m}
                                  for p, r, ln, m in rows]},
                  sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for path, rule, line, message in rows:
            print("%s:%d: [%s] %s" % (path, line, rule, message))
        scanned = ", ".join(RUN_SCOPE)
        if rows:
            print("selfcheck: %d determinism violation%s in %s"
                  % (len(rows), "s" if len(rows) != 1 else "", scanned))
        else:
            print("selfcheck: %s are determinism-clean" % scanned)
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
