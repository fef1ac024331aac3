"""Importing the library's entry points loads no numpy.

Every checking pipeline is pure Python, so a user's ``repro`` invocation
should not pay numpy's import time and memory.  Only the Fig. 6 analysis
helpers use numpy, and they import it inside the functions that need it.
The check runs in a fresh interpreter: this test process has usually
imported numpy already through other suites.
"""

import os
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
