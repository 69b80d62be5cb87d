"""The package namespace: everything tbswap/__init__.py imports is exported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tbswap

# Imports the package and runs two CLI queries, then lists any scipy module
# loaded on the way. It runs in a fresh interpreter because the test
# helpers themselves import scipy.
NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import tbswap
import tbswap.cli as cli
queries = [
    ["fidelity", "swap", "--method", "both", "--eta", "0.6", "--nbar", "0.1", "--k", "4", "--json"],
    ["transducer", "--zeta-m", "0.9", "--zeta-o", "0.8", "--C", "1", "--temp", "0.05",
     "--freq", "5e9", "--json"],
]
for argv in queries:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_all_lists_every_public_import_and_resolves():
    tree = ast.parse(Path(tbswap.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(tbswap.__all__), sorted(public - set(tbswap.__all__))
    assert len(tbswap.__all__) == len(set(tbswap.__all__))
    for name in tbswap.__all__:
        assert hasattr(tbswap, name), name


def test_package_and_cli_run_without_scipy():
    src = str(Path(tbswap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
