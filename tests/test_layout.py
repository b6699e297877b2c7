"""Package layout guards: no `assert` in the library, and the
cross-check oracles stay off the production import path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert_statement():
    """Invariants raise explicitly: `python -O` strips assert."""
    found = []
    for path in sorted((SRC / "superweyl").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found


def test_production_modules_do_not_import_the_oracles():
    code = (
        "import importlib, pkgutil, sys, superweyl\n"
        "for m in pkgutil.iter_modules(superweyl.__path__):\n"
        "    if m.name != 'oracles':\n"
        "        importlib.import_module('superweyl.' + m.name)\n"
        "print('superweyl.oracles' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
