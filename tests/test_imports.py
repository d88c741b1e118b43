"""Every name a module of `src/fscil`, `tests` or `demos` imports is used in that
module, and importing the protocol or the command-line interface loads no scipy
module (scipy is a test-only dependency)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """`line N: name` for each imported name never read as a name nor listed in `__all__`."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def _found(*dirs) -> list:
    return [f"{path.relative_to(ROOT)} {line}" for d in dirs for path in sorted(d.glob("*.py")) for line in unused_imports(path.read_text())]


def test_no_unused_imports_in_src():
    found = _found(ROOT / "src" / "fscil")
    assert not found, found


def test_no_unused_imports_in_tests_and_demos():
    found = _found(ROOT / "tests", ROOT / "demos")
    assert not found, found


def test_unused_import_check_flags_dead_names_only():
    source = "from __future__ import annotations\nimport time\nimport os.path\nfrom x import a, b as c\nc(os.sep)\n"
    assert unused_imports(source) == ["line 2: time", "line 4: a"]
    assert unused_imports("from os import path\n__all__ = ['path']\n") == []


def test_importing_the_protocol_or_the_cli_loads_no_scipy_module():
    # fresh interpreters: this one may already hold scipy from another test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for module in ("fscil.protocol", "fscil.cli"):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]", (module, out)
