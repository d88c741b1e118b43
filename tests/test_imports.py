"""Every name a `src/fscil` module imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fscil"


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


def test_no_unused_imports_in_src():
    found = [f"{path.name} {line}" for path in sorted(SRC.glob("*.py")) for line in unused_imports(path.read_text())]
    assert not found, found


def test_unused_import_check_flags_dead_names_only():
    source = "from __future__ import annotations\nimport time\nimport os.path\nfrom x import a, b as c\nc(os.sep)\n"
    assert unused_imports(source) == ["line 2: time", "line 4: a"]
    assert unused_imports("from os import path\n__all__ = ['path']\n") == []
