"""Every module under src/, tools/ and tests/ uses each name it imports.
Package __init__ files are skipped (their imports are re-exports), and so
are ``from __future__`` imports."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finder_reports_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from typing import List, Optional\n"
              "def f(x: Optional[int]) -> None:\n"
              "    os.getcwd()\n")
    assert unused_imports(source) == [(2, "osp"), (3, "List")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for top in ("src", "tools", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []
