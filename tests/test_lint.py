"""Unused-import lint over src/, tests/ and perfbench/.

Standard library only: every name an import statement binds must be read
somewhere in the same module, or listed in its `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_detects_and_accepts():
    source = ("import os\nimport numpy.linalg\nfrom json import dumps as d, loads\n"
              "__all__ = ['loads']\nprint(numpy.linalg, d)\n")
    assert unused_imports(source) == [(1, "os")]


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []
