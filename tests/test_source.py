"""Source hygiene checks on the ksgnslab package, using only the stdlib ast."""

import ast
from pathlib import Path

import ksgnslab

SRC = Path(ksgnslab.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Top-level imports of a module that no name in it reads or __all__ exports."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_top_level_imports():
    probe = "from __future__ import annotations\nimport os\nfrom numpy import fft, linalg\nfft.fft\n"
    assert unused_imports(probe) == ["os (line 2)", "linalg (line 3)"]
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
