"""Module layering: a module imports private (``_``-prefixed) names from
no sibling but ``core``, which holds the parts the others share."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tempstable"


def _private_imports(src: Path) -> list[str]:
    """``module: sibling.name`` for each private name that a module of
    ``src`` imports by a relative import from a sibling other than core."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "core":
                found += [f"{path.stem}: {node.module or '.'}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_names_come_only_from_core():
    assert len(list(SRC.glob("*.py"))) > 5
    assert _private_imports(SRC) == []
