"""Module layering: a module imports private (``_``-prefixed) names from
no sibling but ``core``, which holds the parts the others share; and no
module has code that ``python -O`` would drop or change."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tempstable"


def _modules(src: Path) -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(src.glob("*.py"))]


def _private_imports(src: Path) -> list[str]:
    """``module: sibling.name`` for each private name that a module of
    ``src`` imports by a relative import from a sibling other than core."""
    found = []
    for path, tree in _modules(src):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "core":
                found += [f"{path.stem}: {node.module or '.'}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def _optimize_dependent(tree: ast.Module) -> list[str]:
    """``line: what`` for each ``assert`` statement, ``__debug__`` name and
    ``sys.flags.optimize`` read in ``tree``: all that ``python -O`` changes
    in a module's behaviour (``-OO`` also strips docstrings, which no code
    here reads)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"{node.lineno}: assert")
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append(f"{node.lineno}: __debug__")
        elif (isinstance(node, ast.Attribute) and node.attr == "optimize"
              and isinstance(node.value, ast.Attribute) and node.value.attr == "flags"
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "sys"):
            found.append(f"{node.lineno}: sys.flags.optimize")
    return found


def test_private_names_come_only_from_core():
    assert len(list(SRC.glob("*.py"))) > 5
    assert _private_imports(SRC) == []


def test_no_code_depends_on_python_optimize():
    # a check written as `assert` vanishes under -O; raise a typed error instead
    modules = _modules(SRC)
    assert len(modules) > 5
    assert [f"{path.stem}:{hit}" for path, tree in modules for hit in _optimize_dependent(tree)] == []


@pytest.mark.parametrize("source, hit", [
    ("def f(x):\n    assert x > 0\n", "2: assert"),
    ("if __debug__:\n    pass\n", "1: __debug__"),
    ("import sys\nlevel = sys.flags.optimize\n", "2: sys.flags.optimize"),
])
def test_optimize_dependent_code_is_found(source, hit):
    assert _optimize_dependent(ast.parse(source)) == [hit]
