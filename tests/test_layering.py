"""Module layering: a module imports private (``_``-prefixed) names from
no sibling but ``core``, which holds the parts the others share; no
module has code that ``python -O`` would drop or change; and only a fit
loads ``scipy.optimize``."""

import ast
import os
import subprocess
import sys
import textwrap
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


def test_only_a_fit_loads_scipy_optimize():
    # a fresh interpreter: this process has loaded scipy.optimize already.  The
    # root solves run on core._brent; fit_two_sided loads MINPACK on first use
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = textwrap.dedent("""\
        import sys
        import tempstable as ts, tempstable.cli
        p = ts.TemperedStableParams.create(1.0, 0.3, 3.0, 2.0, 0.6, 4.0)
        ts.DensityEvaluator(p).mode()
        ts.esscher_martingale(p, 0.04, 0.01)
        print("scipy.optimize" in sys.modules)
        ts.fit_two_sided(ts.cumulant_vector(p), p)
        print("scipy.optimize" in sys.modules)
    """)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["False", "True"]
