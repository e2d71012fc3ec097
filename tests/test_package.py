"""Tests for the package's public surface."""

import ast
import inspect
from pathlib import Path

import dnzeta

PACKAGE = Path(dnzeta.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def test_every_public_name_resolves():
    # A deleted name must not survive as a stale string in __all__.
    missing = [name for name in dnzeta.__all__ if not hasattr(dnzeta, name)]
    assert missing == []
    assert len(set(dnzeta.__all__)) == len(dnzeta.__all__)


def _reached_names():
    """Names each file imports by name, reads as <layer>.<name>, or calls by name.

    Returns (imported or read as an attribute anywhere, {module: names called in it}).
    """
    layers = {path.stem for path in PACKAGE.glob("*.py")}
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(BENCH.glob("*.py"))
    reached = set()
    called = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                reached.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in layers:
                    reached.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.setdefault(path.stem, set()).add(node.func.id)
    return reached, called


def test_every_public_function_is_reached():
    # Every function in __all__ backs a claim, a CLI path or a benchmark
    # workload: some module of the package (not __init__) or some bench
    # script imports it or reads it off its layer, or its own module calls it.
    # Test files do not count; a name only tests reach should go.
    reached, called = _reached_names()
    unreached = []
    for name in dnzeta.__all__:
        obj = getattr(dnzeta, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        if name not in reached and name not in called.get(home, set()):
            unreached.append(name)
    assert unreached == []
