"""The runtime package imports only the standard library, numpy and requests."""

import ast
import sys
from pathlib import Path

import graphbench

ALLOWED = {"numpy", "requests", "graphbench"}


def imported_packages(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_stdlib_numpy_or_requests():
    modules = sorted(Path(graphbench.__file__).parent.glob("*.py"))
    assert modules
    foreign = {f"{m.name}: {name}" for m in modules for name in imported_packages(m)
               if name not in ALLOWED and name not in sys.stdlib_module_names}
    assert not foreign
