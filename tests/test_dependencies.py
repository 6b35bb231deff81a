"""The runtime package imports only the standard library, numpy and
requests, and holds only code that a command or the benchmark's tracer
reaches."""

import ast
import sys
from pathlib import Path

import graphbench
from test_tracing_targets import load_targets

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


def unreached_public_names(modules: list[Path], extra_roots: set[str]) -> list[str]:
    """Public top-level functions and classes that nothing live refers to.

    Module-level code and `extra_roots` are live; a top-level def is live
    once a live piece of code outside it names it (as a name or an attribute).
    Names are matched as bare identifiers across modules.
    """
    defined: dict[str, str] = {}
    uses: dict[str | None, set[str]] = {}
    for path in modules:
        for stmt in ast.parse(path.read_text("utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined[owner] = f"{path.stem}.{owner}"
            named = uses.setdefault(owner, set())
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    live = set(extra_roots)
    frontier = [None, *extra_roots]
    while frontier:
        owner = frontier.pop()
        for name in uses.get(owner, ()):
            if name != owner and name in defined and name not in live:
                live.add(name)
                frontier.append(name)
    return sorted(qual for name, qual in defined.items()
                  if not name.startswith("_") and name not in live)


def test_every_public_def_is_reached_outside_tests():
    modules = sorted(Path(graphbench.__file__).parent.glob("*.py"))
    traced = {part for _, attr, *_ in load_targets() for part in attr.split(".")}
    assert unreached_public_names(modules, traced) == []
