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


# Defaulted parameters that exist so a test can substitute a fake.
FAKE_HOOKS = {
    "Gateway.sleep": "retry tests record the backoff waits instead of sleeping",
    "HttpBackend.session": "HTTP tests answer from a stub session, not the network",
    "run_dqn.q_functions": "greedy-consistency tests plug in exact Q tables",
}


def defaulted_parameters(tree: ast.Module) -> dict[str, tuple[str, int | None, str]]:
    """`owner.param` -> (callee name, position, param) for each defaulted
    parameter of a public function, or of the __init__ or a public method of
    a public class. An __init__ is called by its class name; the position
    does not count `self` and is None for a keyword-only parameter."""
    defs = [(f, f.name, f.name, 0) for f in tree.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(f, f"{cls.name}.{f.name}".removesuffix(".__init__"),
                      cls.name if f.name == "__init__" else f.name, 1)
                     for f in cls.body if isinstance(f, ast.FunctionDef)
                     and (f.name == "__init__" or not f.name.startswith("_"))]
    out = {}
    for f, owner, callee, skip in defs:
        args = f.args.args
        for i in range(len(args) - len(f.args.defaults), len(args)):
            out[f"{owner}.{args[i].arg}"] = (callee, i - skip, args[i].arg)
        for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if d is not None:
                out[f"{owner}.{a.arg}"] = (callee, None, a.arg)
    return out


def passes(call: ast.Call, callee: str, position: int | None, name: str) -> bool:
    """Whether the call, made by bare callee name, passes the parameter."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != callee:
        return False
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_outside_tests():
    """A setting that only tests change is a constant in disguise."""
    modules = sorted(Path(graphbench.__file__).parent.glob("*.py"))
    callers = modules + sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    params = {qual: spec for m in modules
              for qual, spec in defaulted_parameters(ast.parse(m.read_text("utf-8"))).items()}
    calls = [node for p in callers for node in ast.walk(ast.parse(p.read_text("utf-8")))
             if isinstance(node, ast.Call)]
    unpassed = {qual for qual, spec in params.items() if not any(passes(c, *spec) for c in calls)}
    assert FAKE_HOOKS.keys() <= params.keys()
    assert sorted(unpassed - FAKE_HOOKS.keys()) == []
