"""The runtime package imports only the standard library, numpy and
requests, and holds only code that a command or the benchmark's tracer
reaches."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphbench
from graphbench import cli
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


def importers(tree: ast.Module, package: str) -> set[str]:
    """Dotted paths of the defs (a class's methods as `Class.method`) whose
    code imports `package`; "" for an import outside every def. Imports
    under `if TYPE_CHECKING:` never run and are not counted."""
    out = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.If) and isinstance(child.test, ast.Name)
                    and child.test.id == "TYPE_CHECKING"):
                visit(ast.Module(body=child.orelse, type_ignores=[]), scope)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == package for name in names):
                out.add(scope)
            visit(child, scope)

    visit(tree, "")
    return out


# Where each module that only some commands need may be imported: the HTTP
# stack when an `HttpBackend` is made or sends, SQLite when a cache is first
# opened, the worker pool when a batch has misses for a backend that
# waits on I/O, and numpy where an array is computed: the max-cut oracle
# and the search's Q-networks.
LAZY_IMPORTS = {
    "requests": {"gateway:HttpBackend.__init__", "gateway:HttpBackend.complete"},
    "sqlite3": {"gateway:Gateway._cache"},
    "concurrent": {"gateway:Gateway.run_batch"},
    "numpy": {"graphs:max_cut", "rlopt:MLPQ.__init__", "rlopt:MLPQ._forward",
              "rlopt:MLPQ.update", "rlopt:_Encoder.encode", "rlopt:run_dqn"},
}


@pytest.mark.parametrize("package", sorted(LAZY_IMPORTS))
def test_a_lazy_module_is_imported_only_where_it_is_used(package):
    """No module imports these when it is loaded, only the defs that use
    them, so a command that needs none of them loads none."""
    found = {f"{m.stem}:{scope}" for m in sorted(Path(graphbench.__file__).parent.glob("*.py"))
             for scope in importers(ast.parse(m.read_text("utf-8")), package)}
    assert found == LAZY_IMPORTS[package]


# Argument lists run in a fresh interpreter, each with the lazily imported
# modules it may load. "{d}" is a directory holding `q.jsonl`, a corpus,
# and `r.jsonl`, that corpus's results.
COMMANDS = {
    "generate": (["generate", "--task", "cycle", "--count", "2", "--out", "{d}/g.jsonl"], []),
    "generate-max-cut": (["generate", "--task", "max_cut", "--count", "2",
                          "--out", "{d}/g.jsonl"], ["numpy"]),
    "render": (["render", "--queries", "{d}/q.jsonl", "--schemes", "k-shot,Algorithm",
                "--out", "{d}/p.jsonl"], []),
    "run": (["run", "--queries", "{d}/q.jsonl", "--backend", "mock-bernoulli",
             "--out", "{d}/out.jsonl"], []),
    "run-cached": (["run", "--queries", "{d}/q.jsonl", "--backend", "mock-bernoulli",
                    "--cache-dir", "{d}/cache", "--out", "{d}/out.jsonl"], ["sqlite3"]),
    "rlopt": (["rlopt", "--reward", "live", "--backend", "mock-bernoulli", "--task", "cycle",
               "--samples", "2", "--episodes", "5"], ["numpy"]),
    "report": (["report", "--results", "{d}/r.jsonl"], []),
    "baseline": (["baseline", "--queries", "{d}/q.jsonl"], []),
    "selfcheck": (["selfcheck", "{d}/q.jsonl"], []),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_loads_only_the_modules_it_uses(tmp_path, command):
    """Offline commands never load the HTTP stack, the worker pool, or,
    without a cache, SQLite; and only the commands that compute an array
    (a max-cut oracle, a search) load numpy."""
    q, r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    assert cli.main(["generate", "--task", "cycle", "--count", "2", "--out", str(q)]) == 0
    assert cli.main(["run", "--queries", str(q), "--out", str(r)]) == 0
    argv, expected = COMMANDS[command]
    script = """
import json, sys
from graphbench import cli
assert cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps([name for name in ("sqlite3", "concurrent.futures", "requests", "urllib3",
                                    "numpy") if name in sys.modules]))
"""
    src = str(Path(graphbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("GRAPHBENCH_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps([a.format(d=tmp_path) for a in argv])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == expected


def annotation_names(node: ast.AST) -> set[str]:
    """Names an annotation refers to, reading into quoted annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list[str]:
    """Names the module imports (bar `__future__` features) and never uses."""
    tree = ast.parse(path.read_text("utf-8"))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= annotation_names(node.annotation)
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    modules = sorted(Path(graphbench.__file__).parent.glob("*.py"))
    unused = {f"{m.name}: {name}" for m in modules for name in unused_imports(m)}
    assert not unused


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


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def dataclass_fields(cls: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has default) for each field the generated __init__ takes, in order."""
    out = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True) is False
                        for k in value.keywords)):
            continue
        out.append((stmt.target.id, value is not None))
    return out


def defaulted_parameters(tree: ast.Module) -> dict[str, tuple[str, int | None, str]]:
    """`owner.param` -> (callee name, position, param) for each defaulted
    parameter of a public function, or of the __init__ or a public method of
    a public class, and for each defaulted field of a public dataclass. An
    __init__ is called by its class name; the position does not count `self`
    and is None for a keyword-only parameter."""
    defs = [(f, f.name, f.name, 0) for f in tree.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    out = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(f, f"{cls.name}.{f.name}".removesuffix(".__init__"),
                      cls.name if f.name == "__init__" else f.name, 1)
                     for f in cls.body if isinstance(f, ast.FunctionDef)
                     and (f.name == "__init__" or not f.name.startswith("_"))]
            if is_dataclass(cls):
                for i, (name, defaulted) in enumerate(dataclass_fields(cls)):
                    if defaulted:
                        out[f"{cls.name}.{name}"] = (cls.name, i, name)
    for f, owner, callee, skip in defs:
        args = f.args.args
        for i in range(len(args) - len(f.args.defaults), len(args)):
            out[f"{owner}.{args[i].arg}"] = (callee, i - skip, args[i].arg)
        for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if d is not None:
                out[f"{owner}.{a.arg}"] = (callee, None, a.arg)
    return out


def named_calls(tree: ast.Module) -> list[tuple[str | None, ast.Call]]:
    """Every call with the bare name it is made by; `cls(...)` inside a
    class calls that class."""
    owner = {node: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in ast.walk(cls)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            out.append((owner.get(node) if name == "cls" else name, node))
    return out


def passes(called: str | None, call: ast.Call, callee: str, position: int | None,
           name: str) -> bool:
    """Whether the call, made by bare name `called`, passes the parameter."""
    if called != callee:
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
    calls = [c for p in callers for c in named_calls(ast.parse(p.read_text("utf-8")))]
    unpassed = {qual for qual, spec in params.items()
                if not any(passes(*c, *spec) for c in calls)}
    assert FAKE_HOOKS.keys() <= params.keys()
    assert sorted(unpassed - FAKE_HOOKS.keys()) == []


def unread_fields(modules: list[Path]) -> list[str]:
    """Fields of the package's dataclasses that no code in the package reads
    as an attribute; names are matched bare, whatever object they are read
    from."""
    fields, read = [], set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [qual for qual in fields if qual.split(".")[1] not in read]


def test_every_dataclass_field_is_read_outside_tests():
    """A field that only tests read is state the program carries for nothing."""
    modules = sorted(Path(graphbench.__file__).parent.glob("*.py"))
    assert unread_fields(modules) == []


def callers(tree: ast.Module, names: set[str]) -> dict[str, set[str]]:
    """For each bare name in `names`, the dotted paths of the innermost
    defs (a class's methods as `Class.method`, nested defs and lambdas as
    their own scope) whose code calls it."""
    out = {name: set() for name in names}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Lambda):
                visit(child, f"{scope}.<lambda>")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in out:
                    out[name].add(scope)
            visit(child, scope)

    visit(tree, "")
    return out


def test_only_run_batch_keys_reads_and_writes_the_cache():
    """The cache has one reader and one writer, `Gateway.run_batch`, and
    the calls are made on the calling thread, not in a nested worker."""
    names = {"_cache_key", "_cache_read", "_cache_write"}
    found = {name: set() for name in names}
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        for name, scopes in callers(ast.parse(path.read_text("utf-8")), names).items():
            found[name] |= {f"{path.stem}.{scope}" for scope in scopes}
    assert found == {name: {"gateway.Gateway.run_batch"} for name in names}


def test_only_draw_item_draws_items():
    """Corpus queries and exemplars are drawn by one function,
    `corpus.draw_item`, so both follow the same admissibility rules;
    `generate_connected` also redraws through `generate`. Only `corpus`
    calls it, for a query and for an exemplar bank."""
    names = {"sample_n", "sample_params", "generate", "generate_connected", "draw_item"}
    found = {name: set() for name in names}
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        for name, scopes in callers(ast.parse(path.read_text("utf-8")), names).items():
            found[name] |= {f"{path.stem}.{scope}" for scope in scopes}
    assert found == {"sample_n": {"corpus.draw_item"},
                     "sample_params": {"corpus.draw_item"},
                     "generate_connected": {"corpus.draw_item"},
                     "generate": {"corpus.draw_item", "generators.generate_connected"},
                     "draw_item": {"corpus.build_query", "corpus.draw_bank"}}


def file_writers(tree: ast.Module) -> list[str]:
    """Dotted paths of the defs (a class's methods as `Class.method`) that
    open a file for writing: an `open` or `<x>.open` call whose mode
    writes, appends or creates, or a `write_text` or `write_bytes` call;
    once per call."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                # A bare `open` takes its mode second, a method `open` first.
                at = 1 if isinstance(func, ast.Name) else 0
                modes = [k.value for k in child.keywords if k.arg == "mode"]
                modes += child.args[at:at + 1]
                writes = any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                             for m in modes)
                if (name == "open" and writes) or name in ("write_text", "write_bytes"):
                    out.append(scope)
            visit(child, scope)

    visit(tree, "")
    return out


def test_one_opener_writes_every_file():
    """Every file a command writes is opened by `cli._create`, which
    refuses a path that is one of the command's inputs, so no other code
    can write over a file a command reads."""
    found = []
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        found += [f"{path.stem}.{scope}" for scope in file_writers(tree)]
    assert found == ["cli._create"]


def handlers_of(tree: ast.Module, name: str) -> list[str]:
    """Dotted paths of the defs (a class's methods as `Class.method`) that
    hold an `except` clause catching the bare name `name`, once per clause."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(isinstance(c, ast.Name) and c.id == name for c in caught):
                    out.append(scope)
            visit(child, scope)

    visit(tree, "")
    return out


def test_one_attempt_loop_retries_draws():
    """An unusable draw is retried in one loop, `corpus.draw_item`'s, for
    corpus items and exemplars alike: it is the one `except` that catches
    ExhaustedAttempts, and `prompts`, which renders the banks, imports
    nothing a draw needs."""
    found = []
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        found += [f"{path.stem}.{scope}"
                  for scope in handlers_of(ast.parse(path.read_text("utf-8")), "ExhaustedAttempts")]
    assert found == ["corpus.draw_item"]
    tree = ast.parse((Path(graphbench.__file__).parent / "prompts.py").read_text("utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"MAX_QUERY_ATTEMPTS", "ExhaustedAttempts", "derive_rng",
                           "DifficultySplit"}


def test_only_the_fold_reads_record_fields():
    """Every report reads its records through one fold, `reporting._fold`,
    so every pivot rejects the same records."""
    names = {"_number", "_keys"}
    found = {name: set() for name in names}
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        for name, scopes in callers(ast.parse(path.read_text("utf-8")), names).items():
            found[name] |= {f"{path.stem}.{scope}" for scope in scopes}
    assert found == {name: {"reporting._fold"} for name in names}


def test_only_the_renderer_serializes_graphs_and_builds_banks():
    """Every graph text and exemplar bank a prompt uses comes from one
    memo, `prompts.Renderer`, so each is rendered once per command; the
    selfcheck goldens serialize their own reference graph."""
    names = {"serialize", "build_exemplars"}
    found = {name: set() for name in names}
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        for name, scopes in callers(ast.parse(path.read_text("utf-8")), names).items():
            found[name] |= {f"{path.stem}.{scope}" for scope in scopes}
    assert found == {"serialize": {"prompts.Renderer.text", "cli._check_serializer_goldens"},
                     "build_exemplars": {"prompts.Renderer.head"}}


def test_a_renderer_is_made_only_where_a_command_or_a_caller_starts():
    """Each `prompts.Renderer` has one owner whose lifetime is a command
    (`run`, `render` and a live `rlopt` reward), or a caller that passes
    none to `compose_cells` or `compose_prompt`, so no memo outlives the
    command that filled it."""
    found = set()
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        scopes = callers(ast.parse(path.read_text("utf-8")), {"Renderer"})["Renderer"]
        found |= {f"{path.stem}.{scope}" for scope in scopes}
    assert found == {"cli.cmd_run", "cli.cmd_render", "pipeline.live_reward_fn",
                     "pipeline.compose_cells", "prompts.compose_prompt"}


def test_only_the_live_reward_makes_a_decoration():
    """A decoration is made from factor options in one place, the live
    reward, which checks each option and builds each combination's; the
    identity, `prompts.IDENTITY_DECORATION`, is made when `prompts` loads.
    A call outside every def is named by the module-level name it is
    assigned to, or `<module>`."""
    found = set()
    for path in sorted(Path(graphbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        scopes = callers(tree, {"DecorationFactors"})["DecorationFactors"]
        found |= {f"{path.stem}.{scope}" for scope in scopes if scope}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            calls = [node for node in ast.walk(stmt) if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "DecorationFactors"]
            if calls:
                named = (isinstance(stmt, ast.Assign) and calls == [stmt.value]
                         and isinstance(stmt.targets[0], ast.Name))
                found.add(f"{path.stem}.{stmt.targets[0].id if named else '<module>'}")
    assert found == {"prompts.IDENTITY_DECORATION", "pipeline.live_reward_fn",
                     "pipeline.live_reward_fn.reward"}


def test_workers_take_no_lock_the_cache_holds():
    """No lock that guards the cache connection (one that `_cache_read`,
    `_cache_write` or `close` enters with `with self.<lock>:`) appears in
    `Gateway.complete` or in the worker loop nested in `run_batch`, so a
    worker never waits behind a commit."""
    path = Path(graphbench.__file__).parent / "gateway.py"
    gateway = next(node for node in ast.parse(path.read_text("utf-8")).body
                   if isinstance(node, ast.ClassDef) and node.name == "Gateway")
    methods = {node.name: node for node in gateway.body if isinstance(node, ast.FunctionDef)}

    def self_attrs(nodes) -> set[str]:
        return {node.attr for node in nodes if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}

    cache_locks = set()
    for name in ("_cache_read", "_cache_write", "close"):
        for node in ast.walk(methods[name]):
            if isinstance(node, ast.With):
                cache_locks |= self_attrs(item.context_expr for item in node.items)
    assert cache_locks, "the cache connection is no longer guarded by a lock"
    loops = [node for node in ast.walk(methods["run_batch"])
             if isinstance(node, ast.FunctionDef) and node is not methods["run_batch"]]
    assert loops, "run_batch has no nested worker loop"
    found = {f"{worker.name}: self.{attr}" for worker in [methods["complete"], *loops]
             for attr in self_attrs(ast.walk(worker)) & cache_locks}
    assert found == set()


def task_member_references(tree: ast.Module) -> list[str]:
    """`TaskKind.<MEMBER>` attributes the module names, with their lines."""
    members = {"CONNECTIVITY", "CYCLE", "DIAMETER", "BFS_ORDER", "SHORTEST_PATH", "TRIANGLE",
               "HAMILTONIAN", "MAX_CUT"}
    return [f"{node.lineno}: TaskKind.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "TaskKind" and node.attr in members]


def test_only_tasks_names_a_task():
    """Everything a task does differently lives on its class in `tasks`, so
    no other module branches on, or keys a table by, a task member."""
    found = {f"{path.name}:{ref}"
             for path in sorted(Path(graphbench.__file__).parent.glob("*.py"))
             if path.name != "tasks.py"
             for ref in task_member_references(ast.parse(path.read_text("utf-8")))}
    assert found == set()


def enum_side_tables(tree: ast.Module, enums: set[str]) -> list[str]:
    """Dict displays in the module's top-level statements whose keys are
    all `<Enum>.<MEMBER>` of one enum in `enums`, with their lines."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Dict) or not node.keys:
                continue
            owners = {key.value.id if isinstance(key, ast.Attribute)
                      and isinstance(key.value, ast.Name) else None for key in node.keys}
            if len(owners) == 1 and owners <= enums:
                out.append(f"{node.lineno}: {owners.pop()}")
    return out


def test_no_module_table_is_keyed_by_the_members_of_one_enum():
    """What each member of a closed set carries (a format's wording and
    renderer, a family's generator, a split's node band) is declared in
    the member's own row of its enum, as `PromptScheme` does, not again
    in a module-level dict keyed by the members."""
    modules = sorted(Path(graphbench.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in modules}
    enums = {node.name for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and any(ast.unparse(base) in ("enum.Enum", "Enum") for base in node.bases)}
    assert {"SerializationFormat", "GraphFamily", "DifficultySplit"} <= enums
    found = {f"{name}:{ref}" for name, tree in trees.items()
             for ref in enum_side_tables(tree, enums)}
    assert found == set()
