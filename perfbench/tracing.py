"""Span recording around graphbench's public layer boundaries.

The traced run installs wrappers from this file around the public functions
of each layer (see TARGETS); nothing inside `src/` is changed. A span holds
its name, start, end, the span that caused it and a request id, and spans
stay in memory until `layer_metrics` turns them into the per-layer numbers.

Parent links follow a per-thread stack. A span opened in a worker thread
with an empty stack (the gateway's thread pool) is parented to the span
open in the thread that created the recorder, which is the `run_batch` call
that handed the work over.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

TASKS = ("connectivity", "cycle", "diameter", "bfs_order", "shortest_path",
         "triangle", "hamiltonian", "max_cut")
SPLITS = ("easy", "medium", "hard")


def _query_cell(args, kwargs, result) -> str:
    return f"{args[0].value}.{args[1].value}"


def _text_len(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _explored(args, kwargs, result) -> int:
    return result.explored if result is not None else 0


def _prompt_rid(args, kwargs) -> str:
    query, scheme, fmt = args[:3]
    return f"{query.id}|{scheme.value}|{fmt.value}"


def _request_rid(args, kwargs) -> str:
    return args[1].cache_key()[:16]


# (module, attribute, span name, request-id function, tag function).
# A request-id function names a new request; spans below it inherit the id.
# A tag function records one value per span (a cell name or a size).
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("graphs", "hamiltonian_cycle", "graphs.hamiltonian_cycle", None, None),
    ("graphs", "max_cut", "graphs.max_cut", None, None),
    ("graphs", "diameter", "graphs.diameter", None, None),
    ("graphs", "bfs_levels", "graphs.bfs_levels", None, None),
    ("graphs", "triangle_count", "graphs.triangle_count", None, None),
    ("graphs", "has_cycle", "graphs.has_cycle", None, None),
    ("generators", "generate", "generators.generate", None, None),
    ("generators", "generate_connected", "generators.generate_connected", None, None),
    ("corpus", "build_query", "corpus.build_query", None, _query_cell),
    ("corpus", "write_jsonl", "corpus.write_jsonl", None, None),
    ("corpus", "load_queries", "corpus.load_queries", None, None),
    ("serialize", "serialize", "serialize.serialize", None, _text_len),
    ("prompts", "compose_prompt", "prompts.compose_prompt", _prompt_rid, _text_len),
    ("prompts", "build_exemplars", "prompts.build_exemplars", None, None),
    ("gateway", "Gateway.complete", "gateway.complete", _request_rid, None),
    ("gateway", "Gateway.run_batch", "gateway.run_batch", None, None),
    ("gateway", "MockBackend.complete", "gateway.mock_complete", None, None),
    ("answer_eval", "extract", "answer_eval.extract", None, None),
    ("answer_eval", "score", "answer_eval.score", None, None),
    ("pipeline", "run_evaluation", "pipeline.run_evaluation", None, None),
    ("reporting", "aggregate", "reporting.aggregate", None, None),
    ("reporting", "sensitivity", "reporting.sensitivity", None, None),
    ("baselines", "random_baseline", "baselines.random_baseline", None, None),
    ("rlopt", "run_dqn", "rlopt.run_dqn", None, _explored),
    ("rlopt", "MLPQ.predict", "rlopt.predict", None, None),
    ("rlopt", "MLPQ.update", "rlopt.update", None, None),
)


@dataclass(frozen=True)
class Span:
    idx: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None
    tag: Any
    ok: bool

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; create it in the thread that drives the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, rid_fn: Callable | None = None,
             tag_fn: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            opener = stack or self._root_stack
            parent, rid = opener[-1] if opener else (None, None)
            if rid_fn is not None:
                rid = rid_fn(args, kwargs)
            idx = next(self._ids)
            stack.append((idx, rid))
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = tag_fn(args, kwargs, result) if tag_fn is not None else None
                self.spans.append(Span(idx, name, start, end, parent, rid, tag, ok))

        return traced


def install(recorder: Recorder, package: str = "graphbench") -> Callable[[], None]:
    """Wrap every target in the loaded package; returns the undo function.

    Modules that imported a target by name (`from .prompts import
    compose_prompt`) hold their own reference, so every module attribute
    bound to the original is rebound too.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo: list[tuple[Any, str, Any]] = []
    for module, attr, name, rid_fn, tag_fn in TARGETS:
        owner = sys.modules[f"{package}.{module}"]
        *cls, fn_name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fn_name)
        wrapped = recorder.wrap(name, original, rid_fn, tag_fn)
        holders = [(owner, fn_name)]
        if not cls:
            holders += [(m, k) for m in modules for k, v in vars(m).items()
                        if v is original and (m, k) != (owner, fn_name)]
        for obj, key in holders:
            undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapped)

    def restore() -> None:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)

    return restore


# The per-layer metrics, in report order: (prefix, fields); each field adds
# the metric `prefix.field`. Timing fields are computed from the spans named
# `prefix` (a `corpus.build_query.<task>.<split>` prefix selects the spans of
# that cell); the rest are listed in DERIVED or filled in by the run.
LAYOUT: tuple[tuple[str, str], ...] = (
    ("graphs.hamiltonian_cycle", "calls busy_s p50_ms max_ms"),
    ("graphs.max_cut", "calls busy_s p50_ms max_ms"),
    *((f"graphs.{fn}", "calls busy_s")
      for fn in ("diameter", "bfs_levels", "triangle_count", "has_cycle")),
    ("generators.generate", "calls busy_s"),
    ("generators.generate_connected", "calls busy_s useful_ratio"),
    ("corpus.build_query", "calls busy_s p50_ms p97_ms max_s"),
    *((f"corpus.build_query.{task}.{split}", "max_ms") for task in TASKS for split in SPLITS),
    ("corpus.write_jsonl", "busy_s"),
    ("corpus.load_queries", "busy_s"),
    ("serialize.serialize", "calls busy_s bytes"),
    ("prompts.compose_prompt", "calls self_s p50_us p99_us bytes_mean"),
    ("prompts.build_exemplars", "calls busy_s"),
    ("gateway.complete", "calls busy_s hit_p50_us hit_p99_us miss_p50_us miss_p99_us"),
    ("gateway.cache", "hits misses hit_ratio"),
    ("gateway", "retries"),
    ("gateway.mock_complete", "calls busy_s p50_us p99_us"),
    ("gateway.run_batch", "calls wall_s busy_sum_s"),
    ("answer_eval.extract", "calls busy_s"),
    ("answer_eval.score", "calls busy_s"),
    ("pipeline.run_evaluation", "calls wall_s self_s"),
    ("reporting.aggregate", "busy_s"),
    ("reporting.sensitivity", "busy_s"),
    ("baselines.random_baseline", "calls busy_s"),
    ("rlopt.run_dqn", "wall_s self_s"),
    ("rlopt.predict", "calls busy_s"),
    ("rlopt.update", "calls busy_s"),
    ("rlopt", "explored"),
    ("", "error_share"),
    ("trace", "overhead_s overhead_ratio"),
)

# field -> (unit, better)
FIELDS = {
    "calls": ("count", "lower"), "busy_s": ("s", "lower"), "wall_s": ("s", "lower"),
    "self_s": ("s", "lower"), "busy_sum_s": ("s", "lower"), "max_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"), "p97_ms": ("ms", "lower"), "max_ms": ("ms", "lower"),
    "p50_us": ("us", "lower"), "p99_us": ("us", "lower"),
    "hit_p50_us": ("us", "lower"), "hit_p99_us": ("us", "lower"),
    "miss_p50_us": ("us", "lower"), "miss_p99_us": ("us", "lower"),
    "bytes": ("bytes", "lower"), "bytes_mean": ("bytes", "lower"),
    "useful_ratio": ("ratio", "higher"), "hits": ("count", "higher"),
    "misses": ("count", "lower"), "hit_ratio": ("ratio", "higher"),
    "retries": ("count", "lower"), "explored": ("count", "lower"),
    "error_share": ("ratio", "lower"), "overhead_s": ("s", "lower"),
    "overhead_ratio": ("ratio", "lower"),
}
TIMING = {"calls", "busy_s", "wall_s", "self_s", "max_s",
          "p50_ms", "p97_ms", "max_ms", "p50_us", "p99_us"}

# Metrics the run adds itself: they need the untraced repetitions.
RUN_LEVEL = ("error_share", "trace.overhead_s", "trace.overhead_ratio")

_ENTRIES = [(f"{prefix}.{field}" if prefix else field, prefix, field)
            for prefix, fields in LAYOUT for field in fields.split()]
PER_LAYER = [(name, *FIELDS[field]) for name, _, field in _ENTRIES]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.idx, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.idx] = s.dur - covered
    return out


def derived(spans: list[Span], by_name: dict[str, list[Span]]) -> dict[str, float]:
    """The per-layer metrics that are not plain timings of one span name."""
    index = {s.idx: s for s in spans}
    m: dict[str, float] = {}
    connected = by_name["generators.generate_connected"]
    owners = {s.idx for s in connected}
    draws = sum(1 for s in by_name["generators.generate"] if s.parent in owners)
    m["generators.generate_connected.useful_ratio"] = (
        sum(s.ok for s in connected) / draws if draws else 0.0)
    m["serialize.serialize.bytes"] = sum(s.tag for s in by_name["serialize.serialize"])
    sizes = [s.tag for s in by_name["prompts.compose_prompt"]]
    m["prompts.compose_prompt.bytes_mean"] = sum(sizes) / len(sizes) if sizes else 0.0

    backend_parents = {s.parent for s in by_name["gateway.mock_complete"]}
    hits = [s.dur for s in by_name["gateway.complete"] if s.idx not in backend_parents]
    misses = [s.dur for s in by_name["gateway.complete"] if s.idx in backend_parents]
    for kind, d in (("hit", hits), ("miss", misses)):
        m[f"gateway.complete.{kind}_p50_us"] = percentile(d, 0.50) * 1e6
        m[f"gateway.complete.{kind}_p99_us"] = percentile(d, 0.99) * 1e6
    m["gateway.cache.hits"] = len(hits)
    m["gateway.cache.misses"] = len(misses)
    m["gateway.cache.hit_ratio"] = len(hits) / (len(hits) + len(misses)) if hits or misses else 0.0
    m["gateway.retries"] = len(by_name["gateway.mock_complete"]) - len(misses)
    m["gateway.run_batch.busy_sum_s"] = sum(
        s.dur for s in by_name["gateway.complete"]
        if s.parent is not None and index[s.parent].name == "gateway.run_batch")
    m["rlopt.explored"] = sum(s.tag for s in by_name["rlopt.run_dqn"])
    return m


def timing(field: str, spans: list[Span], selfs: dict[int, float]) -> float:
    d = [s.dur for s in spans]
    if field == "calls":
        return len(d)
    if field in ("busy_s", "wall_s"):
        return sum(d)
    if field == "self_s":
        return sum(selfs[s.idx] for s in spans)
    if field == "max_s":
        return max(d, default=0.0)
    stat, unit = field.split("_")  # p50_ms, p97_ms, max_ms, p50_us, p99_us
    q = 1.0 if stat == "max" else int(stat[1:]) / 100
    return percentile(d, q) * (1e3 if unit == "ms" else 1e6)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Derive every per-layer metric except RUN_LEVEL from one traced pass's
    spans."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if isinstance(s.tag, str):  # a corpus cell: also grouped by it
            by_name[f"{s.name}.{s.tag}"].append(s)
    selfs = self_times(spans)
    extra = derived(spans, by_name)
    m: dict[str, float] = {}
    for name, prefix, field in _ENTRIES:
        if name in RUN_LEVEL:
            continue
        m[name] = timing(field, by_name[prefix], selfs) if field in TIMING else extra[name]
    return m
