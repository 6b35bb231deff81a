"""Query corpus assembly, exemplar-bank draws, the one item draw and
attempt loop that both use, JSONL persistence, and the ground-truth
selfcheck.

Every query derives its own RNG stream from (master seed, task, split,
family, index), so rebuilding any slice of a corpus reproduces it exactly.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

from .errors import ExhaustedAttempts
from .generators import (DifficultySplit, GraphFamily, derive_rng, derive_seed, generate,
                         generate_connected, sample_n)
from .graphs import Graph
from .tasks import TASKS, TaskKind


@dataclass
class QuerySpec:
    """One benchmark item: graph + task + parameters + ground truth."""

    id: str
    task: TaskKind
    difficulty: DifficultySplit
    family: GraphFamily
    graph: Graph
    params: dict[str, int]
    ground_truth: Any
    seed: int

    @property
    def n(self) -> int:
        return self.graph.n

    def to_record(self) -> dict[str, Any]:
        """JSONL record with stable field order."""
        return {
            "id": self.id,
            "task": self.task.value,
            "difficulty": self.difficulty.value,
            "graph_type": self.family.value,
            "n": self.graph.n,
            "edges": [list(e) for e in self.graph.edge_list()],
            "params": self.params,
            "ground_truth": self.ground_truth,
            "seed": self.seed,
        }

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "QuerySpec":
        """The query a JSONL record holds. Its params must be exactly the
        task's parameters, each a node of its graph; a ValueError says
        which is not."""
        query = cls(
            id=rec["id"],
            task=TaskKind(rec["task"]),
            difficulty=DifficultySplit(rec["difficulty"]),
            family=GraphFamily(rec["graph_type"]),
            graph=Graph.from_edges(rec["n"], [tuple(e) for e in rec["edges"]]),
            params={k: int(v) for k, v in rec["params"].items()},
            ground_truth=rec["ground_truth"],
            seed=rec["seed"],
        )
        want = TASKS[query.task].param_names
        if set(query.params) != want:
            raise ValueError(f"{query.task.value} takes params {_names(want)}, "
                             f"got {_names(query.params)}")
        for name, node in query.params.items():
            if not 0 <= node < query.n:
                raise ValueError(f"param {name} = {node} is not a node of the "
                                 f"{query.n}-node graph")
        return query


def _names(names: Iterable[str]) -> str:
    return ", ".join(sorted(names)) or "none"


def write_jsonl(records: Iterable[dict[str, Any]], fh: TextIO) -> int:
    """Write one JSON line per record to `fh`, a text file open for
    writing, and return how many; the file is left open."""
    count = 0
    for rec in records:
        fh.write(json.dumps(rec) + "\n")
        count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """The JSON value on each non-blank line of `path`. A line that is not
    JSON raises ValueError naming the file and the record, numbered from 1
    over the non-blank lines, and the column on that line."""
    with open(path, encoding="utf-8") as fh:
        i = 0
        for line in fh:
            if line.strip():
                i += 1
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    # An error at the end of the record points just past
                    # its last character, not into its line ending.
                    column = min(exc.pos, len(line.rstrip("\r\n"))) + 1
                    raise ValueError(f"{path}: record {i}: not JSON: {exc.msg} "
                                     f"at column {column}") from None
                yield rec


def load_queries(path: str | Path) -> Iterator[QuerySpec]:
    """The corpus at `path`, one query per JSONL record, read lazily: the
    file is opened at the first `next` and each query is built as it is
    reached, so a caller that needs a list calls `list()`. A record that
    is not a JSON object, lacks a field or holds a value of the wrong kind
    raises ValueError naming the file and the record, numbered from 1 as
    `read_jsonl` yields them, when the iteration reaches it."""
    for i, rec in enumerate(read_jsonl(path), 1):
        try:
            if not isinstance(rec, dict):
                raise ValueError(f"expected a JSON object, got {json.dumps(rec)[:80]}")
            query = QuerySpec.from_record(rec)
        except KeyError as exc:
            raise ValueError(f"{path}: record {i}: missing field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: record {i}: {exc}") from None
        yield query


# Draws per item before draw_item gives up on it.
MAX_QUERY_ATTEMPTS = 50


def draw_item(task: TaskKind, split: DifficultySplit, family: GraphFamily,
              rngs: Iterable[random.Random], seen_hashes: set[frozenset],
              item: str) -> tuple[int, Graph, dict[str, int], Any]:
    """Draw one admissible (graph, params, ground truth) item, one attempt
    per RNG taken from `rngs`, and return the number of the attempt that
    drew it (from 0) with the item.

    An attempt is unusable when its edge set is already in `seen_hashes`,
    or when it raises ExhaustedAttempts: a connected draw that stays
    disconnected, or a graph on which the task's `sample_params` finds no
    usable parameters. A usable draw's edge set is added to `seen_hashes`.
    After MAX_QUERY_ATTEMPTS unusable attempts it raises ExhaustedAttempts
    naming the cell and `item`, what the draw was for.
    """
    spec = TASKS[task]
    for attempt, rng in zip(range(MAX_QUERY_ATTEMPTS), rngs):
        try:
            n = sample_n(spec, split, rng)
            if spec.connected:
                g = generate_connected(family, n, rng)
            else:
                g = generate(family, n, rng)
            if g.edges in seen_hashes:
                continue
            params = spec.sample_params(g, rng)
            gt = spec.oracle(g, params)
        except ExhaustedAttempts:
            continue
        seen_hashes.add(g.edges)
        return attempt, g, params, gt
    raise ExhaustedAttempts(f"could not draw {task.value}/{split.value}/{family.value} "
                            f"{item}: {MAX_QUERY_ATTEMPTS} attempts were unusable")


def build_query(task: TaskKind, split: DifficultySplit, family: GraphFamily,
                index: int, master_seed: int, seen_hashes: set[frozenset]) -> QuerySpec:
    """Build one query through `draw_item`. Attempt k draws from the stream
    derived from (master seed, task, split, family, index, k), and the
    query's `seed` is the seed of the stream that drew it. `seen_hashes`
    holds the edge sets already used in the cell."""
    cell = (master_seed, task.value, split.value, family.value, index)
    rngs = (derive_rng(*cell, attempt) for attempt in itertools.count())
    attempt, g, params, gt = draw_item(task, split, family, rngs, seen_hashes,
                                       f"item {index}")
    return QuerySpec(id=f"{task.value}-{split.value}-{family.value}-{index:05d}", task=task,
                     difficulty=split, family=family, graph=g, params=params,
                     ground_truth=gt, seed=derive_seed(*cell, attempt))


def draw_bank(task: TaskKind, scheme: str, size: int) -> list[tuple[Graph, dict[str, int], Any]]:
    """The (graph, params, ground truth) items of the exemplar bank of
    `task` under the scheme whose token is `scheme`: `size` Easy-split
    draws through `draw_item`, the task's families taking turns in sorted
    order, with no edge set repeated in the bank. Every attempt draws from
    one stream reserved for the bank, derived from the task, the scheme
    and `size`, so a bank is the same in every command. Nothing keeps a
    bank's graphs out of a corpus: a query can draw an exemplar's graph."""
    rng = derive_rng("exemplar-bank", task.value, scheme, size)
    families = sorted(TASKS[task].families, key=lambda f: f.value)
    seen: set[frozenset] = set()
    return [draw_item(task, DifficultySplit.EASY, families[i % len(families)],
                      itertools.repeat(rng), seen, f"{scheme} exemplar {i}")[1:]
            for i in range(size)]


def build_corpus(tasks: Sequence[TaskKind], splits: Sequence[DifficultySplit],
                 families: Sequence[GraphFamily] | None, count: int,
                 master_seed: int, per_cell: bool = False) -> list[QuerySpec]:
    """Assemble queries for every (task, split, admissible family) cell.

    With per_cell=True, `count` items are built per family cell; otherwise
    `count` is the total per (task, split) and families take turns
    round-robin. Duplicate edge sets within a cell are resampled. A task
    that draws from none of `families`, or a family that no task draws
    from, raises ValueError.
    """
    chosen: dict[TaskKind, list[GraphFamily]] = {}
    for task in tasks:
        allowed = sorted(TASKS[task].families, key=lambda f: f.value)
        chosen[task] = [f for f in allowed if families is None or f in families]
        if not chosen[task]:
            raise ValueError(f"task {task.value} draws from none of the requested graph "
                             f"types; it draws from {', '.join(f.value for f in allowed)}")
    drawn = {f for fs in chosen.values() for f in fs}
    unused = sorted({f.value for f in families or () if f not in drawn})
    if unused:
        raise ValueError(f"no requested task draws from graph type(s) {', '.join(unused)}")
    out: list[QuerySpec] = []
    for task in tasks:
        for split in splits:
            seen: dict[GraphFamily, set] = {f: set() for f in chosen[task]}
            if per_cell:
                plan = [(f, i) for f in chosen[task] for i in range(count)]
            else:
                k = len(chosen[task])
                plan = [(chosen[task][j % k], j // k) for j in range(count)]
            for family, index in plan:
                out.append(build_query(task, split, family, index, master_seed,
                                       seen[family]))
    return out


def selfcheck(corpus: Iterable[QuerySpec]) -> list[str]:
    """Revalidate every stored ground truth against a fresh oracle run.

    Returns the list of failing query ids (empty when the corpus is clean).
    """
    bad = []
    seen_ids: set[str] = set()
    for q in corpus:
        ok = True
        if q.id in seen_ids:
            ok = False
        seen_ids.add(q.id)
        if q.family not in TASKS[q.task].families:
            ok = False
        try:
            if ok:
                ok = TASKS[q.task].truth_matches(q.graph, q.params, q.ground_truth)
        except Exception:
            ok = False
        if not ok:
            bad.append(q.id)
    return bad
