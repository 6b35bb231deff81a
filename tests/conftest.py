import ast
import hashlib
import itertools
import math
import random
import re
import sqlite3
import threading
from contextlib import closing
from pathlib import Path
from typing import Any, Mapping, Sequence

import pytest

from graphbench.corpus import QuerySpec
from graphbench.errors import EmptyFactor, MalformedResponse, RateLimited
from graphbench.gateway import CACHE_FILE, CompletionResponse, MockBackend
from graphbench.graphs import Graph, bfs_levels
from graphbench.prompts import CASE_FUNCTIONS, QA_DELIMS, SENTENCE_DELIMS, WORD_DELIMS
from graphbench.rlopt import (Combo, EpisodeEntry, FactorSpace, RewardFn, SearchResult,
                              default_space)
from graphbench.serialize import SerializationFormat as F
from graphbench.tasks import TaskKind as T
from graphbench.tasks import Triangle


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    """Erdos-Renyi style helper used by the oracle-equivalence suites."""
    if p is None:
        p = rng.uniform(0.1, 0.9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Sorted node lists of the components, in order of their smallest node."""
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = sorted(bfs_levels(g, s))
        seen.update(comp)
        comps.append(comp)
    return comps


def is_bipartite(g: Graph) -> bool:
    """Two-coloring check, used by the generator property tests."""
    color: dict[int, int] = {}
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def read_back(text: str, fmt: F, n: int) -> Graph:
    """Graph read from serialized text by readers independent of the package.

    The node-carrying formats give their own node count; `n` only fills in
    the isolated nodes that the edge list and edge set cannot express.
    """
    if fmt in (F.ADJACENCY_LIST, F.ADJACENCY_SET):
        adj = ast.literal_eval(text)
        return Graph.from_edges(len(adj), [(u, v) for u, vs in adj.items() for v in vs])
    if fmt is F.EDGE_SET:
        return Graph.from_edges(n, ast.literal_eval(text))
    if fmt is F.EDGE_LIST:
        return Graph.from_edges(n, [tuple(map(int, line.split())) for line in text.splitlines()])
    if fmt is F.ADJACENCY_MATRIX:
        rows = [[int(c) for c in row.split()] for row in re.findall(r"\[([01 ]*)\]", text)]
        rows = [row for row in rows if row]
        size = len(rows)
        assert all(len(row) == size and row[i] == 0 for i, row in enumerate(rows))
        assert all(rows[u][v] == rows[v][u] for u in range(size) for v in range(size))
        return Graph.from_edges(size, [(u, v) for u in range(size)
                                       for v in range(u + 1, size) if rows[u][v]])
    nx = pytest.importorskip("networkx")
    if fmt is F.GMOL:
        h = nx.parse_gml(text, label="id")
    else:
        h = nx.parse_graphml(text.replace("GMaL", "graphml"), node_type=int)
    return Graph.from_edges(h.number_of_nodes(), h.edges())


def corpus_stats(corpus: Sequence[QuerySpec]) -> list[dict[str, Any]]:
    """Average node and edge counts per (task, family, split) cell."""
    cells: dict[tuple, list[QuerySpec]] = {}
    for q in corpus:
        cells.setdefault((q.task, q.family, q.difficulty), []).append(q)
    rows = []
    for (task, family, split), items in sorted(
            cells.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value, kv[0][2].value)):
        rows.append({
            "task": task.value,
            "graph_type": family.value,
            "difficulty": split.value,
            "count": len(items),
            "avg_nodes": sum(q.n for q in items) / len(items),
            "avg_edges": sum(q.graph.m for q in items) / len(items),
        })
    return rows


def monte_carlo_baseline(corpus: Sequence[QuerySpec], rng: random.Random,
                         trials: int = 10_000) -> float:
    """Simulate the random-guessing policy that `baselines.random_baseline`
    computes exactly: True on boolean tasks, a uniform draw from [1, N] for
    diameter and from [1, M] for triangle, M = min(C(N, 3), cap)."""
    hits = 0
    for _ in range(trials):
        q = corpus[rng.randrange(len(corpus))]
        if q.task in (T.CYCLE, T.CONNECTIVITY):
            hits += bool(q.ground_truth)
        elif q.task is T.HAMILTONIAN:
            hits += bool(q.ground_truth["exists"])
        elif q.task is T.DIAMETER:
            hits += rng.randint(1, q.n) == q.ground_truth
        elif q.task is T.TRIANGLE:
            bound = max(1, min(math.comb(q.n, 3), Triangle.caps[q.difficulty]))
            hits += rng.randint(1, bound) == q.ground_truth
        else:
            raise ValueError(f"no guessing policy to simulate for {q.task.value}")
    return hits / trials


def scaled_space() -> FactorSpace:
    """The default space extended with the four decoration factor pools."""
    pools = (
        ("sentence_delim", tuple(SENTENCE_DELIMS)),
        ("qa_delim", tuple(QA_DELIMS)),
        ("word_delim", tuple(WORD_DELIMS)),
        ("case", tuple(CASE_FUNCTIONS)),
    )
    return FactorSpace(default_space().dims + pools)


class TabularQ:
    """Exact Q table keyed by action prefix, substituted for the networks
    through `run_dqn(q_functions=...)` in the greedy-consistency checks."""

    def __init__(self, values: Mapping[Combo, float]):
        self.values = dict(values)

    def predict(self, prefix: Combo, options: Sequence[str]) -> list[float]:
        return [self.values.get(prefix + (a,), 0.0) for a in options]

    def update(self, prefix: Combo, target: float, lr: float) -> None:
        current = self.values.get(prefix, 0.0)
        self.values[prefix] = current + lr * (target - current)


def make_tabular_q(space: FactorSpace, table: Mapping[Combo, float]) -> list[TabularQ]:
    """Per-epoch exact Q functions computed from a full reward table."""
    t_count = len(space.dims)
    layers: list[dict[Combo, float]] = [dict() for _ in range(t_count)]
    for combo, reward in table.items():
        layers[t_count - 1][combo] = float(reward)
    for t in range(t_count - 2, -1, -1):
        for combo, value in layers[t + 1].items():
            prefix = combo[:t + 1]
            layers[t][prefix] = max(layers[t].get(prefix, float("-inf")), value)
    return [TabularQ(layer) for layer in layers]


def combos(space: FactorSpace):
    """Every combination of the space, in option order."""
    return itertools.product(*(options for _, options in space.dims))


def grid_search(space: FactorSpace, reward_fn: RewardFn) -> SearchResult:
    """Evaluate every combination; optimal by construction, Cost = 1."""
    best_combo: Combo | None = None
    best_reward = float("-inf")
    log = []
    for i, combo in enumerate(combos(space), 1):
        reward = float(reward_fn(combo))
        log.append(EpisodeEntry(i, combo, reward, 0.0))
        if reward > best_reward:
            best_reward, best_combo = reward, combo
    if best_combo is None:
        raise EmptyFactor("factor space has no combinations")
    return SearchResult(best_combo=best_combo, best_reward=best_reward,
                        episodes=len(log), explored=len(log), log=log,
                        epsilon_mode="grid")


def make_planted_landscape(space: FactorSpace, seed: int, noise: float = 0.03,
                           scale: float = 0.8, cap: float | None = None,
                           weights: Sequence[float] = (0.45, 0.35, 0.2),
                           ) -> tuple[dict[Combo, float], Combo]:
    """Synthetic reward table with one planted optimum at 1.0.

    Non-optimal rewards follow an additive per-factor structure, as real
    accuracy tables do: matching the planted action in dimension d adds
    weights[d]*scale. The weights are ordered so that the per-dimension
    greedy ranking is consistent even when the exact optimum has not been
    visited (w1 > min(w2, w3) and w2 > w3). `cap` clips non-optimal rewards
    (e.g. 0.5 for a hard needle-in-haystack table).
    """
    rng = random.Random(seed)
    planted = tuple(options[rng.randrange(len(options))] for _, options in space.dims)
    t_count = len(space.dims)
    w = list(weights)[:t_count]
    if len(w) < t_count:
        w += [w[-1]] * (t_count - len(w))
    w = [x / sum(w) for x in w]
    table: dict[Combo, float] = {}
    for combo in combos(space):
        if combo == planted:
            table[combo] = 1.0
            continue
        score = sum(wd for wd, a, p in zip(w, combo, planted) if a == p)
        value = scale * score + rng.random() * noise
        table[combo] = min(value, cap if cap is not None else scale)
    return table, planted


class RateLimitedMock:
    """A MockBackend whose first attempt at a prompt raises RateLimited when
    a stable hash of the prompt falls below `prob`; later attempts answer."""

    def __init__(self, prob: float, **mock_args):
        self.mock = MockBackend(**mock_args)
        self.identity = self.mock.identity
        self.prob = prob
        self.attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.attempts[req.prompt] = attempt = self.attempts.get(req.prompt, 0) + 1
        digest = hashlib.sha256(f"ratelimit\x00{req.prompt}".encode()).digest()
        if attempt == 1 and int.from_bytes(digest[:8], "big") / 2**64 < self.prob:
            raise RateLimited("injected rate limit")
        return self.mock.complete(req)


class CannedBackend:
    """Replays stored transcripts keyed by the request's cache key or raw
    prompt; unknown prompts raise MalformedResponse."""

    def __init__(self, responses: dict[str, str]):
        self.responses = responses
        self.identity = "canned"

    def complete(self, req):
        text = self.responses.get(req.cache_key(), self.responses.get(req.prompt))
        if text is None:
            raise MalformedResponse(f"no canned response for prompt {req.prompt[:60]!r}...")
        return CompletionResponse(text=text, tokens_out=len(text.split()))


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def reference_graph():
    """The six-node, four-edge graph used for all serializer goldens."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


def cache_entries(cache_dir: Path) -> int:
    """How many completions a gateway's cache under cache_dir holds."""
    uri = (Path(cache_dir) / CACHE_FILE).resolve().as_uri() + "?mode=ro"
    with closing(sqlite3.connect(uri, uri=True)) as db:
        return db.execute("SELECT count(*) FROM completions").fetchone()[0]
