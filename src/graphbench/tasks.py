"""Benchmark task identifiers and per-task ground truth computation."""

from __future__ import annotations

import enum
import random
from typing import Any

from . import graphs
from .errors import ExhaustedAttempts
from .graphs import Graph


class TaskKind(enum.Enum):
    """The six canonical tasks plus the two NP-hard extensions.

    Values are the tokens used in CLI flags and JSONL records.
    """

    CONNECTIVITY = "connectivity"
    CYCLE = "cycle"
    DIAMETER = "diameter"
    BFS_ORDER = "bfs_order"
    SHORTEST_PATH = "shortest_path"
    TRIANGLE = "triangle"
    HAMILTONIAN = "hamiltonian"
    MAX_CUT = "max_cut"


NP_TASKS = {TaskKind.HAMILTONIAN, TaskKind.MAX_CUT}


def sample_params(task: TaskKind, g: Graph, rng: random.Random) -> dict[str, int]:
    """Draw the task's node parameters; shortest-path pairs are redrawn until
    reachable, and an edgeless graph, which has none, raises ExhaustedAttempts
    before drawing anything."""
    if task is TaskKind.BFS_ORDER:
        return {"start": rng.randrange(g.n)}
    if task is TaskKind.CONNECTIVITY:
        u, v = rng.sample(range(g.n), 2)
        return {"u": u, "v": v}
    if task is TaskKind.SHORTEST_PATH:
        if g.m == 0:
            raise ExhaustedAttempts("an edgeless graph has no connected node pair")
        for _ in range(1000):
            u, v = rng.sample(range(g.n), 2)
            if graphs.connected(g, u, v):
                return {"u": u, "v": v}
        raise ExhaustedAttempts("no connected node pair found")
    return {}


def compute_ground_truth(task: TaskKind, g: Graph, params: dict[str, int]) -> Any:
    """Run the task's oracle on the graph.

    The returned value is JSON-serializable and re-derivable from
    (task, edges, params), which is what the corpus selfcheck relies on.
    """
    if task is TaskKind.CONNECTIVITY:
        return graphs.connected(g, params["u"], params["v"])
    if task is TaskKind.CYCLE:
        return graphs.has_cycle(g)
    if task is TaskKind.DIAMETER:
        return graphs.diameter(g)
    if task is TaskKind.BFS_ORDER:
        return {"start": params["start"]}
    if task is TaskKind.SHORTEST_PATH:
        u, v = params["u"], params["v"]
        dist = graphs.shortest_distance(g, u, v)
        if dist is None:
            raise ValueError(f"shortest-path query over unreachable pair ({u}, {v})")
        return {"src": u, "dst": v, "dist": dist}
    if task is TaskKind.TRIANGLE:
        return graphs.triangle_count(g)
    if task is TaskKind.HAMILTONIAN:
        exists, tour = graphs.hamiltonian_cycle(g)
        return {"exists": exists, "witness": tour}
    if task is TaskKind.MAX_CUT:
        size, side = graphs.max_cut(g)
        return {"size": size, "partition": sorted(side)}
    raise ValueError(f"unknown task {task!r}")


def ground_truth_matches(task: TaskKind, g: Graph, params: dict[str, int],
                         stored: Any) -> bool:
    """Revalidate a stored ground truth against a fresh oracle run.

    For Hamiltonian only the decision must agree (any valid witness is
    acceptable, and the stored one must verify when existence is claimed).
    Max-cut witnesses likewise only need to achieve the stored size.
    """
    fresh = compute_ground_truth(task, g, params)
    if task is TaskKind.HAMILTONIAN:
        if not isinstance(stored, dict) or stored.get("exists") != fresh["exists"]:
            return False
        if stored.get("exists"):
            return graphs.verify_hamiltonian_tour(g, stored.get("witness") or [])
        return True
    if task is TaskKind.MAX_CUT:
        if not isinstance(stored, dict) or stored.get("size") != fresh["size"]:
            return False
        side = set(stored.get("partition") or [])
        return graphs.cut_size(g, side) == fresh["size"]
    return stored == fresh
