"""Rule-based answer extraction and binary scoring.

Extraction scans the response case-insensitively for task-specific key
phrases loaded from data/answer_patterns.txt; when a phrase occurs more than
once the last occurrence wins (models tend to restate their final answer at
the end). Scoring is strictly 0/1 against the query's ground truth, with
dedicated verifiers for the multi-valid-answer tasks.

An answer is a plain JSON value, the same one result records store in
`extracted`, and `prompts.render_answer` writes it back as a sentence:
  - cycle, connectivity: bool;
  - diameter, triangle: int;
  - bfs_order, shortest_path: list of node ids;
  - hamiltonian: the tour as a list of node ids, or a bool for "no" and for
    a "yes" without a readable tour;
  - max_cut: {"size": int, "partition": [sorted side, sorted side] | None};
  - None when nothing is found, which scores 0.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import Any, Sequence

from .graphs import Graph, cut_size, shortest_distance, verify_hamiltonian_tour
from .tasks import TaskKind


def _load_patterns() -> dict[tuple[str, str], list[re.Pattern]]:
    table: dict[tuple[str, str], list[re.Pattern]] = {}
    text = resources.files("graphbench").joinpath("data/answer_patterns.txt").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        task, kind, pattern = line.split("\t", 2)
        table.setdefault((task, kind), []).append(re.compile(pattern, re.IGNORECASE))
    return table


_PATTERNS = _load_patterns()

# Value parsing after a matched key phrase.
_NUMBER_AFTER = re.compile(r"[\s*_`:~\[]*([0-9][0-9,]*(?:\.[0-9]+)?)")
_SEQ_TOKEN = re.compile(r"\d+")
_SET_RE = re.compile(r"\{\s*(?:\d+(?:\s*,\s*\d+)*)?\s*\}")


def _strip_markup(text: str) -> str:
    return text.replace("**", "").replace("__", "").replace("`", "")


def _parse_number(tail: str) -> int | None:
    """A nonnegative integer immediately following a key phrase.

    Normalizes markdown emphasis, thousands separators, and a float form
    with an integral value ("4.0" -> 4).
    """
    m = _NUMBER_AFTER.match(_strip_markup(tail))
    if not m:
        return None
    token = m.group(1).replace(",", "")
    value = float(token)
    if value != int(value):
        return None
    return int(value)


def _parse_sequence(tail: str) -> list[int] | None:
    """A run of integers separated by commas, arrows, or spaces."""
    tail = _strip_markup(tail)
    run = re.match(r"[\s:]*((?:\d+\s*(?:,|->|→|-->|=>|\s)\s*)*\d+)", tail)
    if not run:
        return None
    return [int(t) for t in _SEQ_TOKEN.findall(run.group(1))]


def _last_match(patterns: list[re.Pattern], text: str) -> re.Match | None:
    """Highest-priority pattern wins; within it, the last occurrence."""
    for pat in patterns:
        matches = list(pat.finditer(text))
        if matches:
            return matches[-1]
    return None


def _extract_bool(task_token: str, text: str) -> bool | None:
    """Resolve yes/no from the latest affirmation or negation phrase."""
    best: tuple[int, bool] | None = None
    for kind, value in (("yes", True), ("no", False)):
        for pat in _PATTERNS.get((task_token, kind), []):
            for m in pat.finditer(text):
                if best is None or m.end() > best[0]:
                    best = (m.end(), value)
    return best[1] if best else None


def _extract_number(task_token: str, text: str) -> int | None:
    m = _last_match(_PATTERNS.get((task_token, "number"), []), text)
    if m is None:
        return None
    if "value" in m.re.groupindex:
        return _parse_number(m.group("value"))
    return _parse_number(text[m.end():])


def _extract_sequence(task_token: str, text: str) -> list[int] | None:
    m = _last_match(_PATTERNS.get((task_token, "sequence"), []), text)
    if m is None:
        return None
    return _parse_sequence(text[m.end():])


def _extract_partition(text: str) -> list[list[int]] | None:
    """The last two brace-delimited integer sets in the response, each
    deduplicated and sorted; "{}" is an empty side."""
    sets = _SET_RE.findall(text)
    if len(sets) < 2:
        return None
    return [sorted({int(t) for t in _SEQ_TOKEN.findall(s)}) for s in sets[-2:]]


def extract(task: TaskKind, response: str) -> Any:
    """Pull the task's answer value out of free-form response text.

    Nothing found is None, not an error: it simply scores 0.
    """
    token = task.value
    if task in (TaskKind.CYCLE, TaskKind.CONNECTIVITY):
        return _extract_bool(token, response)
    if task in (TaskKind.TRIANGLE, TaskKind.DIAMETER):
        return _extract_number(token, response)
    if task in (TaskKind.BFS_ORDER, TaskKind.SHORTEST_PATH):
        return _extract_sequence(token, response)
    if task is TaskKind.HAMILTONIAN:
        decision = _extract_bool(token, response)
        if decision:
            return _extract_sequence(token, response) or True
        return decision
    if task is TaskKind.MAX_CUT:
        size = _extract_number(token, response)
        if size is None:
            return None
        return {"size": size, "partition": _extract_partition(response)}
    raise ValueError(f"unknown task {task!r}")


def verify_bfs_order(g: Graph, s: int, seq: Sequence[int]) -> bool:
    """Queue-simulation check that seq is a realizable BFS order from s.

    seq must start at s, be a permutation of exactly the nodes reachable
    from s, and at each pop the popped node's unvisited neighbors must equal,
    as a set, the next block of seq of that size (which then joins the queue
    in seq's order).
    """
    g.check_node(s)
    seq = list(seq)
    if not seq or seq[0] != s or len(set(seq)) != len(seq):
        return False
    if any(not 0 <= v < g.n for v in seq):
        return False
    visited = {s}
    frontier = 1
    for u in seq:
        fresh = {v for v in g.neighbors(u) if v not in visited}
        block = seq[frontier:frontier + len(fresh)]
        if set(block) != fresh:
            return False
        visited.update(fresh)
        frontier += len(fresh)
    return frontier == len(seq)


def verify_shortest_path(g: Graph, u: int, v: int, seq: Sequence[int]) -> bool:
    """seq is a simple u-v walk along edges whose length equals the BFS
    distance."""
    g.check_node(u)
    g.check_node(v)
    seq = list(seq)
    if not seq or seq[0] != u or seq[-1] != v or len(set(seq)) != len(seq):
        return False
    if any(not 0 <= x < g.n for x in seq):
        return False
    if any(not g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
        return False
    return len(seq) - 1 == shortest_distance(g, u, v)


def _score_max_cut(g: Graph, gt: dict, ans: dict) -> int:
    """The claimed sides must be disjoint, stay inside the node set, and
    cover every node that carries an edge (isolated nodes cannot change the
    cut and may be omitted, e.g. when the prompt's serialization hid them).
    The claimed size and the recomputed crossing count must both equal the
    ground-truth size."""
    if ans["size"] != gt["size"] or ans["partition"] is None:
        return 0
    side_a, side_b = (set(side) for side in ans["partition"])
    if side_a & side_b:
        return 0
    nodes = set(range(g.n))
    listed = side_a | side_b
    non_isolated = {u for u in nodes if g.degree(u) > 0}
    if not listed <= nodes or not non_isolated <= listed:
        return 0
    return 1 if cut_size(g, side_a) == gt["size"] else 0


def score(task: TaskKind, g: Graph, params: dict[str, int], gt, ans: Any) -> int:
    """Binary score of an extracted answer value against the ground truth.

    A value of the wrong type for the task (None included) scores 0.
    """
    if task in (TaskKind.CYCLE, TaskKind.CONNECTIVITY):
        return int(type(ans) is bool and ans == gt)
    if task in (TaskKind.TRIANGLE, TaskKind.DIAMETER):
        return int(type(ans) is int and ans == gt)
    if task is TaskKind.BFS_ORDER:
        return int(isinstance(ans, list) and verify_bfs_order(g, params["start"], ans))
    if task is TaskKind.SHORTEST_PATH:
        return int(isinstance(ans, list)
                   and verify_shortest_path(g, params["u"], params["v"], ans))
    if task is TaskKind.HAMILTONIAN:
        if gt["exists"]:
            # A correct positive needs the explicit decision and a tour that
            # actually verifies; the extractor only yields a tour when the
            # decision was affirmative.
            return int(isinstance(ans, list) and verify_hamiltonian_tour(g, ans))
        return int(ans is False)
    if task is TaskKind.MAX_CUT:
        return _score_max_cut(g, gt, ans) if isinstance(ans, dict) else 0
    raise ValueError(f"unknown task {task!r}")
