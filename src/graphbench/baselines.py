"""Task-specific random baselines, computed analytically: each is the exact
expected accuracy of a guessing policy.

Policies: boolean tasks answer True on every query, so the baseline is the
corpus's True-label fraction; diameter guesses uniformly from [1, N]; triangle
guesses uniformly from [1, M] with M capped per difficulty; sequence-style
tasks (BFS order, shortest path, max-cut) have combinatorially many answers
and baseline at 0.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import MixedTasks
from .generators import DifficultySplit
from .tasks import TaskKind

if TYPE_CHECKING:
    from .corpus import QuerySpec

TRIANGLE_CAPS = {
    DifficultySplit.EASY: 50,
    DifficultySplit.MEDIUM: 120,
    DifficultySplit.HARD: 300,
}


def _triangle_bound(query: "QuerySpec") -> int:
    return max(1, min(math.comb(query.n, 3), TRIANGLE_CAPS[query.difficulty]))


def _check_corpus(corpus: Sequence["QuerySpec"]) -> TaskKind:
    if not corpus:
        raise MixedTasks("baseline needs a nonempty corpus")
    tasks = {q.task for q in corpus}
    if len(tasks) != 1:
        raise MixedTasks(f"corpus mixes tasks: {sorted(t.value for t in tasks)}")
    return next(iter(tasks))


def _truth_value(task: TaskKind, query: "QuerySpec") -> bool:
    return bool(query.ground_truth["exists"]) if task is TaskKind.HAMILTONIAN \
        else bool(query.ground_truth)


def random_baseline(corpus: Sequence["QuerySpec"]) -> float:
    """Exact expected accuracy of the random-guessing policy on a
    single-task corpus, in [0, 1]."""
    task = _check_corpus(corpus)
    if task in (TaskKind.CYCLE, TaskKind.CONNECTIVITY, TaskKind.HAMILTONIAN):
        return sum(_truth_value(task, q) for q in corpus) / len(corpus)
    if task is TaskKind.DIAMETER:
        # The true diameter always lies in [1, N], so a uniform draw is
        # right with probability 1/N.
        return sum(1.0 / q.n for q in corpus if 1 <= q.ground_truth <= q.n) / len(corpus)
    if task is TaskKind.TRIANGLE:
        total = 0.0
        for q in corpus:
            bound = _triangle_bound(q)
            if 1 <= q.ground_truth <= bound:
                total += 1.0 / bound
        return total / len(corpus)
    if task in (TaskKind.BFS_ORDER, TaskKind.SHORTEST_PATH, TaskKind.MAX_CUT):
        return 0.0
    raise ValueError(f"unknown task {task!r}")
