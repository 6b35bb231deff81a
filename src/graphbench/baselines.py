"""Task-specific random baselines, computed analytically: each is the exact
expected accuracy of a guessing policy.

Policies: boolean tasks answer True on every query, so the baseline is the
corpus's True-label fraction; diameter guesses uniformly from [1, N]; triangle
guesses uniformly from [1, M] with M capped per difficulty; sequence-style
tasks (BFS order, shortest path, max-cut) have combinatorially many answers
and baseline at 0. Each task's `tasks.Task.baseline` computes its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import MixedTasks
from .tasks import TASKS

if TYPE_CHECKING:
    from .corpus import QuerySpec


def random_baseline(corpus: Sequence["QuerySpec"]) -> float:
    """Exact expected accuracy of the random-guessing policy on a
    single-task corpus, in [0, 1]."""
    if not corpus:
        raise MixedTasks("baseline needs a nonempty corpus")
    tasks = {q.task for q in corpus}
    if len(tasks) != 1:
        raise MixedTasks(f"corpus mixes tasks: {sorted(t.value for t in tasks)}")
    return TASKS[corpus[0].task].baseline(corpus)
