"""Rule-based answer extraction and binary scoring, by task.

Each task's `tasks.Task` extracts and scores its answers; see `tasks` for
the answer value of each task and how it is read.
"""

from __future__ import annotations

from typing import Any

from .graphs import Graph
from .tasks import TASKS, TaskKind


def extract(task: TaskKind, response: str) -> Any:
    """Pull the task's answer value out of free-form response text.

    Nothing found is None, not an error: it simply scores 0.
    """
    return TASKS[task].extract(response)


def score(task: TaskKind, g: Graph, params: dict[str, int], gt, ans: Any) -> int:
    """Binary score of an extracted answer value against the ground truth.

    A value of the wrong type for the task (None included) scores 0.
    """
    return TASKS[task].score(g, params, gt, ans)
