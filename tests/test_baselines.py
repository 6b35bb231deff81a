"""Random-baseline formulas and their agreement with a simulation of the
guessing policy."""

import math
import random

import pytest

from conftest import monte_carlo_baseline
from graphbench.baselines import random_baseline
from graphbench.corpus import build_corpus
from graphbench.errors import MixedTasks
from graphbench.generators import DifficultySplit as D
from graphbench.tasks import TaskKind as T
from graphbench.tasks import Triangle


def corpus_for(task, split=D.EASY, count=40, seed=5):
    return build_corpus([task], [split], None, count, master_seed=seed)


def test_cycle_baseline_is_true_fraction():
    qs = corpus_for(T.CYCLE)
    frac = sum(bool(q.ground_truth) for q in qs) / len(qs)
    assert random_baseline(qs) == frac


def test_connectivity_baseline_is_true_fraction():
    qs = corpus_for(T.CONNECTIVITY)
    frac = sum(bool(q.ground_truth) for q in qs) / len(qs)
    assert random_baseline(qs) == frac


def test_sequence_tasks_baseline_zero():
    for task in (T.BFS_ORDER, T.SHORTEST_PATH, T.MAX_CUT):
        qs = corpus_for(task, count=10)
        assert random_baseline(qs) == 0.0


def test_diameter_analytic_formula():
    qs = corpus_for(T.DIAMETER)
    expected = sum(1.0 / q.n for q in qs) / len(qs)
    assert math.isclose(random_baseline(qs), expected)


def test_triangle_analytic_uses_caps():
    qs = corpus_for(T.TRIANGLE)
    expected = 0.0
    for q in qs:
        bound = min(math.comb(q.n, 3), Triangle.caps[q.difficulty])
        if 1 <= q.ground_truth <= bound:
            expected += 1.0 / bound
    expected /= len(qs)
    assert math.isclose(random_baseline(qs), expected)


@pytest.mark.parametrize("task", [T.CYCLE, T.DIAMETER, T.TRIANGLE])
def test_monte_carlo_within_four_sigma(task):
    qs = corpus_for(task, count=60)
    analytic = random_baseline(qs)
    trials = 10_000
    mc = monte_carlo_baseline(qs, random.Random(99), trials=trials)
    sigma = math.sqrt(max(analytic * (1 - analytic), 1e-9) / trials)
    assert abs(mc - analytic) <= 4 * sigma


def test_mixed_tasks_rejected():
    qs = corpus_for(T.CYCLE, count=4) + corpus_for(T.DIAMETER, count=4)
    with pytest.raises(MixedTasks):
        random_baseline(qs)
    with pytest.raises(MixedTasks):
        random_baseline([])


def test_easy_diameter_baseline_band():
    qs = corpus_for(T.DIAMETER, count=200, seed=0)
    value = random_baseline(qs)
    assert 0.08 <= value <= 0.15
