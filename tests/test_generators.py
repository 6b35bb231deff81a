"""Structural guarantees of the seven graph families and the task/family
admissibility matrix."""

import math
import random

import pytest

from conftest import is_bipartite
from graphbench import generators
from graphbench.errors import ExhaustedAttempts, InvalidN
from graphbench.generators import (MAX_CONNECTED_ATTEMPTS, DifficultySplit, GraphFamily,
                                   derive_rng, derive_seed, generate, generate_connected, sample_n)
from graphbench.graphs import NP_NODE_CAP, has_cycle, is_connected, triangle_count
from graphbench.tasks import TASKS, TaskKind


def test_sample_n_ranges():
    rng = random.Random(0)
    for split, (lo, hi) in [(DifficultySplit.EASY, (5, 10)),
                            (DifficultySplit.MEDIUM, (10, 20)),
                            (DifficultySplit.HARD, (20, 30))]:
        draws = [sample_n(TASKS[TaskKind.DIAMETER], split, rng) for _ in range(500)]
        assert min(draws) >= lo and max(draws) <= hi
        assert set(draws) >= {lo, hi}


def test_sample_n_caps_np_tasks():
    """NP-hard tasks draw from the split's band cut at NP_NODE_CAP; the
    easy band lies under the cap, so its draws equal everyone else's."""
    for task in (TaskKind.HAMILTONIAN, TaskKind.MAX_CUT):
        rng = random.Random(5)
        draws = [sample_n(TASKS[task], DifficultySplit.HARD, rng) for _ in range(500)]
        assert max(draws) <= NP_NODE_CAP and min(draws) >= 20
        assert set(draws) >= {20, NP_NODE_CAP}
        easy = [sample_n(TASKS[task], DifficultySplit.EASY, random.Random(s)) for s in range(50)]
        assert easy == [sample_n(TASKS[TaskKind.CYCLE], DifficultySplit.EASY, random.Random(s))
                        for s in range(50)]


def test_sample_n_determinism():
    cycle = TASKS[TaskKind.CYCLE]
    a = [sample_n(cycle, DifficultySplit.MEDIUM, random.Random(9)) for _ in range(20)]
    b = [sample_n(cycle, DifficultySplit.MEDIUM, random.Random(9)) for _ in range(20)]
    assert a == b


def test_sample_n_easy_mean():
    rng = random.Random(2024)
    draws = [sample_n(TASKS[TaskKind.TRIANGLE], DifficultySplit.EASY, rng) for _ in range(10_000)]
    mean = sum(draws) / len(draws)
    sigma = math.sqrt(35 / 12) / math.sqrt(len(draws))  # var of U{5..10}
    assert abs(mean - 7.5) <= 3 * sigma


def test_generate_determinism_all_families():
    for family in GraphFamily:
        for n in (5, 9, 14):
            g1 = generate(family, n, random.Random(31))
            g2 = generate(family, n, random.Random(31))
            assert g1 == g2 and g1.n == n


def test_erm_edge_count_equals_sampled_m():
    for seed in range(30):
        probe = random.Random(seed)
        n = probe.randint(5, 12)
        m = probe.randint(1, n * (n - 1) // 2)
        rng = random.Random(seed)
        n2 = rng.randint(5, 12)
        g = generate(GraphFamily.ERM, n2, rng)
        assert n2 == n and g.m == m


def test_baf_is_forest_with_expected_edge_count():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(5, 25)
        g = generate(GraphFamily.BAF, n, rng)
        assert not has_cycle(g)
        # forests have exactly n - #components edges; m0 roots, one edge per
        # later node
        m0_probe = random.Random(seed)
        m0_probe.randint(5, 25)
        m0 = m0_probe.randint(2, max(2, n // 3))
        assert g.m == n - m0


def test_bag_is_connected_cyclic_and_triangled():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(5, 20)
        g = generate(GraphFamily.BAG, n, rng)
        assert is_connected(g)
        assert has_cycle(g)
        assert triangle_count(g) >= 1


def test_bipartite_families_are_two_colorable():
    for family in (GraphFamily.BERM, GraphFamily.BERP):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(5, 18)
            g = generate(family, n, rng)
            assert is_bipartite(g)
            assert triangle_count(g) == 0


def test_sf_edge_budget():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(5, 25)
        g = generate(GraphFamily.SF, n, rng)
        assert n <= g.m <= math.ceil(1.5 * n)


def test_invalid_n():
    with pytest.raises(InvalidN):
        generate(GraphFamily.BAG, 2, random.Random(0))
    with pytest.raises(InvalidN):
        generate(GraphFamily.BERM, 3, random.Random(0))
    with pytest.raises(InvalidN):
        generate(GraphFamily.ERM, 1, random.Random(0))


ADMISSIBILITY = {
    TaskKind.CONNECTIVITY: {"baf", "berm", "berp", "erm", "erp"},
    TaskKind.CYCLE: {"bag", "berm", "berp", "erm", "erp", "sf"},
    TaskKind.DIAMETER: {"bag", "erm", "erp", "sf"},
    TaskKind.TRIANGLE: {"bag", "erm", "erp", "sf"},
    TaskKind.BFS_ORDER: {f.value for f in GraphFamily},
    TaskKind.SHORTEST_PATH: {f.value for f in GraphFamily},
    TaskKind.HAMILTONIAN: {"erm", "erp", "bag"},
    TaskKind.MAX_CUT: {f.value for f in GraphFamily},
}


@pytest.mark.parametrize("task", list(TaskKind))
def test_admissible_families(task):
    assert {f.value for f in TASKS[task].families} == ADMISSIBILITY[task]


def test_generate_connected_bag_first_try():
    # BAG is connected by construction, so generate_connected's first draw
    # is always kept.
    for seed in range(20):
        g = generate(GraphFamily.BAG, 8, random.Random(seed))
        assert is_connected(g)
        assert generate_connected(GraphFamily.BAG, 8, random.Random(seed)) == g


def test_generate_connected_exhausts_on_forest(monkeypatch):
    # BAF always has >= 2 components, so connectivity never holds
    draws = []
    monkeypatch.setattr(generators, "generate",
                        lambda *a: draws.append(a) or generate(*a))
    with pytest.raises(ExhaustedAttempts):
        generate_connected(GraphFamily.BAF, 8, random.Random(0))
    assert len(draws) == MAX_CONNECTED_ATTEMPTS == 200


def test_generate_connected_erp_retries():
    rng = random.Random(17)
    g = generate_connected(GraphFamily.ERP, 10, rng)
    assert is_connected(g)


def test_seed_derivation_stable_and_distinct():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_rng("x").random() == derive_rng("x").random()


def test_family_names_round_trip():
    assert GraphFamily("sf") is GraphFamily.SF
    for f in GraphFamily:
        assert GraphFamily(f.value) is f
