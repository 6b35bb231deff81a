"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import ast
import itertools
import math
import random
import statistics
import time


from conftest import (is_bipartite, make_planted_landscape, make_tabular_q,
                      monte_carlo_baseline, random_graph)
from graphbench import answer_eval, graphs
from graphbench.baselines import random_baseline
from graphbench.cli import main as cli_main
from graphbench.corpus import build_corpus, read_jsonl, write_jsonl
from graphbench.gateway import Gateway, MockBackend
from graphbench.generators import DifficultySplit as D
from graphbench.generators import GraphFamily as GF
from graphbench.generators import derive_rng, generate
from graphbench.graphs import Graph, diameter, has_cycle, is_connected, triangle_count
from graphbench.pipeline import accuracy, run_evaluation
from graphbench.prompts import PromptScheme as S
from graphbench.reporting import aggregate
from graphbench import rlopt
from graphbench.rlopt import DQNConfig, cost_rate, default_space, run_dqn, table_reward_fn
from graphbench.serialize import SerializationFormat as F
from graphbench.serialize import serialize
from graphbench.tasks import TaskKind as T
from test_answer_eval import enumerate_bfs_orders
from test_graphs import brute_triangles, floyd_warshall_diameter
from test_serializers import (GOLDEN_ADJ_LIST, GOLDEN_ADJ_SET_ELEMENTS, GOLDEN_EDGE_LIST,
                              GOLDEN_EDGE_SET_ELEMENTS, GOLDEN_GMAL, GOLDEN_GMOL,
                              GOLDEN_MATRIX)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_serializer_goldens(reference_graph):
    start = time.monotonic()
    byte_exact = {
        F.ADJACENCY_MATRIX: GOLDEN_MATRIX,
        F.ADJACENCY_LIST: GOLDEN_ADJ_LIST,
        F.EDGE_LIST: GOLDEN_EDGE_LIST,
        F.GMOL: GOLDEN_GMOL,
        F.GMAL: GOLDEN_GMAL,
    }
    ok = all(serialize(reference_graph, fmt) == text for fmt, text in byte_exact.items())
    ok &= ast.literal_eval(serialize(reference_graph, F.ADJACENCY_SET)) == GOLDEN_ADJ_SET_ELEMENTS
    ok &= ast.literal_eval(serialize(reference_graph, F.EDGE_SET)) == GOLDEN_EDGE_SET_ELEMENTS
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, ok, f"reference-graph goldens byte-exact (5 formats) + set-exact (2), {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(202)
    mismatches = 0
    diam_checked = 0
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 12))
        if triangle_count(g) != brute_triangles(g):
            mismatches += 1
        fw = floyd_warshall_diameter(g)
        if fw is not None:
            diam_checked += 1
            if diameter(g) != fw:
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 30 and diam_checked > 100
    report(2, ok, f"500 graphs n<=12: triangle & diameter vs brute force, "
                  f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_3_bfs_verifier_exactness():
    start = time.monotonic()
    rng = random.Random(303)
    graphs_checked = 0
    bad = 0
    mutants_rejected = True
    while graphs_checked < 200:
        n = rng.randint(2, 8)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.7))
        s = rng.randrange(n)
        valid = enumerate_bfs_orders(g, s)
        if len(valid) > 20000:
            continue
        graphs_checked += 1
        reachable = sorted(next(iter(valid)))
        perms = itertools.permutations(reachable)
        if math.factorial(len(reachable)) > 5040:
            sampled = {tuple(rng.sample(reachable, len(reachable))) for _ in range(1500)}
            perms = sampled | valid
        for seq in perms:
            if graphs.verify_bfs_order(g, s, seq) != (tuple(seq) in valid):
                bad += 1
        from graphbench.graphs import bfs_levels
        levels = bfs_levels(g, s)
        for seq in itertools.islice(iter(valid), 20):
            for i in range(len(seq) - 1):
                j = next((j for j in range(i + 1, len(seq))
                          if levels[seq[i]] != levels[seq[j]]), None)
                if j is not None:
                    mutated = list(seq)
                    mutated[i], mutated[j] = mutated[j], mutated[i]
                    if graphs.verify_bfs_order(g, s, mutated):
                        mutants_rejected = False
                    break
    elapsed = time.monotonic() - start
    ok = bad == 0 and mutants_rejected and elapsed < 60
    report(3, ok, f"BFS verifier == exhaustive enumeration on {graphs_checked} graphs, "
                  f"{bad} disagreements, level-crossing mutants rejected: "
                  f"{mutants_rejected}, {elapsed:.1f}s")


def test_criterion_4_reference_cases():
    adj = {1: [0], 0: [1, 2, 3, 6], 2: [0, 7], 3: [0, 4, 5, 6], 4: [3, 6],
           5: [3], 6: [0, 3, 4, 8], 7: [2], 8: [6]}
    tri_graph = Graph.from_edges(9, [(u, v) for u, vs in adj.items() for v in vs])
    ok = triangle_count(tri_graph) == 2

    near_complete = Graph.from_edges(
        9, [(u, v) for u in range(9) for v in range(u + 1, 9) if {u, v} != {1, 3}])
    ok &= diameter(near_complete) == 2

    baf = Graph.from_edges(11, [(3, 2), (4, 1), (5, 2), (6, 5), (7, 0), (8, 2),
                                (9, 7), (10, 3)])
    ok &= graphs.verify_bfs_order(baf, 7, [7, 0, 9])

    star = Graph.from_edges(9, [(0, k) for k in (8, 4, 3, 2, 5, 1, 6)])
    ok &= graphs.verify_shortest_path(star, 5, 8, [5, 0, 8])
    report(4, ok, "triangle=2, diameter=2, BFS [7,0,9], shortest path [5,0,8]")


def test_criterion_5_random_baselines():
    ok = True
    details = []
    cyc = build_corpus([T.CYCLE], [D.EASY], None, 100, master_seed=0)
    frac = sum(bool(q.ground_truth) for q in cyc) / len(cyc)
    ok &= random_baseline(cyc) == frac
    conn = build_corpus([T.CONNECTIVITY], [D.EASY], None, 100, master_seed=0)
    ok &= random_baseline(conn) == sum(bool(q.ground_truth) for q in conn) / len(conn)
    details.append(f"bool tasks = true-fraction ({frac:.2f})")

    trials = 10_000
    for task in (T.DIAMETER, T.TRIANGLE):
        qs = build_corpus([task], [D.EASY], None, 80, master_seed=0)
        analytic = random_baseline(qs)
        mc = monte_carlo_baseline(qs, random.Random(1), trials=trials)
        sigma = math.sqrt(max(analytic * (1 - analytic), 1e-9) / trials)
        ok &= abs(mc - analytic) <= 4 * sigma
        details.append(f"{task.value} |MC-analytic|={abs(mc - analytic):.4f} (4s={4 * sigma:.4f})")

    bfs = build_corpus([T.BFS_ORDER], [D.EASY], None, 20, master_seed=0)
    ok &= random_baseline(bfs) == 0.0

    diam = build_corpus([T.DIAMETER], [D.EASY], None, 200, master_seed=0)
    dbase = random_baseline(diam)
    ok &= 0.08 <= dbase <= 0.15
    details.append(f"easy diameter baseline {dbase:.4f} in [0.08, 0.15]")
    report(5, ok, "; ".join(details))


def test_criterion_6_generator_structure():
    ok = True
    for seed in range(200):
        rng = derive_rng("acc6-struct", seed)
        n = rng.randint(5, 20)
        ok &= not has_cycle(generate(GF.BAF, n, rng))
        ok &= is_connected(generate(GF.BAG, n, rng))
        ok &= is_bipartite(generate(GF.BERM, n, rng))
        ok &= is_bipartite(generate(GF.BERP, n, rng))

    def max_deg(g):
        return max(g.degree(u) for u in range(g.n))

    bag = [max_deg(generate(GF.BAG, 30, derive_rng("acc6-bag", i))) for i in range(1000)]
    erp = [max_deg(generate(GF.ERP, 30, derive_rng("acc6-erp", i))) for i in range(1000)]
    bag_mean = statistics.mean(bag)
    erp_mean = statistics.mean(erp)
    ok &= 16 <= bag_mean <= 23
    ok &= bag_mean > erp_mean
    report(6, ok, f"BAF acyclic, BAG connected, bipartite 2-colorable (200 each); "
                  f"BAG mean max-degree {bag_mean:.2f} in [16,23] > ERP {erp_mean:.2f}")


def test_criterion_7_corpus_statistics():
    qs = build_corpus(list(T), [D.EASY], None, 60, master_seed=0)
    mean_nodes = sum(q.n for q in qs) / len(qs)
    ok = 7.5 <= mean_nodes <= 8.5
    baf_cells = [q for q in qs if q.family is GF.BAF]
    avg_nodes = sum(q.n for q in baf_cells) / len(baf_cells)
    avg_edges = sum(q.graph.m for q in baf_cells) / len(baf_cells)
    ok &= avg_edges < avg_nodes
    report(7, ok, f"default Easy mean nodes {mean_nodes:.2f} in [7.5,8.5]; "
                  f"BAF avg edges {avg_edges:.2f} < avg nodes {avg_nodes:.2f}")


def test_criterion_8_mock_pipeline():
    queries = build_corpus(list(T), [D.EASY], None, 10, master_seed=11)
    schemes = list(S)
    formats = list(F)

    bern = Gateway(MockBackend(error_rate=0.2, seed=1))
    records = list(run_evaluation(queries, schemes, formats, bern, max_in_flight=8))
    n = len(records)
    acc = accuracy(records)
    sigma = math.sqrt(0.8 * 0.2 / n)
    ok = n >= 5000 and abs(acc - 0.8) <= 3 * sigma

    oracle = Gateway(MockBackend())
    oracle_records = list(run_evaluation(queries[:2 * len(list(T))], schemes, formats,
                                         oracle, max_in_flight=8))
    pivots_ok = True
    for dim in ("model", "prompt_scheme", "serialization", "graph_type", "task"):
        for row in aggregate(oracle_records, [dim]):
            pivots_ok &= row["mean"] == 1.0
    ok &= pivots_ok
    report(8, ok, f"bernoulli e=0.2 over {n} queries: acc {acc:.4f} "
                  f"(3s band +-{3 * sigma:.4f}); oracle mock = 1.000 on every pivot: "
                  f"{pivots_ok}")


def test_criterion_9_rl_opt(monkeypatch):
    """Planted-optimum search. Harness configuration (fixed, documented):
    additive landscape with per-factor weights (0.45, 0.35, 0.2), optimum
    1.0, every other combination capped at 0.5 (gap to median >= 0.2
    asserted per seed); DQN with M=80 episodes, linear epsilon decay
    1.0 -> 0.1, NLMS updates (mu=0.5), 16x16 hidden widths with a linear
    input shortcut, landscape seed reused as the run seed.
    """
    start = time.monotonic()
    space = default_space()
    monkeypatch.setattr(rlopt, "HIDDEN", (16, 16))
    cfg_proto = dict(episodes=80, decay_mode="linear", epsilon_min=0.1,
                     learning_rate=0.5, optimizer="nlms", input_skip=True)
    hits = 0
    costs = []
    for seed in range(20):
        table, planted = make_planted_landscape(space, seed=seed, noise=0.0, cap=0.5)
        values = sorted(table.values())
        assert 1.0 - values[len(values) // 2] >= 0.2
        assert values[-2] <= 0.5
        result = run_dqn(("diameter", "easy"), space, table_reward_fn(table),
                         DQNConfig(seed=seed, **cfg_proto))
        cost, rate = cost_rate(result, space, 1.0)
        costs.append(cost)
        hits += rate == 1.0

    greedy_ok = True
    monkeypatch.setattr(rlopt, "EPSILON_START", 0.0)
    for seed in range(20):
        table, planted = make_planted_landscape(space, seed=seed)
        res = run_dqn(("diameter", "easy"), space, table_reward_fn(table),
                      DQNConfig(episodes=10, epsilon_min=0.0, seed=seed),
                      q_functions=make_tabular_q(space, table))
        greedy_ok &= res.explored == 1 and res.best_combo == planted

    elapsed = time.monotonic() - start
    mean_cost = sum(costs) / len(costs)
    ok = mean_cost <= 0.30 and hits >= 18 and greedy_ok and elapsed < 300
    report(9, ok, f"M=80, K=315: mean Cost {mean_cost:.4f} (<=0.30), Rate=1.0 in "
                  f"{hits}/20 seeds (need >=18), greedy-consistency {greedy_ok}, "
                  f"{elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        code = cli_main(["generate", "--task", "cycle,diameter,bfs_order",
                         "--difficulty", "easy", "--count", "12", "--seed", "21",
                         "--out", str(out)])
        assert code == 0
    ok = a.read_bytes() == b.read_bytes()

    ok &= cli_main(["selfcheck", str(a)]) == 0
    records = list(read_jsonl(a))
    target = next(r for r in records if r["task"] == "diameter")
    target["ground_truth"] += 1
    corrupted = tmp_path / "c.jsonl"
    with open(corrupted, "w", encoding="utf-8") as fh:
        write_jsonl(records, fh)
    ok &= cli_main(["selfcheck", str(corrupted)]) == 1
    report(10, ok, "generate byte-identical on repeat; selfcheck 0 clean / 1 corrupted GT")
