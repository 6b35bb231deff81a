"""Corpus assembly, JSONL persistence, statistics, and the ground-truth
selfcheck."""

import json

from conftest import corpus_stats
from graphbench.corpus import (QuerySpec, build_corpus, load_queries, read_jsonl, selfcheck,
                               write_jsonl)
from graphbench.generators import DifficultySplit as D
from graphbench.generators import GraphFamily as GF
from graphbench.graphs import is_connected, shortest_distance
from graphbench.tasks import TaskKind as T

ALL_TASKS = list(T)


def test_build_corpus_determinism(tmp_path):
    a = build_corpus([T.CYCLE, T.BFS_ORDER], [D.EASY], None, 8, master_seed=7)
    b = build_corpus([T.CYCLE, T.BFS_ORDER], [D.EASY], None, 8, master_seed=7)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl((q.to_record() for q in a), pa)
    write_jsonl((q.to_record() for q in b), pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = build_corpus([T.CYCLE, T.BFS_ORDER], [D.EASY], None, 8, master_seed=8)
    assert [q.to_record() for q in c] != [q.to_record() for q in a]


def test_jsonl_round_trip(tmp_path):
    qs = build_corpus([T.SHORTEST_PATH], [D.MEDIUM], None, 6, master_seed=3)
    path = tmp_path / "q.jsonl"
    write_jsonl((q.to_record() for q in qs), path)
    loaded = load_queries(path)
    assert [q.to_record() for q in loaded] == [q.to_record() for q in qs]


def test_jsonl_field_order_is_stable(tmp_path):
    qs = build_corpus([T.CYCLE], [D.EASY], None, 2, master_seed=1)
    path = tmp_path / "q.jsonl"
    write_jsonl((q.to_record() for q in qs), path)
    first = path.read_text().splitlines()[0]
    keys = list(json.loads(first).keys())
    assert keys == ["id", "task", "difficulty", "graph_type", "n", "edges",
                    "params", "ground_truth", "seed"]


def test_ids_unique_and_family_admissible():
    qs = build_corpus(ALL_TASKS, [D.EASY], None, 6, master_seed=2)
    ids = [q.id for q in qs]
    assert len(set(ids)) == len(ids)
    assert selfcheck(qs) == []


def test_connectivity_cells_never_contain_bag():
    qs = build_corpus([T.CONNECTIVITY], [D.EASY, D.MEDIUM], None, 12, master_seed=4)
    assert all(q.family is not GF.BAG for q in qs)


def test_requested_family_filter():
    qs = build_corpus([T.CYCLE], [D.EASY], [GF.BAG, GF.ERP], 8, master_seed=4)
    assert {q.family for q in qs} <= {GF.BAG, GF.ERP}


def test_per_cell_counts():
    qs = build_corpus([T.DIAMETER], [D.EASY], None, 3, master_seed=4, per_cell=True)
    # diameter admits 4 families
    assert len(qs) == 12
    spread = build_corpus([T.DIAMETER], [D.EASY], None, 10, master_seed=4)
    assert len(spread) == 10


def test_no_duplicate_edge_sets_within_cell():
    qs = build_corpus([T.CYCLE], [D.EASY], [GF.ERM], 30, master_seed=5, per_cell=True)
    hashes = [q.graph.edges for q in qs]
    assert len(set(hashes)) == len(hashes)


def test_diameter_graphs_connected_and_pairs_reachable():
    qs = build_corpus([T.DIAMETER, T.SHORTEST_PATH], [D.EASY], None, 10, master_seed=6)
    for q in qs:
        if q.task is T.DIAMETER:
            assert is_connected(q.graph)
        else:
            assert shortest_distance(q.graph, q.params["u"], q.params["v"]) is not None
            assert q.params["u"] != q.params["v"]


def test_np_tasks_respect_node_cap():
    qs = build_corpus([T.HAMILTONIAN, T.MAX_CUT], [D.HARD], None, 3, master_seed=7)
    assert qs and all(q.n <= 25 for q in qs)


def test_bfs_start_node_in_range():
    qs = build_corpus([T.BFS_ORDER], [D.EASY], None, 20, master_seed=8)
    assert all(0 <= q.params["start"] < q.n for q in qs)


def test_corpus_stats_directions():
    qs = build_corpus([T.BFS_ORDER], [D.EASY], None, 40, master_seed=9, per_cell=True)
    rows = corpus_stats(qs)
    by_family = {r["graph_type"]: r for r in rows}
    assert by_family["baf"]["avg_edges"] < by_family["baf"]["avg_nodes"]
    erm = by_family["erm"]
    # ERM easy cells average roughly n(n-1)/4 edges; allow a generous band
    n = erm["avg_nodes"]
    assert 0.3 * n * (n - 1) / 4 <= erm["avg_edges"] <= 1.7 * n * (n - 1) / 4


def test_selfcheck_catches_single_field_corruption(tmp_path):
    qs = build_corpus([T.TRIANGLE], [D.EASY], None, 6, master_seed=10)
    path = tmp_path / "q.jsonl"
    write_jsonl((q.to_record() for q in qs), path)
    records = list(read_jsonl(path))
    records[2]["ground_truth"] += 1
    corrupted = tmp_path / "bad.jsonl"
    write_jsonl(records, corrupted)
    bad = selfcheck(load_queries(corrupted))
    assert bad == [records[2]["id"]]


def test_selfcheck_catches_duplicate_ids():
    qs = build_corpus([T.CYCLE], [D.EASY], None, 2, master_seed=11)
    qs.append(qs[0])
    assert selfcheck(qs) == [qs[0].id]


def test_selfcheck_catches_inadmissible_family():
    qs = build_corpus([T.CYCLE], [D.EASY], None, 1, master_seed=12)
    q = qs[0]
    hacked = QuerySpec(id=q.id, task=T.CONNECTIVITY, difficulty=q.difficulty,
                       family=GF.BAG, graph=q.graph, params={"u": 0, "v": 1},
                       ground_truth=True, seed=q.seed)
    assert hacked.id in selfcheck([hacked])
